"""Output checks and determinism fingerprints for one pass's output tree.

A pass writes ``compare/<kind>/`` or ``ablate/qubits_<n>/`` unit
directories, each with ``tuned.json``, ``trace.csv``, ``predictions.csv``
and ``record.json``, plus a summary table.  :func:`gate` checks them
against the oracles in :mod:`oracles`; :func:`fingerprint` reduces the
numeric files to the bytes that must repeat exactly for fixed seeds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

KINDS = ("iqp", "rbf", "matern", "rq", "periodic")
MLL_TOL = 1e-8
GRAM_TOL = 1e-10
DENSE_MAX_QUBITS = 8
SPOT_PAIRS = 6


@dataclass
class Gate:
    """Checks run and the descriptions of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Unit:
    """One tuned-and-predicted kernel (compare) or qubit count (ablate)."""

    label: str
    kind: str
    window: int
    train_overlap: int
    n_steps: int
    path: Path


def units(command: str, cfg, out: Path) -> list[Unit]:
    """Unit directories a pass of ``command`` under ``cfg`` must write."""
    if command == "compare":
        return [
            Unit(kind, kind, cfg.window, cfg.train_overlap, cfg.gen.n_steps,
                 out / "compare" / kind)
            for kind in KINDS
        ]
    return [
        Unit(f"qubits_{w}", "iqp", w, cfg.ablate_train_overlap, cfg.ablate_n_steps,
             out / "ablate" / f"qubits_{w}")
        for w in cfg.ablate_qubits
    ]


def reported_failures(command: str, out: Path) -> dict:
    path = out / command / "failures.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_predictions(gate: Gate, unit: Unit) -> None:
    header, rows = _read_csv(unit.path / "predictions.csv")
    col = {name: i for i, name in enumerate(header)}
    bad = 0
    for row in rows:
        v = {name: float(row[i]) for name, i in col.items()}
        finite = all(math.isfinite(x) for x in v.values())
        if not (
            finite and v["var_latent"] >= 0.0 and v["var_predictive"] >= 0.0
            and v["lower95"] <= v["mean"] <= v["upper95"]
        ):
            bad += 1
    gate.check(bool(rows) and bad == 0, f"{unit.label}: {bad} of {len(rows)} prediction rows invalid")


def _kernel_params(unit: Unit, theta: dict, cfg) -> dict:
    params = {k: v for k, v in theta.items() if k not in ("noise_var", "mean_const")}
    if unit.kind == "matern":
        params["nu"] = cfg.matern_nu
    return params


def _check_unit(gate: Gate, unit: Unit, cfg, quack, rng: np.random.Generator) -> None:
    tuned = json.loads((unit.path / "tuned.json").read_text())
    theta = tuned["theta"]
    series = quack.experiments.build_series(cfg, n_steps=unit.n_steps)
    train, _ = quack.timeseries.split(series, unit.window, cfg.train_frac, unit.train_overlap)
    params = _kernel_params(unit, theta, cfg)

    K = oracles.gram(unit.kind, params, train.X)
    jitter = quack.gpr.JITTER_LADDER[0]
    recomputed = oracles.direct_mll(
        K, train.y, theta["mean_const"], theta["noise_var"] + jitter
    )
    value = tuned["incumbent_value"]
    gate.check(
        abs(recomputed - value) <= MLL_TOL * max(1.0, abs(value)),
        f"{unit.label}: incumbent_value {value!r} != direct-inversion {recomputed!r}",
    )

    if unit.kind == "iqp" and unit.window <= DENSE_MAX_QUBITS:
        alpha = params["alpha"]
        model = quack.kernels.KernelModel("iqp", {"alpha": alpha})
        program = quack.kernels.gram(model, train.X)
        c = train.X.shape[1]
        worst = 0.0
        for _ in range(SPOT_PAIRS):
            i, j = (int(v) for v in rng.integers(0, c, size=2))
            a = oracles.dense_state(train.X[:, i], alpha)
            b = a if i == j else oracles.dense_state(train.X[:, j], alpha)
            worst = max(worst, abs(abs(np.vdot(a, b)) ** 2 - program[i, j]))
        gate.check(worst <= GRAM_TOL, f"{unit.label}: Gram entry off the dense oracle by {worst:.3e}")

    _check_predictions(gate, unit)


def gate(command: str, cfg, out: Path, quack, seed: int) -> Gate:
    """Every output check of one pass; units already reported failed are skipped."""
    result = Gate()
    rng = np.random.default_rng(seed)
    failed = reported_failures(command, out)
    for unit in units(command, cfg, out):
        key = unit.kind if command == "compare" else str(unit.window)
        if key in failed or not (unit.path / "tuned.json").is_file():
            continue
        try:
            _check_unit(result, unit, cfg, quack, rng)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run has failed
            result.check(False, f"{unit.label}: check raised {exc!r}")
    if command == "compare":
        table = out / "compare" / "table.csv"
        listed = _read_csv(table)[1] if table.is_file() else []
        kinds = tuple(row[0] for row in listed)
        finite = all(math.isfinite(float(v)) for row in listed for v in row[1:])
        result.check(kinds == KINDS and finite, f"compare table lists {kinds}, finite={finite}")
    else:
        table = out / "ablate" / "ablate.csv"
        listed = _read_csv(table)[1] if table.is_file() else []
        sizes = tuple(int(row[0]) for row in listed)
        finite = all(math.isfinite(float(v)) for row in listed for v in row[1:])
        result.check(
            sizes == tuple(cfg.ablate_qubits) and finite,
            f"ablate table lists {sizes}, finite={finite}",
        )
    return result


def _without_timings(text: str) -> bytes:
    payload = json.loads(text)
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True).encode()


def _without_timestamp(text: str) -> bytes:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines()).encode()


_NUMERIC_FILES = {
    "predictions.csv": str.encode,
    "table.csv": str.encode,
    "flags.csv": str.encode,
    "ablate.csv": str.encode,
    "failures.json": str.encode,
    "trace.csv": _without_timestamp,
    "tuned.json": _without_timings,
    "record.json": _without_timings,
}


def fingerprint(out: Path) -> dict[str, bytes]:
    """Relative path -> the bytes of each numeric file that must repeat."""
    prints = {}
    for path in sorted(out.rglob("*")):
        normalize = _NUMERIC_FILES.get(path.name)
        if normalize is not None and path.is_file():
            prints[str(path.relative_to(out))] = normalize(path.read_text(encoding="utf-8"))
    return prints


def mismatches(first: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    """Files of ``first`` that ``other`` lacks or writes differently."""
    return [name for name, data in first.items() if other.get(name) != data]


@dataclass
class PassOutputs:
    """End-to-end quantities read from one pass's output files."""

    evals: int
    tune_s: float
    predict_s: float
    incumbent_mll: list[float]
    ll_total: list[float]
    mcrps: list[float]
    bytes_written: int


def read_outputs(command: str, cfg, out: Path) -> PassOutputs:
    evals, tune_s, predict_s = 0, 0.0, 0.0
    incumbent, ll_total, mcrps = [], [], []
    for unit in units(command, cfg, out):
        tuned_path = unit.path / "tuned.json"
        record_path = unit.path / "record.json"
        if tuned_path.is_file():
            tuned = json.loads(tuned_path.read_text())
            evals += tuned["n0"] + tuned["n_query"]
            tune_s += tuned["timings"]["tune_s"]
            incumbent.append(tuned["incumbent_value"])
        if record_path.is_file():
            record = json.loads(record_path.read_text())
            predict_s += record["timings"]["predict_s"]
            ll_total.append(record["evaluation"]["ll_total"])
            mcrps.append(record["evaluation"]["mcrps"])
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return PassOutputs(evals, tune_s, predict_s, incumbent, ll_total, mcrps, size)
