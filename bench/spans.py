"""Span tracer that times quack's layers from outside the package.

:meth:`Tracer.install` replaces public module attributes of quack with
timing wrappers and :meth:`Tracer.uninstall` puts the originals back, so
nothing under ``src/`` changes.  Quack's modules call each other through
module attributes (``gpr.fit``, ``kernels.gram``) or module globals
(``fit`` inside ``gpr.mll``), and both are looked up at call time, so a
replaced attribute sees every call made while it is installed.

Spans are aggregated as they close: per name, the call count, the total
time and the self time (duration minus the time covered by child spans).
A pass is single-threaded, so spans nest strictly and one stack holds the
open ones.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a class attribute is written "Class.attr".
# bayesopt.tune also wraps the objective callable it receives, as the span
# "bayesopt.objective".
SPANS = (
    ("qkernel", "embed", "qkernel.embed"),
    ("qkernel", "gram_matrix", "qkernel.gram_matrix"),
    ("qkernel", "cross_gram", "qkernel.cross_gram"),
    ("kernels", "gram", "kernels.gram"),
    ("kernels", "cross", "kernels.cross"),
    ("kernels", "self_diag", "kernels.self_diag"),
    ("gpr", "fit", "gpr.fit"),
    ("gpr", "mll", "gpr.mll"),
    ("gpr", "predict_batch", "gpr.predict_batch"),
    ("bayesopt", "tune", "bayesopt.tune"),
    ("bayesopt", "fit_surrogate", "bayesopt.fit_surrogate"),
    ("bayesopt", "propose_next", "bayesopt.propose_next"),
    ("bayesopt", "Surrogate.posterior_unit", "bayesopt.posterior"),
    ("bayesopt", "minimize", "bayesopt.lbfgs"),
    ("metrics", "evaluate_forecast", "metrics.evaluate_forecast"),
    ("timeseries", "generate", "timeseries.generate"),
    ("timeseries", "standardize", "timeseries.standardize"),
    ("timeseries", "split", "timeseries.split"),
    ("experiments", "run_tune", "experiments.run_tune"),
    ("experiments", "run_predict", "experiments.run_predict"),
)

QKERNEL_SPANS = ("qkernel.embed", "qkernel.gram_matrix", "qkernel.cross_gram")
TIMESERIES_SPANS = ("timeseries.generate", "timeseries.standardize", "timeseries.split")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A wrapped call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs the wrappers, aggregates spans and counters, restores."""

    def __init__(self, quack_modules: dict):
        self._modules = quack_modules
        self._stack: list[list[float]] = []
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._embedded: set = set()
        self._saved: list[tuple[object, str, object]] = []
        self._acquisitions: list[list[int]] = []  # per open propose_next: [starts, failed]
        self._clamps_before = 0

    # -- installing and restoring -------------------------------------------

    def _owner(self, module_name: str, attr: str):
        owner = self._modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        return owner, leaf

    def _clamp_count(self) -> int:
        count = getattr(self._modules["gpr"], "variance_clamp_count", None)
        return count() if count is not None else 0

    def install(self) -> None:
        """Wrap every listed attribute that exists; absent ones report zeros."""
        self._clamps_before = self._clamp_count()
        for module_name, attr, name in SPANS:
            owner, leaf = self._owner(module_name, attr)
            if owner is None or leaf not in vars(owner):
                continue
            original = vars(owner)[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is its original object again."""
        return all(vars(owner)[leaf] is original for owner, leaf, original in self._saved)

    # -- spans ---------------------------------------------------------------

    def _timed(self, name: str, fn, before=None, after=None, failed=None):
        stack = self._stack
        stat = self.spans[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if failed is not None:
                    failed()
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap(self, name: str, fn):
        if name == "bayesopt.tune":
            return self._wrap_tune(fn)
        if name == "bayesopt.propose_next":
            return self._wrap_propose(fn)
        hooks = {
            "qkernel.embed": dict(before=self._on_embed),
            "qkernel.gram_matrix": dict(before=self._on_gram_matrix),
            "qkernel.cross_gram": dict(before=self._on_cross_gram),
            "gpr.fit": dict(after=self._on_fit, failed=self._on_fit_failed),
            "bayesopt.posterior": dict(before=self._on_posterior),
            "bayesopt.lbfgs": dict(
                before=self._on_lbfgs_start, after=self._on_lbfgs_result,
                failed=self._on_lbfgs_failed,
            ),
        }
        return self._timed(name, fn, **hooks.get(name, {}))

    def _wrap_tune(self, tune):
        timed_tune = self._timed("bayesopt.tune", tune)

        @functools.wraps(tune)
        def wrapper(objective, *args, **kwargs):
            return timed_tune(self._timed("bayesopt.objective", objective), *args, **kwargs)

        return wrapper

    def _wrap_propose(self, propose):
        """Counts a fallback when every L-BFGS-B start of one call failed."""
        timed_propose = self._timed("bayesopt.propose_next", propose)

        @functools.wraps(propose)
        def wrapper(*args, **kwargs):
            self._acquisitions.append([0, 0])
            try:
                return timed_propose(*args, **kwargs)
            finally:
                starts, failed = self._acquisitions.pop()
                if starts == failed:
                    self.counts["bayesopt.propose_next.fallbacks"] += 1

        return wrapper

    # -- counters ------------------------------------------------------------

    def _on_embed(self, args, kwargs):
        x, params = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "params")
        self.counts["qkernel.embed.amplitudes"] += 2**params.n
        self._embedded.add((float(params.alpha), np.asarray(x, dtype=float).tobytes()))

    def _on_gram_matrix(self, args, kwargs):
        X, params = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "params")
        c = np.shape(X)[1]
        self.counts["qkernel.overlap.flops_computed"] += 8 * c * c * 2**params.n

    def _on_cross_gram(self, args, kwargs):
        X, X2 = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "X2")
        params = _arg(args, kwargs, 2, "params")
        c, c2 = np.shape(X)[1], np.shape(X2)[1]
        self.counts["qkernel.overlap.flops_computed"] += 8 * c * c2 * 2**params.n

    def _on_fit(self, model):
        ladder = getattr(self._modules["gpr"], "JITTER_LADDER", ())
        jitter = getattr(model, "jitter", None)
        if jitter in ladder:
            self.counts["gpr.fit.jitter_retries"] += ladder.index(jitter)

    def _on_fit_failed(self):
        self.counts["gpr.fit.failures"] += 1

    def _on_posterior(self, args, kwargs):
        points = _arg(args, kwargs, 1, "unit_points")
        self.counts["bayesopt.posterior.points"] += np.atleast_2d(points).shape[0]

    def _on_lbfgs_start(self, args, kwargs):
        self.counts["bayesopt.lbfgs.starts"] += 1
        if self._acquisitions:
            self._acquisitions[-1][0] += 1

    def _on_lbfgs_failed(self):
        self.counts["bayesopt.lbfgs.failed"] += 1
        if self._acquisitions:
            self._acquisitions[-1][1] += 1

    def _on_lbfgs_result(self, result):
        self.counts["bayesopt.lbfgs.nit"] += int(result.nit)
        self.counts["bayesopt.lbfgs.nfev"] += int(result.nfev)
        if not (np.all(np.isfinite(result.x)) and math.isfinite(result.fun)):
            self._on_lbfgs_failed()

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values, named as in BENCHMARK.json's ``per_layer``.

        ``wall_s`` is the traced pass's wall time, the base of the shares.
        """
        s = self.spans
        c = self.counts
        tune_s = s["bayesopt.tune"][1]
        embed_calls = s["qkernel.embed"][0]
        bookkeeping_s = s["bayesopt.fit_surrogate"][1] + s["bayesopt.propose_next"][1]
        # qkernel spans only nest inside each other, so their self times add
        # up to the time spent in qkernel.
        qkernel_s = sum(s[name][2] for name in QKERNEL_SPANS)
        return {
            "qkernel.embed.calls": embed_calls,
            "qkernel.embed.s": s["qkernel.embed"][1],
            "qkernel.embed.amplitudes": c["qkernel.embed.amplitudes"],
            "qkernel.embed.reuse_ratio": len(self._embedded) / max(embed_calls, 1),
            "qkernel.gram_matrix.calls": s["qkernel.gram_matrix"][0],
            "qkernel.gram_matrix.self_s": s["qkernel.gram_matrix"][2],
            "qkernel.cross_gram.self_s": s["qkernel.cross_gram"][2],
            "qkernel.overlap.flops_computed": c["qkernel.overlap.flops_computed"],
            "qkernel.share": qkernel_s / wall_s,
            "kernels.gram.calls": s["kernels.gram"][0],
            "kernels.gram.self_s": s["kernels.gram"][2],
            "kernels.cross.self_s": s["kernels.cross"][2],
            "kernels.self_diag.s": s["kernels.self_diag"][1],
            "gpr.fit.calls": s["gpr.fit"][0],
            "gpr.fit.self_s": s["gpr.fit"][2],
            "gpr.fit.jitter_retries": c["gpr.fit.jitter_retries"],
            "gpr.fit.failures": c["gpr.fit.failures"],
            "gpr.mll.calls": s["gpr.mll"][0],
            "gpr.predict_batch.calls": s["gpr.predict_batch"][0],
            "gpr.predict_batch.self_s": s["gpr.predict_batch"][2],
            "gpr.variance_clamps": self._clamp_count() - self._clamps_before,
            "bayesopt.tune.s": tune_s,
            "bayesopt.objective.calls": s["bayesopt.objective"][0],
            "bayesopt.objective.s": s["bayesopt.objective"][1],
            "bayesopt.objective.share": s["bayesopt.objective"][1] / max(tune_s, 1e-12),
            "bayesopt.bookkeeping.share": bookkeeping_s / max(tune_s, 1e-12),
            "bayesopt.fit_surrogate.s": s["bayesopt.fit_surrogate"][1],
            "bayesopt.fit_surrogate.self_s": s["bayesopt.fit_surrogate"][2],
            "bayesopt.propose_next.s": s["bayesopt.propose_next"][1],
            "bayesopt.propose_next.self_s": s["bayesopt.propose_next"][2],
            "bayesopt.posterior.points": c["bayesopt.posterior.points"],
            "bayesopt.lbfgs.starts": c["bayesopt.lbfgs.starts"],
            "bayesopt.lbfgs.failed": c["bayesopt.lbfgs.failed"],
            "bayesopt.lbfgs.nit": c["bayesopt.lbfgs.nit"],
            "bayesopt.lbfgs.nfev": c["bayesopt.lbfgs.nfev"],
            "bayesopt.propose_next.fallbacks": c["bayesopt.propose_next.fallbacks"],
            "metrics.evaluate_forecast.s": s["metrics.evaluate_forecast"][1],
            "timeseries.s": sum(s[name][1] for name in TIMESERIES_SPANS),
            "experiments.run_tune.self_s": s["experiments.run_tune"][2],
            "experiments.run_predict.self_s": s["experiments.run_predict"][2],
        }
