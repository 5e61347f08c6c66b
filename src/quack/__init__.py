"""Quantum-kernelized Gaussian process regression for probabilistic
time-series forecasting, with classical baseline kernels, a gradient-free
Bayesian-optimization tuner and a benchmark CLI."""

from .bayesopt import SearchSpace, TuneTrace, log_ei, sobol_init, tune
from .gpr import FittedGpr, GprHyperparams, fit, mll, predict_batch
from .kernels import KernelModel
from .metrics import Evaluation, crps_normal, evaluate_forecast
from .qkernel import IqpParams
from .timeseries import GenSpec, Series, WindowedDataset, generate, make_windows, split, standardize

__version__ = "0.1.0"

__all__ = [
    "SearchSpace",
    "TuneTrace",
    "log_ei",
    "sobol_init",
    "tune",
    "FittedGpr",
    "GprHyperparams",
    "fit",
    "mll",
    "predict_batch",
    "KernelModel",
    "Evaluation",
    "crps_normal",
    "evaluate_forecast",
    "IqpParams",
    "GenSpec",
    "Series",
    "WindowedDataset",
    "generate",
    "make_windows",
    "split",
    "standardize",
    "__version__",
]
