"""The baselines' names under their own module path; :mod:`tkmia.attack` defines them.

This module defines nothing. It keeps these names where the benchmark looks:
``perfbench/spans.py`` and ``perfbench/workloads.py`` patch
``tkmia.baselines.run_baseline`` and the two losses by this name, and its
tracer test looks ``top_k_indices`` up in this namespace.
"""
from .attack import BASELINE_METHODS, BaselineSpec, ml_cw_u_loss, run_baseline, tkml_ap_u_loss
from .core import top_k_indices  # noqa: F401

__all__ = ["BaselineSpec", "ml_cw_u_loss", "tkml_ap_u_loss", "run_baseline", "BASELINE_METHODS"]
