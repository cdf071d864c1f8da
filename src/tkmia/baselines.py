"""Comparison attack losses run through the same iterative engine.

Two untargeted baselines are provided. Both are margin hinges plus the
same perturbation-norm penalty, minimized with the identical momentum
loop as the main attack (no lambda variables):

  ml_cw_u    [ min over relevant f_j - max over irrelevant f_i ]_+
             driving some relevant score below the best irrelevant one
  tkml_ap_u  [ max over relevant f_y - f_(k+1) ]_+
             driving every relevant score below ranking position k

Success is the main attack's rule, counted against the specified label
set: ``delta_threshold`` and ``success_mode`` of the config mean the same
for every method. The hinge terms, the loop, the stopping test and the rule
of which instances each baseline can attack live in :mod:`tkmia.attack`;
the public losses here evaluate the same terms once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .attack import (AttackConfig, AttackOutcome, _hinge_loss, _labels, _ml_cw_u_pair,
                     _tkml_ap_u_pair, attack_preconditions, run_attack_loop)
from .core import Instance, _check_k, _rank
# Unused here; perfbench's tracer test looks top_k_indices up in this namespace.
from .core import top_k_indices  # noqa: F401
from .model import Scorer

__all__ = [
    "BaselineSpec",
    "ml_cw_u_loss",
    "tkml_ap_u_loss",
    "run_baseline",
    "BASELINE_METHODS",
]

BASELINE_METHODS = ("ml_cw_u", "tkml_ap_u")


@dataclass(frozen=True)
class BaselineSpec:
    method: Literal["ml_cw_u", "tkml_ap_u"]
    config: AttackConfig

    def __post_init__(self):
        if self.method not in BASELINE_METHODS:
            raise ValueError(f"unknown baseline method {self.method!r}")


def ml_cw_u_loss(model: Scorer, x, eps, relevant, alpha: float = 0.0):
    """Margin hinge between worst relevant and best irrelevant score.

    Returns (value, gradient w.r.t. eps). Minimizing the value pushes the
    minimum relevant score below the maximum irrelevant score; the
    argmin/argmax pick single elements with ties broken by smallest index.
    """
    c = model.out_dim
    rel = np.array(_labels(relevant, c, "relevant"))
    if len(rel) == c:
        raise ValueError("irrelevant set must be non-empty")
    irr = np.delete(np.arange(c), rel)
    return _hinge_loss(model, x, eps, alpha, lambda scores: _ml_cw_u_pair(scores, rel, irr))


def tkml_ap_u_loss(model: Scorer, x, eps, relevant, k: int, alpha: float = 0.0):
    """Hinge pushing the best relevant score below ranking position k.

    The (k+1)-ranked class is found by the deterministic tie-break sort,
    and the gradient flows through that single class.
    """
    c = model.out_dim
    k = _check_k(k, c - 1)
    rel = np.array(_labels(relevant, c, "relevant"))
    return _hinge_loss(model, x, eps, alpha,
                       lambda scores: _tkml_ap_u_pair(scores, _rank(scores), rel, k))


def run_baseline(model: Scorer, instance: Instance, specified,
                 spec: BaselineSpec) -> AttackOutcome:
    """Attack one instance with a baseline loss.

    Preconditions and success match the main attack: |Yp| >= k + |S|, S
    inside the relevant set, ``delta_threshold`` (default |S|) at most |S|,
    and the stopping test of ``success_mode``. ml_cw_u also needs an
    irrelevant label; tkml_ap_u does not.
    """
    s, rest = attack_preconditions(instance, specified, spec.config, model.out_dim, spec.method)
    return run_attack_loop(model, instance, s, rest, spec.config, spec.method)
