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

from .attack import (AttackConfig, AttackOutcome, _hinge_cot, _ml_cw_u_pair, _tkml_ap_u_pair,
                     attack_preconditions, run_attack_loop)
from .core import Instance, _rank
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


def _relevant(relevant, c: int) -> np.ndarray:
    """A checked relevant label set as a sorted index array."""
    rel = tuple(sorted(int(i) for i in relevant))
    if not rel:
        raise ValueError("relevant set must be non-empty")
    if rel[0] < 0 or rel[-1] >= c:
        raise ValueError(f"label indices outside [0, {c})")
    return np.array(rel)


def _hinge_grad(pullback, scores, hi, lo, eps, alpha: float) -> np.ndarray:
    """The public losses' eps gradient: a flat hinge pulls back zeros."""
    cot = _hinge_cot(scores, hi, lo)
    return pullback(np.zeros(scores.shape[0]) if cot is None else cot) + alpha * eps


def _hinge_value(scores, hi, lo, eps, alpha: float) -> float:
    return max(0.0, float(scores[hi] - scores[lo])) + 0.5 * alpha * float(eps @ eps)


def ml_cw_u_loss(model: Scorer, x, eps, relevant, alpha: float = 0.0):
    """Margin hinge between worst relevant and best irrelevant score.

    Returns (value, gradient w.r.t. eps). Minimizing the value pushes the
    minimum relevant score below the maximum irrelevant score; the
    argmin/argmax pick single elements with ties broken by smallest index.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    rel = _relevant(relevant, model.out_dim)
    irr = sorted(set(range(model.out_dim)) - set(rel.tolist()))
    if not irr:
        raise ValueError("irrelevant set must be non-empty")
    x_adv = x + eps
    scores, pullback = model.vjp(x_adv)
    hi, lo = _ml_cw_u_pair(scores, rel, np.array(irr))
    return (_hinge_value(scores, hi, lo, eps, alpha),
            _hinge_grad(pullback, scores, hi, lo, eps, alpha))


def tkml_ap_u_loss(model: Scorer, x, eps, relevant, k: int, alpha: float = 0.0):
    """Hinge pushing the best relevant score below ranking position k.

    The (k+1)-ranked class is found by the deterministic tie-break sort,
    and the gradient flows through that single class.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    c = model.out_dim
    if not 1 <= k < c:
        raise ValueError(f"k={k} out of range [1, {c - 1}]")
    rel = _relevant(relevant, c)
    x_adv = x + eps
    scores, pullback = model.vjp(x_adv)
    hi, lo = _tkml_ap_u_pair(scores, _rank(scores), rel, k)
    return (_hinge_value(scores, hi, lo, eps, alpha),
            _hinge_grad(pullback, scores, hi, lo, eps, alpha))


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
