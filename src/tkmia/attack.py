"""Measure-imperceptible top-k attack: objective, optimizer loop, selection.

The attack pushes a specified subset S of an instance's relevant labels
out of the top-k while pulling the remaining relevant labels up, so the
usual ranking measures barely move. The objective being minimized over
(epsilon, lambda1, lambda2) is

    lambda1 + lambda2 + (alpha/2) ||eps||^2
      + 1/(c-k) * sum_i [ max_{s in S} f_s(x+eps) - f_i(x+eps) - lambda1 ]_+
      + 1/k     * sum_j [ f_j(x+eps) - min_{y in Yp\\S} f_y(x+eps) - lambda2 ]_+

with both lambdas constrained to [0, 1]. The hinge sums are average-top-k
relaxations of the two ranking conditions ("all of S below position k",
"other relevant labels fill the top k"), so no sort appears anywhere in
the gradient path; only the success check ranks scores.

Per iteration the loop runs one forward pass of the scorer at the
projected input (:meth:`Scorer.vjp`) and ranks the scores once; that one
ranking serves the success test, the residual set reported at the end and
the (k+1)-th class of the tkml_ap_u baseline. Each loss is a function of
the score vector: a method's step maps (scores, ranking) to the score
cotangent, and the forward pass's pullback turns that cotangent into the
epsilon gradient. The loop then takes plain gradient steps on the lambdas
(projected back to [0, 1]), a momentum gradient step on epsilon, projects
x+eps into the clip domain, and stops early once the success condition
holds. Distinct instances never share state, so attacks parallelize freely
over instances with a read-only scorer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .core import Instance, rank_order, top_k_indices
from .model import Scorer

__all__ = [
    "AttackConfig",
    "AttackOutcome",
    "GlobalScheme",
    "RandomScheme",
    "tkmia_objective",
    "success_check",
    "tkmia_attack",
    "select_global",
    "select_random",
    "filter_instances",
]


@dataclass(frozen=True)
class GlobalScheme:
    """Specify the same category list for every instance (scheme S1)."""

    categories: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(int(i) for i in self.categories))
        if not self.categories:
            raise ValueError("category set must be non-empty")


@dataclass(frozen=True)
class RandomScheme:
    """Specify m randomly drawn relevant labels per instance (scheme S2)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")


@dataclass
class AttackConfig:
    """Hyperparameters shared by the attack and the baseline losses.

    ``delta_threshold`` is the minimum number of expelled specified labels
    for a baseline run to count as successful; None means "all of S".
    ``success_mode`` picks the stopping condition: ``c1_only`` stops once
    every specified label ranks below position k, ``strict`` additionally
    requires the k-th score to be at most the lowest remaining-relevant
    score.
    """

    k: int
    eta: float
    alpha: float = 0.0
    momentum: float = 0.9
    max_iter: int = 300
    success_mode: Literal["c1_only", "strict"] = "c1_only"
    delta_threshold: int | None = None
    clip_domain: tuple[float, float] = (-1.0, 1.0)
    scheme: GlobalScheme | RandomScheme | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.success_mode not in ("c1_only", "strict"):
            raise ValueError(f"unknown success mode {self.success_mode!r}")
        if self.delta_threshold is not None and self.delta_threshold < 1:
            raise ValueError("delta threshold must be positive")
        lo, hi = self.clip_domain
        if not lo < hi:
            raise ValueError("clip domain must satisfy lo < hi")
        if isinstance(self.scheme, RandomScheme) and self.scheme.m > self.k:
            raise ValueError("random scheme requires m <= k")


@dataclass
class AttackOutcome:
    """Result of one attack run on one instance.

    ``residual`` holds the specified labels still ranked in the top k
    after the attack. ``scores_before`` and ``scores_after`` are the
    victim's scores at x and at the final projected x + epsilon.
    """

    method: str
    epsilon: np.ndarray
    iterations_used: int
    success: bool
    specified: tuple[int, ...]
    residual: tuple[int, ...]
    lambda1: float
    lambda2: float
    scores_before: np.ndarray
    scores_after: np.ndarray

    @property
    def epsilon_norm(self) -> float:
        return float(np.linalg.norm(self.epsilon))

    @property
    def expelled(self) -> int:
        return len(self.specified) - len(self.residual)

    def to_record(self, **extra) -> dict:
        """Flat dict for line-delimited JSON serialization."""
        record = {
            "method": self.method,
            "success": self.success,
            "iterations_used": self.iterations_used,
            "specified": list(self.specified),
            "residual": list(self.residual),
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "epsilon_norm": self.epsilon_norm,
            "epsilon": self.epsilon.tolist(),
            "scores_before": self.scores_before.tolist(),
            "scores_after": self.scores_after.tolist(),
        }
        record.update(extra)
        return record


def _split_sets(specified, relevant, c: int):
    spec = tuple(sorted(int(i) for i in specified))
    rel = tuple(sorted(int(i) for i in relevant))
    if not spec:
        raise ValueError("specified set must be non-empty")
    if len(set(spec)) < len(spec):
        raise ValueError(f"specified set {list(spec)} repeats a label")
    if any(i < 0 or i >= c for i in spec) or any(i < 0 or i >= c for i in rel):
        raise ValueError(f"label indices outside [0, {c})")
    if not set(spec) <= set(rel):
        raise ValueError("specified set must be a subset of the relevant labels")
    rest = tuple(sorted(set(rel) - set(spec)))
    if not rest:
        raise ValueError("no relevant labels left outside the specified set")
    return spec, rest


def attack_preconditions(instance: Instance, specified, k: int, c: int):
    """Checked S and Yp \\ S for one attack run, shared by every method.

    S must be a non-empty subset, without repeats, of the instance's
    relevant labels Yp; the instance must have the victim's c classes and
    pass the filter |Yp| >= k + |S|.
    """
    if instance.n_classes != c:
        raise ValueError(f"instance has {instance.n_classes} classes, but the victim scores {c}")
    relevant = instance.relevant
    spec, rest = _split_sets(specified, relevant, c)
    if len(relevant) < k + len(spec):
        raise ValueError(
            f"instance filter violated: |Yp|={len(relevant)} < k+|S|={k + len(spec)}"
        )
    return spec, rest


def _gaps(scores, spec, rest):
    """Per-class gaps before the hinge: ``f_smax - f_i`` and ``f_j - f_ymin``.

    ``spec`` and ``rest`` are index arrays of S and Yp \\ S. ``smax`` is
    the best-scored label of S and ``ymin`` the worst-scored label of
    Yp \\ S, ties broken by smallest index.
    """
    s_max = spec[scores[spec].argmax()]
    y_min = rest[scores[rest].argmin()]
    return s_max, y_min, scores[s_max] - scores, scores - scores[y_min]


def _tkmia_terms(scores, lam1: float, lam2: float, spec, rest, k: int):
    """Score cotangent and lambda gradients of the objective at ``scores``.

    ``spec`` and ``rest`` are index arrays of the checked label sets from
    :func:`_split_sets`; pulling the cotangent back through the scorer and
    adding ``alpha * eps`` gives the gradient with respect to eps.
    """
    c = scores.shape[0]
    s_max, y_min, delta, delta_tilde = _gaps(scores, spec, rest)
    active1 = delta - lam1 > 0.0
    active2 = delta_tilde - lam2 > 0.0
    n1 = int(active1.sum())
    n2 = int(active2.sum())

    cot = np.zeros(c)
    cot[s_max] += n1 / (c - k)
    cot[active1] -= 1.0 / (c - k)
    cot[active2] += 1.0 / k
    cot[y_min] -= n2 / k
    return cot, 1.0 - n1 / (c - k), 1.0 - n2 / k


def tkmia_objective(model: Scorer, x, eps, lam1: float, lam2: float,
                    specified, relevant, config: AttackConfig):
    """Objective value and its gradients with respect to (eps, lam1, lam2).

    Subgradients of the max/min over label sets follow the single
    argmax/argmin element, ties broken by smallest index; hinge
    subgradients are 0 at the kink. ``x + eps`` is assumed already inside
    the clip domain.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    c = model.out_dim
    k = config.k
    if not 1 <= k < c:
        raise ValueError(f"k={k} out of range [1, {c - 1}] for the objective")
    if not (0.0 <= lam1 <= 1.0 and 0.0 <= lam2 <= 1.0):
        raise ValueError("lambdas must lie in [0, 1]")
    spec, rest = _split_sets(specified, relevant, c)
    spec, rest = np.array(spec), np.array(rest)
    x_adv = x + eps
    scores, pullback = model.vjp(x_adv)
    _, _, delta, delta_tilde = _gaps(scores, spec, rest)
    gaps1 = delta - lam1
    gaps2 = delta_tilde - lam2
    value = (lam1 + lam2 + 0.5 * config.alpha * float(eps @ eps)
             + float(gaps1[gaps1 > 0.0].sum()) / (c - k)
             + float(gaps2[gaps2 > 0.0].sum()) / k)
    cot, grad_lam1, grad_lam2 = _tkmia_terms(scores, lam1, lam2, spec, rest, k)
    grad_eps = pullback(cot) + config.alpha * eps
    return value, grad_eps, grad_lam1, grad_lam2


def _ranked_in(top, labels) -> tuple[int, ...]:
    """The members of ``labels`` found in ``top``, a top-k index array."""
    top = top.tolist()
    return tuple(i for i in labels if i in top)


def _tkmia_success(scores, order, k: int, residual, rest, mode) -> bool:
    """The success condition read from a ranking of ``scores``.

    ``order`` holds at least the first k classes of the ranking,
    ``residual`` the specified labels among them and ``rest`` an index
    array of the checked remaining-relevant set.
    """
    if residual:
        return False
    if mode == "c1_only":
        return True
    return float(scores[order[k - 1]]) <= float(scores[rest].min())


def success_check(scores, specified, relevant, k: int,
                  mode: Literal["c1_only", "strict"] = "c1_only") -> bool:
    """Whether the attack conditions hold for a score vector.

    ``c1_only``: every specified label ranks strictly below position k
    (equivalently the (k+1)-th score is at least the best specified score,
    read through the deterministic index tie-break). ``strict``
    additionally requires the k-th score to be at most the minimum score
    over relevant labels outside the specified set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    c = scores.shape[0]
    if k >= c:
        raise ValueError(f"k={k} must be smaller than c={c}")
    spec, rest = _split_sets(specified, relevant, c)
    if mode not in ("c1_only", "strict"):
        raise ValueError(f"unknown success mode {mode!r}")
    top = top_k_indices(scores, k)
    return _tkmia_success(scores, top, k, _ranked_in(top, spec), np.array(rest), mode)


def residual_set(scores, specified, k: int) -> tuple[int, ...]:
    """Specified labels still ranked inside the top k."""
    return _ranked_in(top_k_indices(scores, k), specified)


def run_attack_loop(model: Scorer, instance: Instance, specified,
                    config: AttackConfig, method: str,
                    step_fn: Callable, success_fn: Callable) -> AttackOutcome:
    """Shared iterative engine for the attack and the baseline losses.

    Each iteration runs one forward pass at the projected input ``x_adv``,
    ``scores, pullback = model.vjp(x_adv)``, and ranks the scores once
    with :func:`rank_order`, giving ``order``. The ``residual`` (specified
    labels inside the first k of ``order``) comes from that ranking, and
    ``success_fn(scores, order, residual) -> bool`` is the stopping test.
    While it fails and budget remains, ``step_fn(scores, order) ->
    cotangent`` gives the loss's score cotangent at ``x_adv`` from the same
    scores and may advance its own auxiliary state; the loop turns the
    cotangent into the epsilon gradient with one ``pullback(cotangent)``
    plus ``config.alpha * eps``. No loss value is computed. The loop
    evaluates success before any update, so an instance that already
    satisfies it returns epsilon exactly 0 after zero iterations.
    """
    k = config.k
    c = model.out_dim
    if not 1 <= k < c:
        raise ValueError(f"k={k} out of range [1, {c - 1}]")
    lo, hi = config.clip_domain
    alpha, eta, momentum, max_iter = config.alpha, config.eta, config.momentum, config.max_iter
    spec = tuple(sorted(int(i) for i in specified))
    x = instance.x
    eps = np.zeros_like(x)
    velocity = np.zeros_like(x)
    success = False

    for it in range(max_iter + 1):
        x_adv = np.minimum(np.maximum(x + eps, lo), hi)
        scores, pullback = model.vjp(x_adv)
        order = rank_order(scores)
        residual = _ranked_in(order[:k], spec)
        if it == 0:
            scores_before = scores.copy()
        if success_fn(scores, order, residual):
            success = True
            break
        if it == max_iter:
            break
        grad_eps = pullback(step_fn(scores, order)) + alpha * eps
        if not np.isfinite(grad_eps).all():
            raise FloatingPointError(f"non-finite gradient at iteration {it}")
        velocity = momentum * velocity + grad_eps
        eps = eps - eta * velocity
        # Keep eps consistent with the projected adversarial input so the
        # reported norm reflects the perturbation actually applied.
        eps = np.minimum(np.maximum(x + eps, lo), hi) - x

    return AttackOutcome(
        method=method,
        epsilon=eps,
        iterations_used=it,
        success=success,
        specified=spec,
        residual=residual,
        lambda1=0.0,
        lambda2=0.0,
        scores_before=scores_before,
        scores_after=scores,
    )


def tkmia_attack(model: Scorer, instance: Instance, specified,
                 config: AttackConfig) -> AttackOutcome:
    """Run the measure-imperceptible attack on one instance.

    Requires the instance filter |Yp| >= k + |S| and S a subset of the
    relevant labels. Both lambdas start at 0 (every hinge active, maximal
    gradient signal) and take plain projected gradient steps with the same
    step size as epsilon; momentum applies to epsilon only.
    """
    spec, rest = attack_preconditions(instance, specified, config.k, model.out_dim)
    spec_idx, rest_idx = np.array(spec), np.array(rest)
    k, eta, mode = config.k, config.eta, config.success_mode
    lam = [0.0, 0.0]

    def step(scores, order):
        cot, g1, g2 = _tkmia_terms(scores, lam[0], lam[1], spec_idx, rest_idx, k)
        if not (math.isfinite(g1) and math.isfinite(g2)):
            raise FloatingPointError("non-finite lambda gradient")
        lam[0] = min(max(lam[0] - eta * g1, 0.0), 1.0)
        lam[1] = min(max(lam[1] - eta * g2, 0.0), 1.0)
        return cot

    def succeeded(scores, order, residual):
        return _tkmia_success(scores, order, k, residual, rest_idx, mode)

    outcome = run_attack_loop(model, instance, spec, config, "tkmia", step, succeeded)
    return replace(outcome, lambda1=lam[0], lambda2=lam[1])


def select_global(dataset: Sequence[Instance], categories) -> list[tuple[int, tuple[int, ...]]]:
    """Per-instance specified sets under the global selection scheme.

    Returns (dataset index, S) pairs with S the intersection of the
    instance's relevant labels and the category list; instances with an
    empty intersection are not attackable and are dropped.
    """
    cats = set(int(i) for i in categories)
    if not cats:
        raise ValueError("category set must be non-empty")
    selected = []
    for idx, inst in enumerate(dataset):
        overlap = tuple(sorted(cats & set(inst.relevant)))
        if overlap:
            selected.append((idx, overlap))
    return selected


def select_random(instance: Instance, m: int, seed) -> tuple[int, ...]:
    """Uniform sample of m relevant labels, deterministic under the seed."""
    relevant = instance.relevant
    if not 0 < m <= len(relevant):
        raise ValueError(f"m={m} out of range (0, {len(relevant)}]")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(relevant), size=m, replace=False)
    return tuple(sorted(relevant[i] for i in picked))


def filter_instances(dataset: Sequence[Instance], k: int, s_size: int) -> list[int]:
    """Indices of instances with at least k + s_size relevant labels."""
    return [i for i, inst in enumerate(dataset) if len(inst.relevant) >= k + s_size]
