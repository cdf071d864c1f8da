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

The two untargeted baselines are margin hinges plus the same penalty and
no lambdas: ml_cw_u minimizes [ min_{j in Yp} f_j - max_{i notin Yp} f_i ]_+
(some relevant score below the best irrelevant one), and tkml_ap_u
[ max_{y in Yp} f_y - f_(k+1) ]_+ (every relevant score below position k).

Every method runs through one loop, :func:`run_attack_loop`, which takes
the method by name, checks its whole input once, and per iteration runs one
unchecked forward pass of the scorer at the projected input
(:meth:`Scorer._vjp`) and ranks the scores once;
that ranking serves the stopping test and the (k+1)-th class of the
tkml_ap_u baseline, and the last one gives the outcome's residual set. A
report's iteration 0 reads its cell's clean row (``clean_scores``) instead,
and runs the forward pass only if the attack goes on, for its pullback.
The method's terms map the scores to a score cotangent, which the forward
pass's pullback turns into the epsilon gradient; a flat loss (every hinge
inactive) gives None and no pullback, since the pullback of a zero
cotangent depends only on the scorer's weights and is computed once per
attack. The loop steps tkmia's lambdas
(projected back to [0, 1]) and epsilon (with momentum), projects x+eps
into the clip domain, and stops once enough specified labels have left
the top k, or at a fixed point: an update that changes no bit of the state.
A baseline's flat update reads no score, so :func:`_flat_run` makes a flat
stretch's updates outside the loop and scores them in stacked chunks of 1, 2,
4, ... rows, at most 256, up to the iteration at which the loop resumes.
One function, :func:`_advance`, makes every update in place: the loop's
into one of two preallocated (eps, velocity, gradient) triples that it
writes in turn, and a chunk's into its rows, one after another.
What each method can attack is one rule, :func:`ineligible`.
Distinct instances never share state, so attacks parallelize freely over
instances with a read-only scorer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .core import Dataset, Instance, _check_k, _integer, _rank, top_k_indices
from .model import Scorer

__all__ = [
    "METHODS",
    "BASELINE_METHODS",
    "AttackConfig",
    "AttackOutcome",
    "RECORD_KEYS",
    "BaselineSpec",
    "SUCCESS_MODES",
    "GlobalScheme",
    "RandomScheme",
    "tkmia_objective",
    "success_check",
    "ineligible",
    "tkmia_attack",
    "ml_cw_u_loss",
    "tkml_ap_u_loss",
    "run_baseline",
    "select_global",
    "select_random",
    "filter_instances",
]


METHODS = ("tkmia", "ml_cw_u", "tkml_ap_u")
BASELINE_METHODS = METHODS[1:]
SUCCESS_MODES = ("c1_only", "strict")


def _integers(labels, name: str) -> tuple[int, ...]:
    """Non-empty ``labels``, each an int by :func:`tkmia.core._integer`'s rule."""
    out = tuple(_integer(i, f"{name} set has a non-integer label") for i in labels)
    if not out:
        raise ValueError(f"{name} set must be non-empty")
    return out


@dataclass(frozen=True)
class GlobalScheme:
    """Specify the same category list for every instance (scheme S1)."""

    categories: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", _integers(self.categories, "category"))


@dataclass(frozen=True)
class RandomScheme:
    """Specify m randomly drawn relevant labels per instance (scheme S2)."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m must be an integer, got"))
        if self.m < 1:
            raise ValueError("m must be positive")


@dataclass(frozen=True)
class AttackConfig:
    """Hyperparameters shared by the attack and the baseline losses.

    ``delta_threshold`` and ``success_mode`` define success for every method:
    at least ``delta_threshold`` specified labels out of the top k (None: all
    of S), and under ``strict`` also the k-th score at most the lowest
    remaining-relevant score (``c1_only`` needs only the count). Frozen, so
    that the cached :attr:`coefs` stay valid.
    """

    k: int
    eta: float
    alpha: float = 0.0
    momentum: float = 0.9
    max_iter: int = 300
    success_mode: str = "c1_only"
    delta_threshold: int | None = None
    clip_domain: tuple[float, float] = (-1.0, 1.0)
    scheme: GlobalScheme | RandomScheme | None = None

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "k must be an integer, got"))
        object.__setattr__(self, "max_iter",
                           _integer(self.max_iter, "max_iter must be an integer, got"))
        if self.delta_threshold is not None:
            object.__setattr__(self, "delta_threshold", _integer(
                self.delta_threshold, "delta threshold must be an integer, got"))
        # json.load reads NaN and Infinity, which pass the range tests below.
        for name, value in (("eta", self.eta), ("alpha", self.alpha),
                            ("clip domain", self.clip_domain)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        if self.success_mode not in SUCCESS_MODES:
            raise ValueError(f"unknown success mode {self.success_mode!r}")
        if self.delta_threshold is not None and self.delta_threshold < 1:
            raise ValueError("delta threshold must be positive")
        lo, hi = self.clip_domain
        if not lo < hi:
            raise ValueError("clip domain must satisfy lo < hi")
        if isinstance(self.scheme, RandomScheme) and self.scheme.m > self.k:
            raise ValueError("random scheme requires m <= k")

    @cached_property
    def coefs(self) -> tuple[np.ndarray, ...]:
        """alpha, momentum, eta and the clip bounds as 0-d arrays, :func:`_advance`'s
        ``coefs``: built once per config, not once per attack."""
        return tuple(np.array(c) for c in (self.alpha, self.momentum, self.eta,
                                           *self.clip_domain))


@dataclass(frozen=True)
class BaselineSpec:
    method: Literal["ml_cw_u", "tkml_ap_u"]
    config: AttackConfig

    def __post_init__(self):
        if self.method not in BASELINE_METHODS:
            raise ValueError(f"unknown baseline method {self.method!r}")


# The keys of an outcome record, in order: AttackOutcome.to_record, the record's
# definition, and harness.OutcomeLines, whose lines add the instance, k and
# measure sets after them, both use this list.
RECORD_KEYS = ("method", "success", "iterations_used", "specified", "residual", "lambda1",
               "lambda2", "epsilon_norm", "epsilon", "scores_before", "scores_after")


@dataclass
class AttackOutcome:
    """Result of one attack run on one instance.

    ``residual`` holds the specified labels still ranked in the top k
    after the attack. ``scores_before`` and ``scores_after`` are the
    victim's scores at x and at the final projected x + epsilon; for an
    attack that ends at iteration 0 they are one array.

    The last three fields are :func:`run_attack_loop`'s accounting, which
    the record does not hold: ``forward_passes``, its ``Scorer._vjp`` calls
    plus the rows of its stacked ``Scorer._scores`` calls; ``pullbacks``,
    the pullbacks it ran, its one pullback of zeros included; and ``stop``,
    why it ended: ``success``, ``budget`` or ``fixed_point``. They are None
    on an outcome made elsewhere.
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
    forward_passes: int | None = None
    pullbacks: int | None = None
    stop: Literal["success", "budget", "fixed_point"] | None = None

    @property
    def epsilon_norm(self) -> float:
        return float(np.linalg.norm(self.epsilon))

    def to_record(self, **extra) -> dict:
        """Flat dict for line-delimited JSON serialization: RECORD_KEYS, then
        ``extra``. No command writes it: each outcome line, which
        :class:`tkmia.harness.OutcomeLines` writes for reports and ``tkmia
        attack``, equals its dump with the instance, k and the two measure
        sets, and the tests dump it as that line's reference."""
        record = dict(zip(RECORD_KEYS, (
            self.method, self.success, self.iterations_used, list(self.specified),
            list(self.residual), self.lambda1, self.lambda2, self.epsilon_norm,
            self.epsilon.tolist(), self.scores_before.tolist(), self.scores_after.tolist(),
        ), strict=True))
        record.update(extra)
        return record


def _labels(labels, c: int, name: str) -> tuple[int, ...]:
    """The one label-set check: ``labels`` as :func:`_integers` takes them, sorted,
    without repeats and inside [0, c); ``name`` names the set in the error."""
    out = tuple(sorted(_integers(labels, name)))
    if out[0] < 0 or out[-1] >= c:
        raise ValueError(f"{name} set {list(out)} has a label outside [0, {c})")
    if len(set(out)) < len(out):
        raise ValueError(f"{name} set {list(out)} repeats a label")
    return out


def _split_sets(specified, relevant, c: int):
    """Checked S and Yp \\ S: two :func:`_labels` sets, then :func:`_rest`."""
    spec = _labels(specified, c, "specified")
    return spec, _rest(spec, _labels(relevant, c, "relevant"))


def _rest(spec, rel) -> tuple[int, ...]:
    """Yp \\ S, ascending, of two checked sets: S must lie inside Yp and leave Yp \\ S non-empty."""
    if not set(spec) <= set(rel):
        raise ValueError("specified set must be a subset of the relevant labels")
    rest = tuple(i for i in rel if i not in spec)
    if not rest:
        raise ValueError("no relevant labels left outside the specified set")
    return rest


def ineligible(instance: Instance, s_size: int, k: int, method: str,
               delta: int | None) -> str | None:
    """Why ``method`` cannot attack ``instance`` with |S| = ``s_size`` at k,
    or None: the one rule of what each method can attack.

    Every method needs |Yp| >= k + |S| and ``delta`` (the success threshold,
    None for all of S) at most |S|; ml_cw_u also needs an irrelevant label.
    """
    n_relevant = len(instance.relevant)
    if n_relevant < k + s_size:
        return f"instance filter violated: |Yp|={n_relevant} < k+|S|={k + s_size}"
    if delta is not None and delta > s_size:
        return f"delta threshold {delta} exceeds |S|={s_size}"
    if method == "ml_cw_u" and n_relevant == instance.n_classes:
        return "irrelevant set must be non-empty"
    return None


def _extremes(vals, spec, rest) -> tuple[int, int]:
    """``s_max``, the best-scored label of S, and ``y_min``, the worst-scored label
    of Yp \\ S, in ``vals``, a list of scores; ties go to the smallest index, since
    ``spec`` and ``rest`` (the checked sets of :func:`_split_sets`) ascend."""
    return max(spec, key=vals.__getitem__), min(rest, key=vals.__getitem__)


def _tkmia_terms(vals, lam1: float, lam2: float, spec, rest, k: int):
    """Score cotangent and lambda gradients of the objective at the scores ``vals``.

    ``vals`` is the score vector as a list of floats, and ``spec`` and ``rest``
    are the checked label sets of :func:`_split_sets`; pulling the cotangent
    back through the scorer and adding ``alpha * eps`` gives the gradient with
    respect to eps. The cotangent is None when no hinge is active (n1 = n2 =
    0): it would be zero. Python floats round as float64 does, so one pass over
    the list gives the bytes of the same arithmetic on arrays, in less time at
    these sizes.
    """
    c = len(vals)
    s_max, y_min = _extremes(vals, spec, rest)
    top, bottom = vals[s_max], vals[y_min]
    w1, w2 = 1.0 / (c - k), 1.0 / k
    # Python ints, so that the lambda gradients below and the lambdas are floats.
    n1 = n2 = 0
    cot = []
    for v in vals:
        # The hinges' activity, ``gap - lam > 0``, as ``gap > lam``: for finite doubles
        # with gradual underflow, fl(a - b) > 0 exactly when a > b.
        active1 = top - v > lam1
        active2 = v - bottom > lam2
        n1 += active1
        n2 += active2
        cot.append(active2 * w2 - active1 * w1)
    if n1 == n2 == 0:
        return None, 1.0, 1.0
    # s_max is never active in the first hinge, nor y_min in the second (gap 0, lambda >= 0),
    # so each entry has at most two non-zero terms and the bytes of zeros and the four
    # updates in turn.
    cot[s_max] += n1 / (c - k)
    cot[y_min] -= n2 / k
    return np.array(cot), 1.0 - n1 / (c - k), 1.0 - n2 / k


def _ml_cw_u_pair(scores, rel, irr):
    """ml_cw_u's hinge classes per score row: the worst relevant, the best irrelevant."""
    return rel[scores[..., rel].argmin(-1)], irr[scores[..., irr].argmax(-1)]


def _tkml_ap_u_pair(scores, order, rel, k: int):
    """tkml_ap_u's hinge classes per score row: the best relevant, the (k+1)-th in ``order``."""
    return rel[scores[..., rel].argmax(-1)], order[..., k]


def _hinge_cot(scores, hi, lo):
    """Score cotangent of the margin hinge ``[f_hi - f_lo]_+``; None where the
    hinge is flat, for :func:`run_attack_loop` to skip the pullback."""
    if not scores[hi] - scores[lo] > 0.0:
        return None
    cot = np.zeros(scores.shape[0])
    cot[hi] += 1.0
    cot[lo] -= 1.0
    return cot


def _hinge_loss(model: Scorer, x, eps, alpha: float, pair):
    """Value and eps gradient at ``x + eps`` of the margin hinge on the classes
    ``pair(scores)`` plus ``(alpha/2) ||eps||^2``; a flat hinge pulls back zeros."""
    eps = np.asarray(eps, dtype=np.float64)
    scores, pullback = model.vjp(np.asarray(x, dtype=np.float64) + eps)
    hi, lo = pair(scores)
    cot = _hinge_cot(scores, hi, lo)
    value = max(0.0, float(scores[hi] - scores[lo])) + 0.5 * alpha * float(eps @ eps)
    return value, pullback(np.zeros(scores.shape[0]) if cot is None else cot) + alpha * eps


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
    k = _check_k(config.k, c - 1)
    if not (0.0 <= lam1 <= 1.0 and 0.0 <= lam2 <= 1.0):
        raise ValueError("lambdas must lie in [0, 1]")
    spec, rest = _split_sets(specified, relevant, c)
    x_adv = x + eps
    scores, pullback = model.vjp(x_adv)
    vals = scores.tolist()
    s_max, y_min = _extremes(vals, spec, rest)
    gaps1 = scores[s_max] - scores - lam1
    gaps2 = scores - scores[y_min] - lam2
    value = (lam1 + lam2 + 0.5 * config.alpha * float(eps @ eps)
             + float(gaps1[gaps1 > 0.0].sum()) / (c - k)
             + float(gaps2[gaps2 > 0.0].sum()) / k)
    cot, grad_lam1, grad_lam2 = _tkmia_terms(vals, lam1, lam2, spec, rest, k)
    grad_eps = pullback(np.zeros(c) if cot is None else cot) + config.alpha * eps
    return value, grad_eps, grad_lam1, grad_lam2


def _ranked_in(top, labels) -> tuple[int, ...]:
    """The members of ``labels`` found in ``top``, a top-k index array."""
    top = top.tolist()
    return tuple(i for i in labels if i in top)


def _succeeded(scores, order, k: int, expelled: int, delta: int, rest, strict: bool) -> bool:
    """The stopping test: at least ``delta`` specified labels ``expelled``
    from the first k of ``order``, a ranking of ``scores``; ``strict`` also
    needs the k-th score at most the lowest over ``rest`` (Yp \\ S)."""
    if expelled < delta:
        return False
    return not strict or float(scores[order[k - 1]]) <= float(scores[rest].min())


def success_check(scores, specified, relevant, k: int, mode: str = "c1_only") -> bool:
    """Whether the attack conditions hold for a score vector.

    ``c1_only``: every specified label ranks strictly below position k
    (equivalently the (k+1)-th score is at least the best specified score,
    read through the deterministic index tie-break). ``strict``
    additionally requires the k-th score to be at most the minimum score
    over relevant labels outside the specified set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    c = scores.shape[0]
    k = _check_k(k, c - 1)
    spec, rest = _split_sets(specified, relevant, c)
    if mode not in SUCCESS_MODES:
        raise ValueError(f"unknown success mode {mode!r}")
    top = top_k_indices(scores, k)
    expelled = len(spec) - len(_ranked_in(top, spec))
    return _succeeded(scores, top, k, expelled, len(spec), np.array(rest), mode == "strict")


def residual_set(scores, specified, k: int) -> tuple[int, ...]:
    """Specified labels still ranked inside the top k, ascending."""
    top = top_k_indices(scores, k)
    return _ranked_in(top, _labels(specified, len(scores), "specified"))


def _advance(x, eps, velocity, rows, pulled, coefs) -> None:
    """The update by ``pulled``, a score cotangent's pullback, unchecked, from (``eps``,
    ``velocity``) through ``rows``: each (eps, velocity, gradient) triple of arrays that
    ``rows`` yields is written with the update of the state before it. An update is the
    gradient ``pulled + alpha * eps``, the momentum step and the projection into the clip
    domain, one operation at a time into the triple. The loop's update is the case of one
    triple; a flat stretch's chunk yields its rows in turn. ``coefs`` holds alpha, momentum,
    eta and the clip bounds; ufuncs take them fastest as 0-d arrays, and ``out`` fastest by
    position, which np.maximum and np.minimum do not allow."""
    alpha, momentum, eta, lo, hi = coefs
    add, multiply, subtract = np.add, np.multiply, np.subtract
    for new_eps, new_velocity, grad in rows:
        add(pulled, multiply(alpha, eps, grad), grad)
        add(multiply(momentum, velocity, new_velocity), grad, new_velocity)
        subtract(eps, multiply(eta, new_velocity, new_eps), new_eps)
        # Keep eps consistent with the projected adversarial input so the
        # reported norm reflects the perturbation actually applied.
        np.maximum(add(x, new_eps, new_eps), lo, out=new_eps)
        subtract(np.minimum(new_eps, hi, out=new_eps), x, new_eps)
        eps, velocity = new_eps, new_velocity


def _same_state(before, after) -> bool:
    """The fixed-point test: two (eps, velocity, lambda1, lambda2) states bitwise equal,
    signed zeros included; eps first, so an update that moves it pays one comparison."""
    return (after[0].tobytes() == before[0].tobytes() and after[1].tobytes() == before[1].tobytes()
            and after[2].hex() == before[2].hex() and after[3].hex() == before[3].hex())


def _flat_exits(scores, order, k: int, spec, delta: int, rest, strict: bool, pair):
    """Which rows of stacked ``scores``, ranked by ``order``, end a flat stretch: those
    that succeed by :func:`_succeeded`'s rule or whose hinge on ``pair(scores, order)``
    is active by :func:`_hinge_cot`'s. Both are exact comparisons, so on rows with the
    bytes of the loop's scores they agree with the loop's tests, ties included."""
    rows = np.arange(scores.shape[0])
    success = spec.size - np.count_nonzero(order[:, :k, None] == spec, axis=(1, 2)) >= delta
    if strict:
        success &= scores[rows, order[:, k - 1]] <= scores[:, rest].min(axis=1)
    hi, lo = pair(scores, order)
    return success | (scores[rows, hi] - scores[rows, lo] > 0.0)


_MAX_CHUNK = 256  # a flat chunk's most iterations; a 300-iteration budget needs no more


def _flat_run(model: Scorer, x, eps, velocity, it: int, zero_pull, coefs, max_iter: int,
              tests):
    """Fast-forward a baseline's flat stretch from iteration ``it``, at state (eps, velocity).

    Each chunk of 1, 2, 4, ... iterations, at most :data:`_MAX_CHUNK`, fills its rows in
    place by the loop's flat update (:func:`_advance` by ``zero_pull``, which reads no
    score, over the chunk's rows in turn), cuts them at the first update that would stop
    the loop (a non-finite gradient or no bit of the state changed), then scores them with
    one stacked forward pass (:meth:`Scorer._scores`) and one ranking, and tests them by
    :func:`_flat_exits` with ``tests``. A chunk in which an update meets a floating-point
    error that the caller's ``np.errstate`` does not ignore ends the stretch at its first
    row, unscored. Returns (iteration, eps, velocity, rows scored) at the first iteration
    that succeeds, has an active hinge, is cut, starts such a chunk or is ``max_iter``;
    the loop resumes there. Doubling scores in vain at most about the rows it skips.
    """
    lo, hi = coefs[3:]
    errors = {kind: "raise" if mode != "ignore" else mode for kind, mode in np.geterr().items()}
    size, scored = 1, 0
    while True:
        n = min(size, max_iter - it)
        # Row j of each: eps and velocity of iteration it + j, and the gradient that gave them.
        E, V, G = np.empty((3, n + 1, x.shape[0]))
        E[0], V[0] = eps, velocity
        try:
            with np.errstate(**errors):
                _advance(x, eps, velocity, zip(E[1:], V[1:], G[1:]), zero_pull, coefs)
        except FloatingPointError:  # the loop runs this iteration under the caller's errstate
            return it, eps, velocity, scored
        # int64 bits compare as :func:`_same_state`'s bytes do: +0.0 and -0.0 differ.
        e_bits, v_bits = E.view(np.int64), V.view(np.int64)
        stuck = (e_bits[1:] == e_bits[:-1]).all(1) & (v_bits[1:] == v_bits[:-1]).all(1)
        bad = stuck | ~np.isfinite(G[1:]).all(1)
        cut = int(bad.argmax()) if bad.any() else n  # a Python int, as ``it`` is
        if cut:
            scores = model._scores(np.minimum(np.maximum(x + E[:cut], lo), hi))
            scored += cut
            hit = np.flatnonzero(_flat_exits(scores, _rank(scores), *tests))
            if hit.size:
                return it + int(hit[0]), E[hit[0]], V[hit[0]], scored
        it += cut
        if cut < size:
            return it, E[cut], V[cut], scored
        eps, velocity = E[cut], V[cut]
        size = min(2 * size, _MAX_CHUNK)


def run_attack_loop(model: Scorer, instance: Instance, specified, config: AttackConfig,
                    method: str, *, clean_scores=None) -> AttackOutcome:
    """The one checked entry and iterative engine of all three methods.

    ``method`` names the loss: ``tkmia``, ``ml_cw_u`` or ``tkml_ap_u``. The
    entry checks the whole input once, before any iteration, in this order:
    the instance has the victim's c classes; ``specified`` is S, a non-empty
    set of integer labels in [0, c) without repeats (:func:`_labels`, which
    sorts it); S lies inside the relevant labels Yp, with Yp \\ S non-empty
    (:func:`_rest`); :func:`ineligible` accepts the instance, or its reason is
    raised; ``model._check_input`` accepts ``instance.x``, which is writable; and
    ``instance.x`` lies inside ``config.clip_domain``, bounds included, so that
    iteration 0 scores ``x + 0.0``, which is ``x`` with its -0.0 entries made +0.0;
    and ``clean_scores``, if given, is a finite (c,) vector.
    Yp is ``instance.relevant`` as it is: :class:`Instance` makes it ascending,
    distinct and inside [0, c). So 1 <= k < c (``config`` has k >= 1 and
    |Yp| >= k + |S|).
    Each iteration that the loop runs then runs one unchecked forward pass at
    the projected input, ``scores, pullback = model._vjp(x_adv)``, and ranks
    the scores once, raw logits included. ``clean_scores``, if given, are the
    victim's scores at ``x + 0.0``, as a report's cell scores them for its
    clean measures (a row of ``model.score(X + 0.0)`` has the bytes of
    ``_vjp``'s scores). Iteration 0 then ranks a copy of them in place of its
    scores, and runs its forward pass only if the attack goes on, for the
    pullback; the outcome is the one without them, bit for bit, unless a clip
    bound is -0.0, which can project a zero entry of ``x`` to -0.0. Their
    bytes are the caller's promise: the entry checks their shape and
    finiteness only. No check is lost: ``x_adv`` is finite
    by construction, since ``x`` is finite, the clip bounds are finite, eps
    is projected after every update and every gradient is tested for
    non-finite entries before it moves eps. Every method stops once at least
    ``config.delta_threshold or |S|`` labels of S have left the top k; the
    ``strict`` mode also needs the k-th score at most the lowest over Yp \\ S.
    Until then the method's terms give the score cotangent:
    :func:`_tkmia_terms`, which also steps both lambdas, or the margin hinge
    on the baseline's class pair; one ``pullback(cotangent)`` plus
    ``config.alpha * eps`` is the epsilon gradient. :func:`_advance` makes the
    update into one of two (eps, velocity, gradient) triples, allocated at the
    first update and written in turn, so the state before an update survives it
    for the fixed-point test; a row of them is copied into the outcome. A flat
    loss has a None cotangent: that iteration runs no pullback and reuses
    ``pullback(zeros)`` from the attack's first flat iteration. The reuse is
    exact: the pullback of a zero cotangent multiplies zeros by the weights
    and by non-negative derivatives, so its bytes, signed zeros included, do
    not depend on the input. No loss value is computed. Success is tested
    before any update, so an instance that already satisfies it returns
    epsilon exactly 0 after zero iterations. The residual set is S's labels
    in the top k of the last ranking, the one that ended the loop. The index
    arrays of S and Yp \\ S are built only where numpy reads them: the strict
    test, and a baseline's first flat stretch.

    A baseline's flat iteration steps no lambda and its update reads no
    score, so after one that moves the state :func:`_flat_run` runs the
    stretch on stacked rows, and the loop resumes at the iteration that ends
    it. tkmia's flat iterations step both lambdas and stay in the loop.

    An iteration is a pure function of (eps, velocity, lambda1, lambda2):
    the cached ``pullback(zeros)`` has the same bytes at every input. So an
    update that leaves all four bitwise unchanged (:func:`_same_state`) is a
    fixed point: every later iteration would repeat it, and none would
    succeed. The loop ends there with ``iterations_used = max_iter`` and the
    outcome of the whole budget, bit for bit. ``iterations_used`` counts
    budget iterations, the protocol's count; the forward passes run may be
    fewer. The outcome's ``forward_passes`` and ``pullbacks`` count the work
    run, and ``stop`` says which of success, the budget's end or a fixed
    point ended it.
    """
    k = config.k
    c = model.out_dim
    if instance.n_classes != c:
        raise ValueError(f"instance has {instance.n_classes} classes, but the victim scores {c}")
    spec = _labels(specified, c, "specified")
    rest = _rest(spec, instance.relevant)  # checked by Instance's rule
    reason = ineligible(instance, len(spec), k, method, config.delta_threshold)
    if reason:
        raise ValueError(reason)
    eta, max_iter = config.eta, config.max_iter
    delta, strict = config.delta_threshold or len(spec), config.success_mode == "strict"
    # Index arrays of the sets only where numpy reads them: the strict test here, and
    # (spec_idx too) a flat stretch's tests, built at the first stretch.
    rest_idx = np.array(rest) if strict else None
    if method != "tkmia":
        rel = np.array(instance.relevant)
        if method == "ml_cw_u":
            irr = np.array(instance.irrelevant)
            pair = lambda scores, order: _ml_cw_u_pair(scores, rel, irr)  # noqa: E731
        else:
            pair = lambda scores, order: _tkml_ap_u_pair(scores, order, rel, k)  # noqa: E731
    lam1 = lam2 = 0.0
    x = model._check_input(instance.x)
    d = x.shape[0]
    eps = velocity = np.zeros(d)
    coefs = config.coefs
    lo, hi = coefs[3:]
    # The domain is closed; a non-finite entry has failed _check_input already.
    if np.count_nonzero((x >= lo) & (x <= hi)) != d:
        raise ValueError("x lies outside the clip domain [{}, {}]".format(*config.clip_domain))
    if clean_scores is not None:
        # A copy, so that the outcome owns its scores as it does without them.
        clean_scores = np.array(clean_scores, dtype=np.float64)
        if clean_scores.shape != (c,) or np.count_nonzero(np.isfinite(clean_scores)) != c:
            raise ValueError(f"clean scores must be a finite ({c},) vector")
    zero_pull = tests = None
    success, stop = False, "budget"
    forward = pullbacks = 0

    it = 0
    while True:
        if clean_scores is None:
            scores, pullback = model._vjp(np.minimum(np.maximum(x + eps, lo), hi))
            forward += 1
        else:  # iteration 0, on the caller's clean row
            scores, pullback, clean_scores = clean_scores, None, None
        order = _rank(scores)
        residual = _ranked_in(order[:k], spec)
        if it == 0:  # the loop's own array, which nothing writes: the entry's copy or _vjp's
            scores_before = scores
        if _succeeded(scores, order, k, len(spec) - len(residual), delta, rest_idx, strict):
            success, stop = True, "success"
            break
        if it == max_iter:
            break
        if pullback is None:  # the attack goes on from the clean row: its forward pass
            pullback = model._vjp(np.minimum(np.maximum(x + eps, lo), hi))[1]
            forward += 1
        before = eps, velocity, lam1, lam2
        if method == "tkmia":
            # Finite: the gradients are 1 - n1/(c-k) and 1 - n2/k, with 1 <= k < c.
            # The lambdas move on a flat iteration too, whose cotangent is None.
            cot, g1, g2 = _tkmia_terms(scores.tolist(), lam1, lam2, spec, rest, k)
            lam1 = min(max(lam1 - eta * g1, 0.0), 1.0)
            lam2 = min(max(lam2 - eta * g2, 0.0), 1.0)
        else:
            cot = _hinge_cot(scores, *pair(scores, order))
        if cot is None:
            if zero_pull is None:
                zero_pull = pullback(np.zeros(c))
                pullbacks += 1
            pulled = zero_pull
        else:
            pulled = pullback(cot)
            pullbacks += 1
        if it == 0:  # the first update: two (eps, velocity, gradient) triples, written in turn
            target, spare = (tuple(triple) for triple in np.empty((2, 3, d)))
        _advance(x, eps, velocity, (target,), pulled, coefs)
        eps, velocity, grad = target
        target, spare = spare, target
        # Counting the finite entries skips the Python wrapper of ``.all()``.
        if np.count_nonzero(np.isfinite(grad)) != d:
            raise FloatingPointError(f"non-finite gradient at iteration {it}")
        # A fixed point: every later iteration would repeat this one bit for bit.
        if _same_state(before, (eps, velocity, lam1, lam2)):
            it, stop = max_iter, "fixed_point"
            break
        it += 1
        if cot is None and method != "tkmia":
            if tests is None:
                tests = (k, np.array(spec), delta, rest_idx, strict, pair)
            it, eps, velocity, rows = _flat_run(model, x, eps, velocity, it, zero_pull, coefs,
                                                max_iter, tests)
            forward += rows

    return AttackOutcome(
        method=method,
        # A row of the loop's triples or of a flat chunk is copied: the outcome owns it.
        epsilon=eps if eps.base is None else eps.copy(),
        iterations_used=it,
        success=success,
        specified=spec,
        residual=residual,
        lambda1=lam1,
        lambda2=lam2,
        scores_before=scores_before,
        scores_after=scores,
        forward_passes=forward,
        pullbacks=pullbacks,
        stop=stop,
    )


def tkmia_attack(model: Scorer, instance: Instance, specified, config: AttackConfig, *,
                 clean_scores=None) -> AttackOutcome:
    """Run the measure-imperceptible attack on one instance.

    Requires the instance filter |Yp| >= k + |S| and S a subset of the
    relevant labels. Both lambdas start at 0 (every hinge active, maximal
    gradient signal) and take plain projected gradient steps with the same
    step size as epsilon; momentum applies to epsilon only. ``clean_scores``,
    the victim's scores at ``instance.x + 0.0``, spare iteration 0 a forward
    pass (see :func:`run_attack_loop`).
    """
    return run_attack_loop(model, instance, specified, config, "tkmia",
                           clean_scores=clean_scores)


def run_baseline(model: Scorer, instance: Instance, specified, spec: BaselineSpec, *,
                 clean_scores=None) -> AttackOutcome:
    """Attack one instance with the baseline loss ``spec.method``; the entry
    checks, the stopping test and ``clean_scores`` are the main attack's, and
    :func:`ineligible` also needs an irrelevant label for ml_cw_u."""
    return run_attack_loop(model, instance, specified, spec.config, spec.method,
                           clean_scores=clean_scores)


def select_global(dataset: Sequence[Instance], categories) -> list[tuple[int, tuple[int, ...]]]:
    """Per-instance specified sets under the global selection scheme.

    Returns (dataset index, S) pairs with S the intersection of the
    instance's relevant labels and the category list; instances with an
    empty intersection are not attackable and are dropped. Both are read off
    the label matrix's category columns; a category outside [0, c) matches
    nothing.
    """
    cats = sorted(set(GlobalScheme(categories).categories))
    if not len(dataset):
        return []
    Y = Dataset.of(dataset).Y
    cats = [i for i in cats if 0 <= i < Y.shape[1]]
    hits = Y[:, cats] != 0
    rows = np.flatnonzero(hits.any(axis=1))
    return [(idx, tuple(cat for cat, hit in zip(cats, row) if hit))
            for idx, row in zip(rows.tolist(), hits[rows].tolist())]


def select_random(instance: Instance, m: int, seed) -> tuple[int, ...]:
    """Uniform sample of m relevant labels, deterministic under the seed."""
    relevant = instance.relevant
    if not 0 < m <= len(relevant):
        raise ValueError(f"m={m} out of range (0, {len(relevant)}]")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(relevant), size=m, replace=False)
    return tuple(sorted(relevant[i] for i in picked))


def filter_instances(dataset: Sequence[Instance], k: int, s_size: int) -> list[int]:
    """Indices of instances with at least k + s_size relevant labels: those that
    :func:`ineligible` accepts for tkmia with no success threshold."""
    return [i for i, inst in enumerate(dataset) if not ineligible(inst, s_size, k, "tkmia", None)]
