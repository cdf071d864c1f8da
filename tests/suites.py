"""Brute-force verification suites: the one oracle of acceptance criteria 1, 2,
3 and 5, and of the CI step that runs every suite at further seeds.

Each suite takes only a seed, re-derives its expectations from scratch
(dense grids, written-out formulas, and :mod:`support`'s measure and
central-difference oracles) rather than from the code paths it checks, and
returns the worst error of each kind it measured. :func:`run_all_checks`
compares them with the bounds in :data:`CHECKS`; the acceptance tests call the
same suites at fixed seeds and assert their own literal bounds.

This module lives beside the tests, not in the library: running the suites
needs the test tree, with ``src`` and ``tests`` on the import path, e.g.

    PYTHONPATH=src:tests python -W error -c 'import suites; print(suites.run_all_checks(7))'
"""
from __future__ import annotations

from functools import partial

import numpy as np

from tkmia import attack, metrics, model
from tkmia.model import Scorer

from support import central_differences, constant_score_model, measures

# The central-difference step, the least distance from every hinge kink of a
# gradient point, so that no difference straddles one, and the draws allowed
# per point (seeds 0-124 need at most 64).
_STEP = 1e-5
_KINK_MARGIN = 1e-3
_TRIES = 1000
# The k and the label sets S and Yp of every gradient point.
_K, _SPEC, _REL = 3, (1, 4), (1, 2, 4, 6)


def finite_diff_check(model: Scorer, x, tolerance: float,
                      step: float = 1e-5) -> tuple[bool, float]:
    """Compare input_gradient rows against central finite differences.

    Checks the full Jacobian, one output class at a time, at an interior
    point (no logit clipping active). Returns (passed, max relative
    error) where the error is normwise per class row.
    """
    # Row j holds the central differences of class j's score along each x_i.
    numeric = central_differences(model.score, np.asarray(x, dtype=np.float64), step)
    worst = 0.0
    for j, cot in enumerate(np.eye(model.out_dim)):
        analytic = model.input_gradient(x, cot)
        scale = max(float(np.linalg.norm(numeric[j])), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric[j])) / scale)
    return worst <= tolerance, worst


def _cross_minimum(value, steps: int, i: int, j: int) -> float:
    """The least ``value(a, b)`` over grid indices a, b in [0, steps], for a value that
    is a convex function of a plus one of b, each minimised at i or a neighbour (j for
    b): the value at (i, j) plus the best step of each index alone."""
    centre = value(i, j)
    best_a = min([value(a, j) - centre for a in (i - 1, i + 1) if 0 <= a <= steps], default=0.0)
    best_b = min([value(i, b) - centre for b in (j - 1, j + 1) if 0 <= b <= steps], default=0.0)
    return centre + min(0.0, best_a) + min(0.0, best_b)


def check_variational_form(seed: int):
    """The value of :func:`attack.tkmia_objective` against the average-top-k form
    of its two hinge sums, on 1,000 draws of scores (a constant scorer), S inside
    Yp, eps, k and alpha.

    With ``gaps1`` the best specified score less each score and ``gaps2`` each
    score less the worst score of Yp \\ S, the value minimised over all real
    lambdas is (1/(c-k)) * (sum of the c-k largest gaps1) + (1/k) * (sum of the
    k largest gaps2) + (alpha/2) ||eps||^2, at lambda1 and lambda2 the (c-k)-th
    and k-th largest gaps. Returns by how much the value's least value on five
    points of a 1001 x 1001 lambda grid on [0, 1]^2 undercuts that form, how far
    the value at those lambdas is from it where both lie in [0, 1], and how far
    the value is from the written-out objective at five lambda points.

    The five grid points are a cross through the nearest grid point to the
    optimum clipped to [0, 1]^2. They hold the whole grid's minimum when the
    value is a convex function of lambda1 plus one of lambda2; criterion 4
    checks the convexity, and this suite does not check the rest of the grid.
    """
    rng = np.random.default_rng(seed)
    steps = 1000  # grid intervals per lambda
    undercut = -np.inf
    at_opt = 0.0

    def draw():
        c = int(rng.integers(2, 21))
        k = int(rng.integers(1, c))
        victim = constant_score_model(rng.uniform(0.001, 0.999, c))
        rel = rng.choice(c, size=int(rng.integers(2, c + 1)), replace=False).tolist()
        spec = rel[:int(rng.integers(1, len(rel)))]
        eps = rng.uniform(-0.1, 0.1, victim.in_dim)
        cfg = attack.AttackConfig(k=k, eta=0.1, alpha=float(rng.uniform(0.0, 1.0)))
        scores = victim.score(np.zeros(victim.in_dim))
        top, bottom = scores[spec].max(), scores[rel[len(spec):]].min()

        def value(lam1, lam2):
            return attack.tkmia_objective(victim, np.zeros(victim.in_dim), eps, lam1, lam2,
                                          spec, rel, cfg)[0]

        return c, k, scores, top, bottom, 0.5 * cfg.alpha * float(eps @ eps), value

    for _ in range(1000):
        c, k, scores, top, bottom, penalty, value = draw()
        gaps1, gaps2 = np.sort(top - scores)[::-1], np.sort(scores - bottom)[::-1]
        target = gaps1[:c - k].sum() / (c - k) + gaps2[:k].sum() / k + penalty
        lam1, lam2 = gaps1[c - k - 1], gaps2[k - 1]
        i, j = (int(round(min(max(lam, 0.0), 1.0) * steps)) for lam in (lam1, lam2))
        grid_min = _cross_minimum(lambda a, b: value(a / steps, b / steps), steps, i, j)
        undercut = max(undercut, target - grid_min)
        if 0.0 <= lam1 <= 1.0 and 0.0 <= lam2 <= 1.0:
            at_opt = max(at_opt, abs(value(lam1, lam2) - target))
    formula = 0.0
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        c, k, scores, top, bottom, penalty, value = draw()
        written = (lam + (1.0 - lam) + penalty
                   + sum(max(0.0, top - f - lam) for f in scores) / (c - k)
                   + sum(max(0.0, f - bottom - (1.0 - lam)) for f in scores) / k)
        formula = max(formula, abs(value(lam, 1.0 - lam) - written))
    return {"grid undercut": float(undercut), "at-optimum gap": float(at_opt),
            "formula gap": float(formula)}


def check_hinge_identity(seed: int):
    """The nested hinge ``[[a - x]_+ - b]_+`` against ``[a - x - b]_+`` for
    positive offsets, written out on 100,000 draws; and on every 10th draw, the
    hinges that :func:`attack._tkmia_terms` counts active, by its collapsed test
    ``gap > lambda``, against those whose nested hinge is positive.

    The scalar draws have c = 2 and k = 1, scores (a, x), S = {0} and Yp \\ S =
    {1}, and both lambdas b, or 0 on every other draw, where the attack starts
    them. Each hinge's active count is read back from its lambda gradient, 1 -
    count / (c - k) or 1 - count / k; the scalar violation counts the draws on
    which some count differs.
    """
    rng = np.random.default_rng(seed)
    n = 100_000
    a = rng.uniform(1e-12, 50.0, n)
    b = rng.uniform(1e-12, 50.0, n)
    x = rng.uniform(-50.0, 50.0, n)
    lhs = np.maximum(np.maximum(a - x, 0.0) - b, 0.0)
    rhs = np.maximum(a - x - b, 0.0)
    c, k = 2, 1
    disagreements = 0
    for draw, i in enumerate(range(0, n, 10)):
        vals, lam = [float(a[i]), float(x[i])], 0.0 if draw % 2 else float(b[i])
        _, g1, g2 = attack._tkmia_terms(vals, lam, lam, (0,), (1,), k)
        nested1 = sum(max(0.0, max(0.0, vals[0] - v) - lam) > 0.0 for v in vals)
        nested2 = sum(max(0.0, max(0.0, v - vals[1]) - lam) > 0.0 for v in vals)
        disagreements += (round((1.0 - g1) * (c - k)), round((1.0 - g2) * k)) != (nested1, nested2)
    return {"max violation": float(np.max(np.abs(lhs - rhs))),
            "scalar violation": float(disagreements)}


def _victims(seed: int):
    return model.make_affine(6, 8, seed=seed), model.make_mlp(6, 7, 8, seed=seed + 1)


def _draw_generic(rng, victim, seed: int, rank_gap: bool = False):
    """A point (x, eps, lam1, lam2) whose scores lie at least the kink margin
    from every kink of the tkmia hinges and of both baseline pairs; with
    ``rank_gap``, also with no two scores that close."""
    rest = [i for i in _REL if i not in _SPEC]
    irrelevant = [i for i in range(victim.out_dim) if i not in _REL]
    for _ in range(_TRIES):
        x = rng.uniform(-0.8, 0.8, victim.in_dim)
        eps = rng.uniform(-0.05, 0.05, victim.in_dim)
        lam1, lam2 = rng.uniform(0.02, 0.5, 2)
        scores = victim.score(x + eps)
        ranked, rel = np.sort(scores), scores[list(_REL)]
        gaps = np.concatenate([scores[list(_SPEC)].max() - scores - lam1,
                               scores - scores[rest].min() - lam2,
                               [rel.min() - scores[irrelevant].max(), rel.max() - ranked[-_K - 1]]])
        crowded = rank_gap and np.diff(ranked).min() < _KINK_MARGIN
        if np.abs(gaps).min() > _KINK_MARGIN and not crowded:
            return x, eps, lam1, lam2
    raise ValueError(f"objective-gradients: no point {_KINK_MARGIN:g} from every hinge kink "
                     f"in {_TRIES} draws at seed {seed}")


def _fd_gap(fn, point: np.ndarray, analytic: np.ndarray) -> float:
    """Relative norm gap between ``analytic`` and central differences of ``fn``."""
    numeric = central_differences(fn, point, _STEP)
    scale = max(float(np.linalg.norm(numeric)), 1e-8)
    return float(np.linalg.norm(analytic - numeric)) / scale


def check_objective_gradients(seed: int):
    """The tkmia objective's gradients in eps and both lambdas, and each
    baseline loss's gradient, against central finite differences: 200 kink-free
    points per loss on an affine and an MLP victim (seeds ``seed`` and
    ``seed + 1``), drawn at seeds ``seed + 2``, ``+ 3`` and ``+ 4``."""
    cfg = attack.AttackConfig(k=_K, eta=0.01, alpha=0.2)
    worst = 0.0
    for victim in _victims(seed):
        rng = np.random.default_rng(seed + 2)
        for _ in range(200):
            x, eps, lam1, lam2 = _draw_generic(rng, victim, seed)

            def value(e, l1=lam1, l2=lam2):
                return attack.tkmia_objective(victim, x, e, l1, l2, _SPEC, _REL, cfg)[0]

            _, g_eps, g1, g2 = attack.tkmia_objective(victim, x, eps, lam1, lam2,
                                                      _SPEC, _REL, cfg)
            worst = max(worst, _fd_gap(value, eps, g_eps))
            fd = central_differences(lambda lams: value(eps, *lams), np.array([lam1, lam2]),
                                     _STEP)
            worst = max(worst, *np.abs([g1, g2] - fd) / np.maximum(1.0, np.abs(fd)))

        for offset, loss, rank_gap in ((3, partial(attack.ml_cw_u_loss, alpha=0.2), False),
                                       (4, partial(attack.tkml_ap_u_loss, k=_K, alpha=0.2),
                                        True)):
            rng = np.random.default_rng(seed + offset)
            for _ in range(200):
                x, eps, _, _ = _draw_generic(rng, victim, seed, rank_gap)
                _, g = loss(victim, x, eps, _REL)
                worst = max(worst, _fd_gap(lambda e: loss(victim, x, e, _REL)[0], eps, g))
    return {"max relative error": worst}


def check_metric_oracles(seed: int):
    """The measures against brute-force definitions on 1,000 cases, half of
    them with tied scores on a 0.1 grid, one instance at a time and stacked
    into one score matrix per (c, k); and NDCG@3 on a frozen hand case."""
    rng = np.random.default_rng(seed)
    stacks = {}
    # Ranked labels (1, 0, 1) at k=3: DCG 1 + 1/log2(4), IDCG 1 + 1/log2(3).
    hand = metrics.ndcg_at_k([0.9, 0.5, 0.3], [1, 0, 1], 3)
    worst = abs(hand - 1.5 / (1.0 + 1.0 / np.log2(3.0)))
    for _ in range(1000):
        c = int(rng.integers(2, 13))
        k = int(rng.integers(1, c + 1))
        # Half the vectors come from a 0.1 grid, so that tied scores occur
        # and the (-score, index) tie-break is checked.
        if rng.random() < 0.5:
            scores = rng.integers(0, 11, c) / 10.0
        else:
            scores = rng.uniform(0.0, 1.0, c)
        y = np.zeros(c, dtype=np.int64)
        y[rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)] = 1
        expected = measures(scores, y, k)
        stacks.setdefault((c, k), []).append((scores, y, expected))
        for measure, value in zip((metrics.tk_acc, metrics.precision_at_k, metrics.ap_at_k,
                                   metrics.ndcg_at_k), expected):
            worst = max(worst, abs(measure(scores, y, k) - value))
    for (c, k), cases in stacks.items():
        columns = metrics.evaluate_rows(np.stack([s for s, _, _ in cases]),
                                        np.stack([y for _, y, _ in cases]), k)
        for got, (_, _, expected) in zip(zip(*columns), cases):
            worst = max(worst, *(abs(a - b) for a, b in zip(got, expected)))
    return {"max metric gap": float(worst)}


def check_model_gradients(seed: int):
    """Scorer input Jacobians against central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for victim in _victims(seed):
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, victim.in_dim)
            worst = max(worst, finite_diff_check(victim, x, tolerance=1e-4)[1])
    return {"max gradient error": worst}


# Each suite with the bound of each worst error it returns.
CHECKS = (
    ("variational-top-k", check_variational_form,
     {"grid undercut": 1e-6, "at-optimum gap": 1e-9, "formula gap": 1e-12}),
    ("hinge-identity", check_hinge_identity, {"max violation": 1e-12, "scalar violation": 0.0}),
    ("objective-gradients", check_objective_gradients, {"max relative error": 1e-4}),
    ("model-gradients", check_model_gradients, {"max gradient error": 1e-4}),
    ("metric-oracles", check_metric_oracles, {"max metric gap": 1e-12}),
)


def run_all_checks(seed: int = 0):
    """Run every suite; returns a list of (name, passed, detail), where the
    detail lists each worst error and a suite passes when all are within bounds."""
    results = []
    for name, suite, bounds in CHECKS:
        worst = suite(seed)
        passed = all(worst[key] <= bound for key, bound in bounds.items())
        results.append((name, passed, ", ".join(f"{key} {value:.2e}"
                                                 for key, value in worst.items())))
    return results
