"""Brute-force verification suites: the one oracle of ``tkmia check`` and of
acceptance criteria 1, 2, 3 and 5.

Each suite takes only a seed, re-derives its expectations from scratch
(dense grids, full sorts, definitional formulas, central finite
differences) rather than from the code paths it checks, and returns the
worst error of each kind it measured. ``tkmia check`` compares them with the
bounds in :data:`CHECKS`; the acceptance tests call the same suites at fixed
seeds and assert their own literal bounds.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import attack, core, metrics, model

__all__ = ["run_all_checks", "CHECKS"]

# The central-difference step, the least distance from every hinge kink of a
# gradient point, so that no difference straddles one, and the draws allowed
# per point (seeds 0-124 need at most 64).
_STEP = 1e-5
_KINK_MARGIN = 1e-3
_TRIES = 1000
# The k and the label sets S and Yp of every gradient point.
_K, _SPEC, _REL = 3, (1, 4), (1, 2, 4, 6)


def check_variational_form(seed: int):
    """Top-k sums against the hinge variational form: by how much a dense
    grid's minimum undercuts them, how far the library's form at the k-th
    largest score is from them, and how far the library's form is from the
    written-out formula at five grid points."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 1001)
    undercut = -np.inf
    at_opt = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 21))
        k = int(rng.integers(1, c))
        scores = rng.uniform(0.0, 1.0, size=c)
        target = k * core.avg_top_k(scores, k)
        values = k * grid + np.maximum(scores[None, :] - grid[:, None], 0.0).sum(axis=1)
        undercut = max(undercut, target - float(values.min()))
        value = core.variational_top_k_sum(scores, k, core.kth_largest(scores, k))
        at_opt = max(at_opt, abs(value - target))
    formula = 0.0
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        scores = rng.uniform(0.0, 1.0, 12)
        written = 4 * lam + np.maximum(scores - lam, 0.0).sum()
        formula = max(formula, abs(core.variational_top_k_sum(scores, 4, lam) - written))
    return {"grid undercut": undercut, "at-optimum gap": at_opt, "formula gap": formula}


def check_hinge_identity(seed: int):
    """The nested hinge ``[[a - x]_+ - b]_+`` against ``[a - x - b]_+`` for
    positive offsets, written out on 100,000 draws and with ``core.hinge``
    on every 10,000th."""
    rng = np.random.default_rng(seed)
    n = 100_000
    a = rng.uniform(1e-12, 50.0, n)
    b = rng.uniform(1e-12, 50.0, n)
    x = rng.uniform(-50.0, 50.0, n)
    lhs = np.maximum(np.maximum(a - x, 0.0) - b, 0.0)
    rhs = np.maximum(a - x - b, 0.0)
    scalar = max(abs(core.hinge(core.hinge(a[i] - x[i]) - b[i]) - core.hinge(a[i] - x[i] - b[i]))
                 for i in range(0, n, 10_000))
    return {"max violation": float(np.max(np.abs(lhs - rhs))), "scalar violation": scalar}


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
    numeric = model._central_differences(fn, point, _STEP)
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
            fd = model._central_differences(lambda lams: value(eps, *lams),
                                            np.array([lam1, lam2]), _STEP)
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
        order = sorted(range(c), key=lambda i: (-scores[i], i))
        ranked = [int(y[i]) for i in order[:k]]
        relevant = {i for i in range(c) if y[i] == 1}

        acc = 1 if relevant <= set(order[:k]) else 0
        p = sum(ranked) / k
        nk = min(k, len(relevant))
        ap = sum(sum(ranked[:i]) / i for i in range(1, k + 1) if ranked[i - 1]) / nk
        dcg = sum(ranked[i] / np.log2(i + 2) for i in range(k))
        idcg = sum(1.0 / np.log2(i + 2) for i in range(nk))
        expected = (acc, p, ap, dcg / idcg)
        stacks.setdefault((c, k), []).append((scores, y, expected))

        worst = max(
            worst,
            abs(metrics.tk_acc(scores, y, k) - acc),
            abs(metrics.precision_at_k(scores, y, k) - p),
            abs(metrics.ap_at_k(scores, y, k) - ap),
            abs(metrics.ndcg_at_k(scores, y, k) - dcg / idcg),
        )
    for (c, k), cases in stacks.items():
        records = metrics.evaluate_rows(np.stack([s for s, _, _ in cases]),
                                        np.stack([y for _, y, _ in cases]), k)
        for record, (_, _, expected) in zip(records, cases):
            got = [getattr(record, name) for name in metrics.MEASURES]
            worst = max(worst, *(abs(a - b) for a, b in zip(got, expected)))
    return {"max metric gap": float(worst)}


def check_model_gradients(seed: int):
    """Scorer input Jacobians against central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for victim in _victims(seed):
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, victim.in_dim)
            worst = max(worst, model.finite_diff_check(victim, x, tolerance=1e-4)[1])
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
