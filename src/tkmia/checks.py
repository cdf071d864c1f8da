"""Self-contained verification suites for the ``check`` CLI command.

Each suite re-derives its expectations from scratch (dense grids, full
sorts, brute-force definitions, finite differences) rather than calling
back into the code paths it is checking, and reports a (name, passed,
detail) triple.
"""
from __future__ import annotations

import numpy as np

from . import attack, baselines, core, metrics, model

__all__ = ["run_all_checks", "CHECKS"]


def check_variational_form(seed: int = 0):
    """Top-k sums match the hinge variational form over a dense grid."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 1001)
    worst_gap = -np.inf
    worst_at_opt = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 21))
        k = int(rng.integers(1, c))
        scores = rng.uniform(0.0, 1.0, size=c)
        target = k * core.avg_top_k(scores, k)
        values = k * grid + np.maximum(scores[None, :] - grid[:, None], 0.0).sum(axis=1)
        worst_gap = max(worst_gap, target - float(values.min()))
        at_opt = core.variational_top_k_sum(scores, k, core.kth_largest(scores, k))
        worst_at_opt = max(worst_at_opt, abs(at_opt - target))
    ok = worst_gap <= 1e-6 and worst_at_opt <= 1e-9
    return ok, f"grid gap {worst_gap:.2e}, at-optimum gap {worst_at_opt:.2e}"


def check_hinge_identity(seed: int = 0):
    """Nested hinge collapses to a single hinge for positive offsets."""
    rng = np.random.default_rng(seed)
    n = 100_000
    a = rng.uniform(1e-12, 10.0, n)
    b = rng.uniform(1e-12, 10.0, n)
    x = rng.uniform(-10.0, 10.0, n)
    lhs = np.maximum(np.maximum(a - x, 0.0) - b, 0.0)
    rhs = np.maximum(a - x - b, 0.0)
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= 1e-12, f"max violation {worst:.2e}"


def _random_victims(seed: int):
    return [
        model.make_affine(6, 8, seed=seed),
        model.make_mlp(6, 5, 8, seed=seed + 1),
    ]


def check_objective_gradients(seed: int = 0):
    """Attack and baseline gradients agree with central finite differences."""
    rng = np.random.default_rng(seed)
    step = 1e-5
    worst = 0.0
    for victim in _random_victims(seed):
        cfg = attack.AttackConfig(k=3, eta=0.01, alpha=0.1)
        for _ in range(50):
            x = rng.uniform(-0.8, 0.8, victim.in_dim)
            eps = rng.uniform(-0.05, 0.05, victim.in_dim)
            lam1, lam2 = rng.uniform(0.05, 0.6, 2)
            spec, rel = (1, 4), (1, 2, 4, 6)

            def value_at(e, l1=None, l2=None):
                v, _, _, _ = attack.tkmia_objective(
                    victim, x, e, lam1 if l1 is None else l1,
                    lam2 if l2 is None else l2, spec, rel, cfg)
                return v

            _, g_eps, g1, g2 = attack.tkmia_objective(
                victim, x, eps, lam1, lam2, spec, rel, cfg)
            worst = max(worst, _fd_gap(value_at, eps, g_eps, step))
            fd1 = (value_at(eps, l1=lam1 + step) - value_at(eps, l1=lam1 - step)) / (2 * step)
            fd2 = (value_at(eps, l2=lam2 + step) - value_at(eps, l2=lam2 - step)) / (2 * step)
            worst = max(worst, abs(g1 - fd1), abs(g2 - fd2))

            _, g = baselines.ml_cw_u_loss(victim, x, eps, rel, alpha=0.1)
            worst = max(worst, _fd_gap(
                lambda e: baselines.ml_cw_u_loss(victim, x, e, rel, alpha=0.1)[0],
                eps, g, step))
            _, g = baselines.tkml_ap_u_loss(victim, x, eps, rel, k=3, alpha=0.1)
            worst = max(worst, _fd_gap(
                lambda e: baselines.tkml_ap_u_loss(victim, x, e, rel, k=3, alpha=0.1)[0],
                eps, g, step))
    return worst <= 1e-4, f"max gradient error {worst:.2e}"


def _fd_gap(fn, point: np.ndarray, analytic: np.ndarray, step: float) -> float:
    numeric = np.zeros_like(point)
    for i in range(point.shape[0]):
        bump = np.zeros_like(point)
        bump[i] = step
        numeric[i] = (fn(point + bump) - fn(point - bump)) / (2 * step)
    scale = max(float(np.linalg.norm(numeric)), 1e-8)
    return float(np.linalg.norm(analytic - numeric)) / scale


def check_metric_oracles(seed: int = 0):
    """Measures match brute-force definitional implementations, one
    instance at a time and stacked into one score matrix per (c, k)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    stacks = {}
    for _ in range(500):
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
    return worst <= 1e-12, f"max metric gap {worst:.2e}, {len(stacks)} (c, k) score matrices"


def check_model_gradients(seed: int = 0):
    """Scorer input gradients pass the finite-difference Jacobian check."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for victim in _random_victims(seed):
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, victim.in_dim)
            ok, err = model.finite_diff_check(victim, x, tolerance=1e-4)
            worst = max(worst, err)
            if not ok:
                return False, f"gradient error {err:.2e}"
    return True, f"max gradient error {worst:.2e}"


CHECKS = (
    ("variational-top-k", check_variational_form),
    ("hinge-identity", check_hinge_identity),
    ("objective-gradients", check_objective_gradients),
    ("model-gradients", check_model_gradients),
    ("metric-oracles", check_metric_oracles),
)


def run_all_checks(seed: int = 0):
    """Run every suite; returns a list of (name, passed, detail)."""
    return [(name, *fn(seed=seed)) for name, fn in CHECKS]
