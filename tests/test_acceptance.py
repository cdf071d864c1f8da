"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 2, 3 and 5 run the brute-force suites of :mod:`tkmia.checks`,
the ones behind ``tkmia check``, at fixed seeds, and assert their own
literal bounds on the worst errors the suites return.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines while running).
"""
import time

import numpy as np
import pytest

from tkmia import checks
from tkmia.attack import (AttackConfig, filter_instances, select_global, tkmia_attack,
                          tkmia_objective)
from tkmia.core import Instance
from tkmia.harness import (ExperimentConfig, RandomScheme, SyntheticSpec, gen_synthetic,
                           run_experiment)
from tkmia.metrics import ap_at_k, delta_report, evaluate_instance, ndcg_at_k
from tkmia.model import TrainConfig, make_affine, train_bce

from support import attack, constant_score_model, rank_of


def announce(criterion, name):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


class TestCriterion1VariationalForm:
    def test_variational_equivalence(self):
        start = time.time()
        worst = checks.check_variational_form(101)
        elapsed = time.time() - start
        # the grid minimum never undercuts the true top-k sum
        assert worst["grid undercut"] <= 1e-6
        # with the analytic optimum f_[k] the library's form is exact
        assert worst["at-optimum gap"] <= 1e-9
        # the library op agrees with the written-out formula on grid points
        assert worst["formula gap"] <= 1e-12
        assert elapsed < 5.0, f"variational suite took {elapsed:.2f}s"
        announce(1, "variational top-k equivalence")


class TestCriterion2HingeIdentity:
    def test_nested_hinge_identity(self):
        start = time.time()
        worst = checks.check_hinge_identity(102)
        elapsed = time.time() - start
        assert worst["max violation"] <= 1e-12
        # scalar op agrees exactly on a sample
        assert worst["scalar violation"] == 0.0
        assert elapsed < 1.0, f"hinge suite took {elapsed:.2f}s"
        announce(2, "nested hinge identity")


class TestCriterion3Gradients:
    def test_objective_and_baseline_gradients(self):
        start = time.time()
        worst = checks.check_objective_gradients(31)["max relative error"]
        elapsed = time.time() - start
        assert worst <= 1e-4, f"max relative gradient error {worst:.2e}"
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        announce(3, f"gradients vs finite differences, max rel err {worst:.2e}")


class TestCriterion4Convexity:
    def test_midpoint_convexity_affine_no_sigmoid(self):
        model = make_affine(5, 7, seed=41, sigmoid_output=False)
        cfg = AttackConfig(k=2, eta=0.1, alpha=0.3)
        spec, rel = (0, 3), (0, 2, 3, 5)
        rng = np.random.default_rng(42)

        def value(x, eps, lam1, lam2):
            return tkmia_objective(model, x, eps, lam1, lam2, spec, rel, cfg)[0]

        for _ in range(1000):
            x = rng.uniform(-0.8, 0.8, 5)
            e1, e2 = rng.uniform(-0.5, 0.5, (2, 5))
            l1a, l1b, l2a, l2b = rng.uniform(0.0, 1.0, 4)
            mid = value(x, (e1 + e2) / 2, (l1a + l1b) / 2, (l2a + l2b) / 2)
            assert mid <= (value(x, e1, l1a, l2a) + value(x, e2, l1b, l2b)) / 2 + 1e-9
        announce(4, "objective midpoint convexity without sigmoid")


class TestCriterion5MetricOracles:
    def test_metrics_match_bruteforce(self):
        assert checks.check_metric_oracles(51)["max metric gap"] <= 1e-12
        # frozen hand case: ranked labels (1, 0, 1) at k=3
        assert ndcg_at_k([0.9, 0.5, 0.3], [1, 0, 1], 3) == pytest.approx(0.9197, abs=1e-4)
        announce(5, "metric implementations vs brute-force oracles")

    def test_negative_deltas_representable(self):
        # a perturbation that repairs the ranking makes the delta negative
        clean = [evaluate_instance([0.9, 0.2, 0.8], [1, 1, 0], 2),
                 evaluate_instance([0.9, 0.8, 0.1], [1, 1, 0], 2)]
        pert = [evaluate_instance([0.9, 0.8, 0.1], [1, 1, 0], 2),
                evaluate_instance([0.9, 0.8, 0.1], [1, 1, 0], 2)]

        class Out:
            specified = (0,)
            residual = (0,)
            success = False
            epsilon = np.zeros(2)

        rep = delta_report(clean, pert, [Out(), Out()])
        assert rep.delta_tk_acc == pytest.approx(-0.5, abs=1e-12)
        assert rep.delta_tk_acc < 0
        announce(5, "negative deltas representable and exact")


@pytest.fixture(scope="module")
def efficacy_run():
    """Shared end-to-end run for criteria 6 and 7."""
    start = time.time()
    spec = SyntheticSpec(n=2000, d=32, c=10, mean_relevant=3.5,
                         label_correlation=0.5, seed=7)
    dataset = gen_synthetic(spec)
    victim = train_bce(dataset, TrainConfig(epochs=60, learning_rate=0.5,
                                            batch_size=64, seed=7))
    mean_ap = float(np.mean([ap_at_k(victim.score(inst.x), inst.y, 3)
                             for inst in dataset]))

    k = 3
    pairs = [(i, s) for i, s in select_global(dataset, (0,))
             if len(dataset[i].relevant) >= k + len(s)][:1000]
    config = AttackConfig(k=k, eta=0.05, alpha=1e-4, momentum=0.9, max_iter=300)
    clean = [evaluate_instance(victim.score(dataset[i].x), dataset[i].y, k)
             for i, _ in pairs]
    reports, outcomes = {}, {}
    for method in ("tkmia", "ml_cw_u", "tkml_ap_u"):
        outs = [attack(method, victim, dataset[i], s, config) for i, s in pairs]
        pert = [evaluate_instance(o.scores_after, dataset[i].y, k)
                for o, (i, _) in zip(outs, pairs)]
        reports[method] = delta_report(clean, pert, outs)
        outcomes[method] = outs
    return {
        "mean_ap": mean_ap,
        "n_instances": len(pairs),
        "reports": reports,
        "outcomes": outcomes,
        "elapsed": time.time() - start,
        "k": k,
    }


class TestCriterion6Efficacy:
    def test_trained_victim_and_expulsion(self, efficacy_run):
        run = efficacy_run
        assert run["elapsed"] < 300.0, f"end-to-end run took {run['elapsed']:.0f}s"
        assert run["mean_ap"] >= 0.95, f"victim AP@3 {run['mean_ap']:.4f}"
        assert run["n_instances"] >= 100
        rep = run["reports"]["tkmia"]
        assert rep.delta_l >= 0.9, f"delta_l {rep.delta_l:.4f}"
        # every reported success confirmed by an independent rank oracle
        for out in run["outcomes"]["tkmia"]:
            if out.success:
                for s in out.specified:
                    assert rank_of(out.scores_after, s) > run["k"]
        announce(6, f"victim AP@3 {run['mean_ap']:.4f}, expulsion rate "
                    f"{rep.delta_l:.4f} over {run['n_instances']} instances")


class TestCriterion7Directional:
    def test_measure_imperceptibility_ordering(self, efficacy_run):
        reports = efficacy_run["reports"]
        ours = reports["tkmia"]
        for baseline in ("ml_cw_u", "tkml_ap_u"):
            other = reports[baseline]
            assert ours.delta_p_at_k < other.delta_p_at_k, baseline
            assert ours.delta_map_at_k < other.delta_map_at_k, baseline
            assert ours.delta_ndcg_at_k < other.delta_ndcg_at_k, baseline
            assert ours.delta_l >= other.delta_l - 0.05, baseline
        announce(7, "ranking-measure deltas strictly smaller than both baselines, "
                    "expulsion within tolerance")


class TestCriterion8Boundaries:
    def test_already_outside_yields_identity(self):
        # class 2 relevant but ranked below k=2 from the start
        model = constant_score_model([0.9, 0.8, 0.1, 0.7])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        out = tkmia_attack(model, inst, (2,), AttackConfig(k=2, eta=0.1, max_iter=100))
        assert out.success and out.iterations_used == 0
        assert np.all(out.epsilon == 0.0)
        before = evaluate_instance(out.scores_before, inst.y, 2)
        after = evaluate_instance(out.scores_after, inst.y, 2)
        rep = delta_report([before], [after], [out])
        assert rep.delta_p_at_k == 0.0 and rep.delta_ndcg_at_k == 0.0
        assert rep.aper == 0.0

    def test_filter_boundary(self):
        keep = Instance(x=np.zeros(2), y=[1, 1, 1, 1, 1, 0])   # |Yp| = 5 = k + s
        drop = Instance(x=np.zeros(2), y=[1, 1, 1, 1, 0, 0])   # |Yp| = 4 < k + s
        assert filter_instances([keep, drop], k=3, s_size=2) == [0]
        model = make_affine(2, 6, seed=82)
        with pytest.raises(ValueError):
            tkmia_attack(model, drop, (0, 1), AttackConfig(k=3, eta=0.1))
        announce(8, "early exit and instance filter boundaries")


class TestCriterion9Determinism:
    def test_report_pipeline_byte_identical(self, tmp_path):
        def config(base):
            return ExperimentConfig(
                seed=91,
                dataset={"n": 300, "d": 12, "c": 8, "mean_relevant": 3.0,
                         "label_correlation": 0.4, "seed": 91},
                victim={"arch": "affine", "epochs": 60, "seed": 91},
                k_grid=(2, 3),
                scheme=RandomScheme(1),
                methods=("tkmia", "ml_cw_u", "tkml_ap_u"),
                attack={"eta": 0.05, "alpha": 1e-4, "max_iter": 100},
                out_csv=str(base / "report.csv"),
                out_outcomes=str(base / "outcomes.jsonl"),
                max_instances=50,
            )

        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        run_experiment(config(first))
        run_experiment(config(second))
        assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
        assert (first / "outcomes.jsonl").read_bytes() == (second / "outcomes.jsonl").read_bytes()
        announce(9, "byte-identical reports under fixed seeds")
