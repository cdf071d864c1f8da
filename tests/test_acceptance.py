"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 2, 3 and 5 run the brute-force suites of :mod:`suites`, the
test-side module beside this one, at fixed seeds, and assert their own
literal bounds on the worst errors the suites return.

Two further tests read the efficacy cell and print no PASS line: which part of
the objective keeps the measures (each part switched off in turn), and that no
successful perturbation of the affine victim is shorter than
``support.least_perturbation_bound``.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines while running).
"""
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tkmia.attack import (AttackConfig, filter_instances, select_global, tkmia_attack,
                          tkmia_objective)
from tkmia.core import Instance
from tkmia.harness import ExperimentConfig, SyntheticSpec, gen_synthetic, run_experiment
from tkmia.metrics import ap_at_k, delta_report, evaluate_rows, ndcg_at_k
from tkmia.model import Scorer, TrainConfig, make_affine, train_bce

import suites
from support import (ablated_tkmia_terms, attack, constant_score_model,
                     least_perturbation_bound, outcome_digest, rank_of)

REPO = Path(__file__).resolve().parents[1]


def announce(criterion, name):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


class TestCriterion1VariationalForm:
    def test_variational_equivalence(self):
        start = time.time()
        worst = suites.check_variational_form(101)
        elapsed = time.time() - start
        # the objective on the lambda grid's points around the optimum never
        # undercuts the average-top-k form of its hinge sums
        assert worst["grid undercut"] <= 1e-6
        # at the analytic optimum (the m-th largest gaps) it equals that form
        assert worst["at-optimum gap"] <= 1e-9
        # the objective agrees with the written-out formula at five lambda points
        assert worst["formula gap"] <= 1e-12
        assert elapsed < 5.0, f"variational suite took {elapsed:.2f}s"
        announce(1, "variational top-k equivalence")


class TestCriterion2HingeIdentity:
    def test_nested_hinge_identity(self):
        start = time.time()
        worst = suites.check_hinge_identity(102)
        elapsed = time.time() - start
        assert worst["max violation"] <= 1e-12
        # the attack's collapsed activity test agrees with the nested hinge on every sampled draw
        assert worst["scalar violation"] == 0.0
        assert elapsed < 1.0, f"hinge suite took {elapsed:.2f}s"
        announce(2, "nested hinge identity")


class TestCriterion3Gradients:
    def test_objective_and_baseline_gradients(self):
        start = time.time()
        worst = suites.check_objective_gradients(31)["max relative error"]
        elapsed = time.time() - start
        assert worst <= 1e-4, f"max relative gradient error {worst:.2e}"
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        announce(3, f"gradients vs finite differences, max rel err {worst:.2e}")


def midpoint_gaps(model, cfg, draw, n, rng):
    """The objective at the midpoint of two random (eps, lam1, lam2) points minus
    the mean of its values there, for ``n`` draws; ``draw(rng)`` gives (x, S, Yp).
    eps lies in [-0.5, 0.5] and both lambdas in [0, 1], the feasible set."""
    gaps = np.empty(n)
    for t in range(n):
        x, spec, rel = draw(rng)
        e1, e2 = rng.uniform(-0.5, 0.5, (2, x.shape[0]))
        l1a, l1b, l2a, l2b = rng.uniform(0.0, 1.0, 4)

        def value(eps, lam1, lam2):
            return tkmia_objective(model, x, eps, lam1, lam2, spec, rel, cfg)[0]

        mid = value((e1 + e2) / 2, (l1a + l1b) / 2, (l2a + l2b) / 2)
        gaps[t] = mid - (value(e1, l1a, l2a) + value(e2, l1b, l2b)) / 2
    return gaps


class TestCriterion4Convexity:
    def test_midpoint_convexity_affine_no_sigmoid(self):
        model = make_affine(5, 7, seed=41, sigmoid_output=False)
        cfg = AttackConfig(k=2, eta=0.1, alpha=0.3)
        gaps = midpoint_gaps(model, cfg, lambda rng: (rng.uniform(-0.8, 0.8, 5), (0, 3),
                                                      (0, 2, 3, 5)), 1000,
                             np.random.default_rng(42))
        assert gaps.max() <= 1e-9, f"worst midpoint excess {gaps.max():.3e}"
        announce(4, "objective midpoint convexity without sigmoid")

    def test_midpoint_convexity_on_the_trained_victims_logits(self, efficacy_victim):
        # The efficacy victim's attacked instances: convex on its logits, which a
        # report attacks for a raw victim file; not on its sigmoid scores.
        dataset, victim, pairs, _ = efficacy_victim
        cfg = AttackConfig(k=3, eta=0.05, alpha=1e-4)

        def draw(rng):
            idx, spec = pairs[rng.integers(len(pairs))]
            return dataset[idx].x, spec, dataset[idx].relevant

        gaps = {}
        for sigmoid in (False, True):
            model = Scorer(victim.weights, victim.biases, victim.activation, sigmoid)
            gaps[sigmoid] = midpoint_gaps(model, cfg, draw, 2000, np.random.default_rng(43))
            print(f"criterion 4, trained victim, {'sigmoid' if sigmoid else 'logits'}: "
                  f"{int((gaps[sigmoid] > 1e-9).sum())} of 2000 midpoints violate "
                  f"convexity, worst excess {gaps[sigmoid].max():+.3e}")
        assert gaps[False].max() <= 1e-9, f"worst midpoint excess {gaps[False].max():.3e}"
        announce(4, "objective midpoint convexity on the trained victim's logits")


class TestCriterion5MetricOracles:
    def test_metrics_match_bruteforce(self):
        assert suites.check_metric_oracles(51)["max metric gap"] <= 1e-12
        # frozen hand case: ranked labels (1, 0, 1) at k=3
        assert ndcg_at_k([0.9, 0.5, 0.3], [1, 0, 1], 3) == pytest.approx(0.9197, abs=1e-4)
        announce(5, "metric implementations vs brute-force oracles")

    def test_negative_deltas_representable(self):
        # a perturbation that repairs the ranking makes the delta negative
        clean = evaluate_rows([[0.9, 0.2, 0.8], [0.9, 0.8, 0.1]], [[1, 1, 0]] * 2, 2)
        pert = evaluate_rows([[0.9, 0.8, 0.1]] * 2, [[1, 1, 0]] * 2, 2)
        # two failed attacks, each expelling nothing
        rep = delta_report(clean, pert, np.zeros(2), np.zeros(2, dtype=bool), np.zeros(2))
        assert rep.delta_tk_acc == pytest.approx(-0.5, abs=1e-12)
        assert rep.delta_tk_acc < 0
        announce(5, "negative deltas representable and exact")


# The efficacy report's attack settings at k = 3.
EFFICACY_CONFIG = AttackConfig(k=3, eta=0.05, alpha=1e-4, momentum=0.9, max_iter=300)


def efficacy_cell(seed):
    """The efficacy report's dataset and trained victim, both seeded by ``seed``,
    and the attacked (index, S) pairs at k = 3."""
    dataset = gen_synthetic(SyntheticSpec(n=2000, d=32, c=10, mean_relevant=3.5,
                                          label_correlation=0.5, seed=seed))
    victim = train_bce(dataset, TrainConfig(epochs=60, learning_rate=0.5,
                                            batch_size=64, seed=seed))
    pairs = [(i, s) for i, s in select_global(dataset, (0,))
             if len(dataset[i].relevant) >= 3 + len(s)][:1000]
    return dataset, victim, pairs


def outcome_report(clean_scores, outs, labels, k):
    """The delta report of ``outs``, attacks on the rows of ``clean_scores`` and
    ``labels``: both sides measured as stacked rows."""
    clean, pert = (evaluate_rows(scores, labels, k)
                   for scores in (clean_scores, np.stack([o.scores_after for o in outs])))
    return delta_report(clean, pert, np.array([len(o.specified) - len(o.residual) for o in outs]),
                        np.array([o.success for o in outs]),
                        np.array([o.epsilon_norm for o in outs]))


def attack_cell(method, victim, dataset, pairs):
    """``method``'s outcomes on ``pairs`` under :data:`EFFICACY_CONFIG`, and their
    delta report."""
    rows = [i for i, _ in pairs]
    outs = [attack(method, victim, dataset[i], s, EFFICACY_CONFIG) for i, s in pairs]
    return outs, outcome_report(victim.score(dataset.X[rows]), outs, dataset.Y[rows],
                                EFFICACY_CONFIG.k)


@pytest.fixture(scope="module")
def efficacy_victim():
    """The trained victim of criteria 4, 6 and 7 and of the least-perturbation
    test: its dataset, the victim, the attacked (index, S) pairs at k = 3, and
    the seconds these took."""
    start = time.time()
    return *efficacy_cell(7), time.time() - start


@pytest.fixture(scope="module", params=["sigmoid", "logits"])
def efficacy_run(request, efficacy_victim):
    """Shared end-to-end run for criteria 6 and 7, on the victim's sigmoid scores
    and on its raw logits."""
    start = time.time()
    dataset, victim, pairs, setup = efficacy_victim
    if request.param == "logits":
        victim = Scorer(victim.weights, victim.biases, victim.activation, sigmoid_output=False)
    mean_ap = float(np.mean([ap_at_k(victim.score(inst.x), inst.y, 3)
                             for inst in dataset]))
    reports, outcomes = {}, {}
    for method in ("tkmia", "ml_cw_u", "tkml_ap_u"):
        outcomes[method], reports[method] = attack_cell(method, victim, dataset, pairs)
    return {
        "mean_ap": mean_ap,
        "n_instances": len(pairs),
        "reports": reports,
        "outcomes": outcomes,
        "elapsed": setup + time.time() - start,
        "k": EFFICACY_CONFIG.k,
        "output": request.param,
    }


# The efficacy cell's (attacks, successes, iterations) per method on the
# victim's sigmoid scores: perfbench's efficacy-affine pins at seed 7, on the
# same dataset and victim. They do not depend on the numeric stack.
EFFICACY_COUNTS = {"tkmia": (641, 641, 1227), "ml_cw_u": (641, 359, 84991),
                   "tkml_ap_u": (641, 641, 1524)}


class TestCriterion6Efficacy:
    def test_outcome_counts(self, efficacy_run):
        counts = {method: (len(outs), sum(o.success for o in outs),
                           sum(o.iterations_used for o in outs))
                  for method, outs in efficacy_run["outcomes"].items()}
        print(f"criterion 6, {efficacy_run['output']}: (attacks, successes, iterations) "
              f"{counts}")
        if efficacy_run["output"] == "sigmoid":
            assert counts == EFFICACY_COUNTS

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
        announce(6, f"{run['output']}: victim AP@3 {run['mean_ap']:.4f}, expulsion rate "
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
        announce(7, f"{efficacy_run['output']}: ranking-measure deltas strictly smaller "
                    "than both baselines, expulsion within tolerance")


class TestObjectiveAblation:
    """Which part of tkmia's objective buys its measure imperceptibility: tkmia with
    its pull-up hinge off, its push-down hinge off or its lambdas frozen at 0,
    against the full objective and tkml_ap_u, on the efficacy cell at three
    (dataset, victim) seeds fixed in advance."""

    @pytest.mark.parametrize("seed", [7, 3, 11])
    def test_the_pull_up_hinge_keeps_the_measures(self, monkeypatch, seed):
        dataset, victim, pairs = efficacy_cell(seed)
        reports = {method: attack_cell(method, victim, dataset, pairs)[1]
                   for method in ("tkmia", "tkml_ap_u")}
        for part in ("pull-up", "push-down", "lambdas"):
            with monkeypatch.context() as patch:
                patch.setattr("tkmia.attack._tkmia_terms", ablated_tkmia_terms(part))
                reports[part] = attack_cell("tkmia", victim, dataset, pairs)[1]
        for name, rep in reports.items():
            print(f"seed {seed}, {name}: dP@3 {rep.delta_p_at_k:+.4f}, "
                  f"dmAP@3 {rep.delta_map_at_k:+.4f}, dL {rep.delta_l:.4f}, APer {rep.aper:.3f}")
        full, pull_up_off = reports["tkmia"], reports["pull-up"]
        # Without the pull-up hinge tkmia damages P@3 more than tkml_ap_u does,
        # and P@3 and mAP@3 more than the full objective does.
        assert pull_up_off.delta_p_at_k > reports["tkml_ap_u"].delta_p_at_k
        assert pull_up_off.delta_p_at_k > full.delta_p_at_k
        assert pull_up_off.delta_map_at_k > full.delta_map_at_k
        # Without the push-down hinge S still leaves the top k: filling it with
        # Yp \ S expels S, as |Yp| >= k + |S|.
        assert reports["push-down"].delta_l >= 0.99


class TestLeastPerturbationBound:
    def test_no_success_is_shorter_than_the_affine_bound(self, efficacy_victim, efficacy_run):
        # The sigmoid victim and its logit twin share their weights, and so the bound.
        dataset, victim, pairs, _ = efficacy_victim
        k = efficacy_run["k"]
        for method, outs in efficacy_run["outcomes"].items():
            checked = [(o.epsilon_norm, least_perturbation_bound(victim, dataset[i].x, s, k))
                       for o, (i, s) in zip(outs, pairs) if o.success and o.iterations_used]
            assert all(norm >= bound * (1 - 1e-9) for norm, bound in checked), method
            print(f"{efficacy_run['output']}, {method}: {len(checked)} successes after at "
                  "least one iteration, least ||eps|| / bound "
                  f"{min(norm / bound for norm, bound in checked):.2f}")


class TestCriterion8Boundaries:
    def test_already_outside_yields_identity(self):
        # class 2 relevant but ranked below k=2 from the start
        model = constant_score_model([0.9, 0.8, 0.1, 0.7])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        out = tkmia_attack(model, inst, (2,), AttackConfig(k=2, eta=0.1, max_iter=100))
        assert out.success and out.iterations_used == 0
        assert np.all(out.epsilon == 0.0)
        rep = outcome_report(np.stack([out.scores_before]), [out], np.stack([inst.y]), 2)
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


def criterion_9_config(base):
    """Criterion 9's report config, as a config file holds it, writing into ``base``."""
    return {
        "seed": 91,
        "dataset": {"n": 300, "d": 12, "c": 8, "mean_relevant": 3.0,
                    "label_correlation": 0.4, "seed": 91},
        "victim": {"arch": "affine", "epochs": 60, "seed": 91},
        "k_grid": [2, 3],
        "scheme": {"type": "random", "m": 1},
        "methods": ["tkmia", "ml_cw_u", "tkml_ap_u"],
        "attack": {"eta": 0.05, "alpha": 1e-4, "max_iter": 100},
        "out_csv": str(base / "report.csv"),
        "out_outcomes": str(base / "outcomes.jsonl"),
        "max_instances": 50,
    }


class TestCriterion9Determinism:
    def test_report_pipeline_byte_identical(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        run_experiment(ExperimentConfig.from_dict(criterion_9_config(first)))
        run_experiment(ExperimentConfig.from_dict(criterion_9_config(second)))
        assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
        assert (first / "outcomes.jsonl").read_bytes() == (second / "outcomes.jsonl").read_bytes()
        announce(9, "byte-identical reports under fixed seeds")

    def test_outcomes_do_not_depend_on_the_numeric_stack(self, tmp_path):
        # The report bytes depend on the BLAS kernel and numpy's SIMD targets; the
        # outcomes (successes, iterations, residual sets and measures) must not.
        # The second stack is OpenBLAS's Prescott kernel with numpy's active
        # dispatch targets disabled, as CI's second-stack step sets it.
        probe = str(REPO / ".github" / "numeric_stack.py")
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                          env.get("PYTHONPATH")]))
        active = subprocess.run([sys.executable, probe, "--active-dispatch"], env=env,
                                capture_output=True, text=True, check=True).stdout.strip()
        stacks = {"default": env, "Prescott, no dispatch": {
            **env, "OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": active}}
        seen = {}
        for name, stack_env in stacks.items():
            base = tmp_path / name.split(",")[0]
            base.mkdir()
            (base / "config.json").write_text(json.dumps(criterion_9_config(base)))
            subprocess.run([sys.executable, "-m", "tkmia.cli", "report", "--config",
                            str(base / "config.json")], env=stack_env, capture_output=True,
                           check=True)
            lines = subprocess.run([sys.executable, probe], env=stack_env, capture_output=True,
                                   text=True, check=True).stdout.splitlines()
            stack = "; ".join(line for line in lines
                              if line.startswith(("OpenBLAS kernel:", "SIMD dispatch:")))
            outcomes = (base / "outcomes.jsonl").read_bytes()
            seen[name] = (stack, outcome_digest(base / "outcomes.jsonl"),
                          hashlib.sha256(outcomes).hexdigest()[:16])
            print(f"{name}: {stack}; outcome digest {seen[name][1]}, byte digest {seen[name][2]}")
        (stack_a, outcome_a, _), (stack_b, outcome_b, _) = seen.values()
        if stack_a == stack_b:
            print("the second stack equals the default: numpy's OpenBLAS is not a "
                  "DYNAMIC_ARCH build, or its kernel is unknown, and no dispatch target is active")
        assert outcome_a == outcome_b
        announce(9, f"outcome digest {outcome_a} on both numeric stacks")
