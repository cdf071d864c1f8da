import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from tkmia.attack import (
    BASELINE_METHODS,
    AttackConfig,
    BaselineSpec,
    GlobalScheme,
    RandomScheme,
    _flat_run,
    _ml_cw_u_pair,
    _tkmia_terms,
    _tkml_ap_u_pair,
    filter_instances,
    ineligible,
    ml_cw_u_loss,
    residual_set,
    run_attack_loop,
    run_baseline,
    select_global,
    select_random,
    success_check,
    tkml_ap_u_loss,
    tkmia_attack,
    tkmia_objective,
)
from tkmia.core import Dataset, Instance, hinge
from tkmia.harness import SyntheticSpec, gen_synthetic, load_dataset, save_dataset
from tkmia.model import Scorer, TrainConfig, make_affine, make_mlp, train_bce

from support import (
    CountingScorer,
    attack,
    constant_score_model,
    numpy_tkmia_terms,
    rank_of,
)


class TestObjectiveValue:
    def test_all_equal_scores_zero_objective(self):
        model = constant_score_model([0.5, 0.5, 0.5, 0.5])
        cfg = AttackConfig(k=2, eta=0.1, alpha=0.0)
        value, g_eps, g1, g2 = tkmia_objective(
            model, np.zeros(3), np.zeros(3), 0.0, 0.0, (0,), (0, 1, 2), cfg)
        assert value == 0.0
        assert np.all(g_eps == 0.0)

    def test_lambdas_at_one_leave_only_penalty(self):
        model = constant_score_model([0.9, 0.4, 0.2, 0.7])
        cfg = AttackConfig(k=2, eta=0.1, alpha=0.5)
        eps = np.array([0.2, -0.1, 0.3])
        value, _, _, _ = tkmia_objective(
            model, np.zeros(3), eps, 1.0, 1.0, (0,), (0, 3), cfg)
        assert value == pytest.approx(2.0 + 0.25 * float(eps @ eps), abs=1e-12)

    @pytest.mark.parametrize("lam1, lam2", [(-0.1, 0.0), (0.0, 1.5)])
    def test_lambdas_outside_the_unit_interval_rejected(self, lam1, lam2):
        model = constant_score_model([0.9, 0.4, 0.2, 0.7])
        with pytest.raises(ValueError) as raised:
            tkmia_objective(model, np.zeros(3), np.zeros(3), lam1, lam2, (0,), (0, 3),
                            AttackConfig(k=2, eta=0.1))
        assert str(raised.value) == "lambdas must lie in [0, 1]"

    def test_hinge_sums_match_gap_definitions(self):
        # At lam1 = lam2 = 0, alpha = 0 the objective is the two gap sums
        # sum_i [f_smax - f_i]_+ / (c - k) and sum_j [f_j - f_ymin]_+ / k,
        # with smax the best specified label and ymin the worst relevant
        # label outside the specified set.
        rng = np.random.default_rng(9)
        for _ in range(200):
            c = int(rng.integers(3, 12))
            k = int(rng.integers(1, c))
            model = constant_score_model(rng.uniform(0.05, 0.95, c))
            scores = model.score(np.zeros(3))
            rel = sorted(rng.choice(c, size=int(rng.integers(2, c + 1)), replace=False).tolist())
            spec = rel[: int(rng.integers(1, len(rel)))]
            smax = max(scores[i] for i in spec)
            ymin = min(scores[i] for i in rel if i not in spec)
            expected = (sum(hinge(smax - f) for f in scores) / (c - k)
                        + sum(hinge(f - ymin) for f in scores) / k)
            value, _, _, _ = tkmia_objective(model, np.zeros(3), np.zeros(3), 0.0, 0.0,
                                             spec, rel, AttackConfig(k=k, eta=0.1))
            assert value == pytest.approx(expected, abs=1e-12)

    def test_empty_rest_rejected(self):
        model = constant_score_model([0.9, 0.4, 0.2])
        cfg = AttackConfig(k=1, eta=0.1)
        with pytest.raises(ValueError):
            tkmia_objective(model, np.zeros(3), np.zeros(3), 0.0, 0.0,
                            (0, 1), (0, 1), cfg)

    def test_k_bounds(self):
        model = constant_score_model([0.9, 0.4, 0.2])
        with pytest.raises(ValueError):
            tkmia_objective(model, np.zeros(3), np.zeros(3), 0.0, 0.0, (0,),
                            (0, 1), AttackConfig(k=3, eta=0.1))


class TestSuccessCheck:
    def test_boundary_equality_counts(self):
        # class 2 sits exactly at the (k+1)-th score
        assert success_check([0.9, 0.8, 0.1], (2,), (0, 1, 2), 2)

    def test_rank_reading(self):
        assert success_check([0.9, 0.1, 0.8], (1,), (0, 1), 2)
        assert not success_check([0.9, 0.1, 0.8], (2,), (0, 1, 2), 2)

    def test_strict_requires_gap_closed(self):
        # c1 holds but the k-th score still tops a remaining relevant label
        scores = [0.9, 0.2, 0.8, 0.3]
        assert success_check(scores, (1,), (0, 1, 3), 2, mode="c1_only")
        assert not success_check(scores, (1,), (0, 1, 3), 2, mode="strict")
        # boundary: k-th score equals the lowest remaining relevant score
        scores = [0.9, 0.1, 0.2, 0.85]
        assert success_check(scores, (1,), (0, 1, 3), 2, mode="strict")

    def test_agrees_with_rank_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            c = int(rng.integers(3, 12))
            scores = rng.uniform(0, 1, c)
            rel = sorted(rng.choice(c, size=int(rng.integers(2, c + 1)), replace=False).tolist())
            spec = rel[: int(rng.integers(1, len(rel)))]
            k = int(rng.integers(1, c))
            expected = all(rank_of(scores, s) > k for s in spec)
            assert success_check(scores, spec, rel, k) == expected

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            success_check([0.9, 0.1, 0.8], (1,), (0, 1), 3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError) as raised:
            success_check([0.9, 0.1, 0.8], (1,), (0, 1), 2, mode="loose")
        assert str(raised.value) == "unknown success mode 'loose'"


@pytest.mark.bitwise
class TestTkmiaTermsOnFloats:
    """``_tkmia_terms`` on a list of floats gives the bytes of the same arithmetic
    on arrays, :func:`support.numpy_tkmia_terms`."""

    def test_matches_the_array_terms(self):
        rng = np.random.default_rng(30)
        active = flat = 0
        for c in range(3, 13):
            for k in range(1, c):
                for draw in range(8):
                    # Uniform scores and logits, and scores with ties: few levels or rounded.
                    scores = [rng.uniform(0.0, 1.0, c), rng.uniform(-4.0, 4.0, c),
                              rng.integers(0, 3, c) / 2.0,
                              np.round(rng.uniform(0.0, 1.0, c), 1)][draw % 4]
                    labels = rng.permutation(c)
                    n_spec = int(rng.integers(1, c))
                    n_rest = int(rng.integers(1, c - n_spec + 1))
                    spec = tuple(sorted(labels[:n_spec].tolist()))
                    rest = tuple(sorted(labels[n_spec:n_spec + n_rest].tolist()))
                    top, bottom = scores[list(spec)].max(), scores[list(rest)].min()
                    # At 0, at 1, between, and at a gap, where its hinge turns off.
                    gap1 = float(top - scores[int(rng.integers(c))])
                    gap2 = float(scores[int(rng.integers(c))] - bottom)
                    for lam1, lam2 in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                                       tuple(rng.uniform(0.0, 1.0, 2)),
                                       (min(max(gap1, 0.0), 1.0), min(max(gap2, 0.0), 1.0))]:
                        lam1, lam2 = float(lam1), float(lam2)
                        got = _tkmia_terms(scores.tolist(), lam1, lam2, spec, rest, k)
                        want = numpy_tkmia_terms(scores, lam1, lam2, np.array(spec),
                                                 np.array(rest), k)
                        assert (got[0] is None) == (want[0] is None)
                        if got[0] is None:
                            flat += 1
                        else:
                            active += 1
                            assert got[0].dtype == np.float64
                            assert got[0].tobytes() == want[0].tobytes()
                        assert all(type(g) is float for g in got[1:])
                        assert [g.hex() for g in got[1:]] == [g.hex() for g in want[1:]]
        assert active > 0 and flat > 0


def trained_toy_victim(seed=0):
    """Six classes, affine victim trained until relevant labels rank high."""
    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(-1, 1, (6, 12))
    instances = []
    for _ in range(400):
        y = np.zeros(6, dtype=np.int64)
        y[rng.choice(6, size=rng.integers(3, 6), replace=False)] = 1
        x = np.tanh(prototypes[y == 1].mean(axis=0) + 0.1 * rng.standard_normal(12))
        instances.append(Instance(x=x, y=y))
    model = train_bce(instances, TrainConfig(epochs=150, learning_rate=1.0,
                                             batch_size=64, seed=seed))
    return model, instances


class TestOneLabelSetCheckAndKRule:
    @pytest.mark.parametrize("specified, message", [
        ((0, 0), r"specified set \[0, 0\] repeats a label"),
        ((5,), r"specified set \[5\] has a label outside \[0, 4\)"),
        ((-3,), r"specified set \[-3\] has a label outside \[0, 4\)"),
        ((), "specified set must be non-empty"),
    ], ids=["repeat", "above-c", "negative", "empty"])
    def test_residual_set_checks_the_specified_set(self, specified, message):
        with pytest.raises(ValueError, match=message):
            residual_set([0.9, 0.8, 0.6, 0.1], specified, 2)

    def test_residual_set_is_ascending(self):
        assert residual_set([0.9, 0.8, 0.6, 0.1], (2, 1, 0), 2) == (0, 1)

    def test_every_loss_rejects_a_repeated_relevant_label(self):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        zeros = np.zeros(3)
        repeats = r"relevant set \[0, 0, 1, 2\] repeats a label"
        with pytest.raises(ValueError, match=repeats):
            tkmia_objective(model, zeros, zeros, 0.0, 0.0, (0,), (0, 0, 1, 2),
                            AttackConfig(k=1, eta=0.1))
        with pytest.raises(ValueError, match=repeats):
            ml_cw_u_loss(model, zeros, zeros, (0, 0, 1, 2))
        with pytest.raises(ValueError, match=repeats):
            tkml_ap_u_loss(model, zeros, zeros, (0, 0, 1, 2), k=1)
        with pytest.raises(ValueError, match=repeats):
            success_check(model.score(zeros), (0,), (0, 0, 1, 2), 1)

    def test_k_equal_to_c_rejected_with_one_message(self):
        model = constant_score_model([0.9, 0.4, 0.2])
        zeros = np.zeros(3)
        calls = [
            lambda: tkmia_objective(model, zeros, zeros, 0.0, 0.0, (0,), (0, 1),
                                    AttackConfig(k=3, eta=0.1)),
            lambda: tkml_ap_u_loss(model, zeros, zeros, (0,), k=3),
            lambda: success_check(model.score(zeros), (0,), (0, 1), 3),
        ]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == "k=3 out of range [1, 2]"


class TestTkmiaAttack:
    def test_step_is_none_exactly_when_no_hinge_is_active(self):
        # Drive the real loop with chosen score vectors: the scorer's _vjp
        # returns the scripted scores of each iteration and records which
        # iterations pull back a cotangent, and whether it is zero.
        c, k, eta = 6, 3, 0.03
        spec, rest = [0], [1, 2, 3]
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 1, 0, 0])
        sequence = [
            [0.9, 0.1, 0.5, 0.5, 0.6, 0.6],  # n1 = n2 = 5: both lambdas grow
            [0.9, 0.1, 0.5, 0.5, 0.6, 0.6],
            [0.9, 0.1, 0.5, 0.5, 0.6, 0.6],
            [0.5, 0.48, 0.52, 0.5, 0.5, 0.5],  # every gap within its lambda
            [0.5, 0.5, 0.9, 0.5, 0.5, 0.5],  # n1 = 0, n2 = 1
            [0.9, 0.9, 0.9, 0.9, 0.9, 0.1],  # n1 = 1, n2 = 0
            [0.5] * 6,  # all equal: flat at any lambdas
        ]

        class Scripted(Scorer):
            def _vjp(self, x):
                it = len(self.forward)
                self.forward.append(it)

                def pullback(cotangent):
                    self.pulled.append((it, bool(np.any(cotangent))))
                    return np.zeros(3)

                # specified label 0 stays in the top k, so no iteration succeeds
                return np.array(self.script[min(it, len(self.script) - 1)]), pullback

        base = make_affine(3, c, seed=0)
        lam1 = lam2 = 0.0
        flat = []
        for n, scores in enumerate(map(np.array, sequence), start=1):
            scorer = Scripted(base.weights, base.biases)
            scorer.script, scorer.forward, scorer.pulled = sequence[:n], [], []
            out = tkmia_attack(scorer, inst, spec, AttackConfig(k=k, eta=eta, max_iter=n))
            assert (out.iterations_used, out.success) == (n, False)
            s_max = scores[spec].max()
            y_min = scores[rest].min()
            n1 = int((s_max - scores - lam1 > 0.0).sum())
            n2 = int((scores - y_min - lam2 > 0.0).sum())
            flat.append(n1 == n2 == 0)
            # A non-zero cotangent is pulled back on every iteration whose loss
            # is not flat; zeros are pulled back once, on the first flat one.
            assert [it for it, nonzero in scorer.pulled if nonzero] == [
                it for it in range(n) if not flat[it]]
            assert [it for it, nonzero in scorer.pulled if not nonzero] == [
                it for it in range(n) if flat[it]][:1]
            lam1 = min(max(lam1 - eta * (1.0 - n1 / (c - k)), 0.0), 1.0)
            lam2 = min(max(lam2 - eta * (1.0 - n2 / k), 0.0), 1.0)
            assert (out.lambda1, out.lambda2) == (lam1, lam2)
            if n == 4:  # the flat step moved both lambdas down by eta
                assert lam1 == pytest.approx(0.03) and lam2 == pytest.approx(0.03)
        assert flat == [False, False, False, True, False, False, True]

    def test_already_successful_returns_zero_epsilon(self):
        model = constant_score_model([0.9, 0.8, 0.1, 0.7])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        cfg = AttackConfig(k=2, eta=0.1, max_iter=50)
        out = tkmia_attack(model, inst, (2,), cfg)
        assert out.success
        assert out.iterations_used == 0
        assert np.all(out.epsilon == 0.0)
        assert out.residual == ()
        np.testing.assert_array_equal(out.scores_before, out.scores_after)

    def test_zero_budget_returns_failure(self):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        cfg = AttackConfig(k=2, eta=0.1, max_iter=0)
        out = tkmia_attack(model, inst, (0,), cfg)
        assert not out.success
        assert np.all(out.epsilon == 0.0)
        assert out.iterations_used == 0

    def test_filter_violation_rejected(self):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        inst = Instance(x=np.zeros(3), y=[1, 1, 0, 0])
        with pytest.raises(ValueError):
            tkmia_attack(model, inst, (0,), AttackConfig(k=2, eta=0.1))

    @pytest.mark.parametrize("method", ["tkmia", *BASELINE_METHODS])
    @pytest.mark.parametrize("y, spec, message", [
        ([1, 1, 1, 0], (3,), "specified set must be a subset of the relevant labels"),
        ([1, 1, 1, 0], (0, 3), "specified set must be a subset of the relevant labels"),
        ([1, 1, 0, 0], (0, 1), "no relevant labels left outside the specified set"),
    ], ids=["outside", "partly-outside", "nothing-left"])
    def test_specified_outside_relevant_rejected(self, method, y, spec, message):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        inst = Instance(x=np.zeros(3), y=y)
        with pytest.raises(ValueError) as raised:
            attack(method, model, inst, spec, AttackConfig(k=1, eta=0.1))
        assert str(raised.value) == message

    def test_repeated_specified_label_rejected(self):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        cfg = AttackConfig(k=2, eta=0.1)
        repeats = r"specified set \[0, 0\] repeats a label"
        with pytest.raises(ValueError, match=repeats):
            tkmia_attack(model, inst, (0, 0), cfg)
        for method in BASELINE_METHODS:
            with pytest.raises(ValueError, match=repeats):
                run_baseline(model, inst, (0, 0), BaselineSpec(method, cfg))
        with pytest.raises(ValueError, match=repeats):
            tkmia_objective(model, inst.x, np.zeros(3), 0.0, 0.0, (0, 0), inst.relevant, cfg)
        with pytest.raises(ValueError, match=repeats):
            success_check(model.score(inst.x), (0, 0), inst.relevant, 2)
        # |Yp| = 3 >= k + |S| holds for S = (0,), which names the same label
        assert tkmia_attack(model, inst, (0,), cfg).specified == (0,)

    def test_victim_class_count_must_match_instance(self):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1, 0.5])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        cfg = AttackConfig(k=1, eta=0.1)
        mismatch = "instance has 4 classes, but the victim scores 5"
        with pytest.raises(ValueError, match=mismatch):
            tkmia_attack(model, inst, (0,), cfg)
        for method in BASELINE_METHODS:
            with pytest.raises(ValueError, match=mismatch):
                run_baseline(model, inst, (0,), BaselineSpec(method, cfg))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_gradient_reported_with_iteration(self, value):
        model = make_affine(3, 4, seed=1)

        class Broken(Scorer):
            def _vjp(self, x):
                scores, _ = super()._vjp(x)
                return scores, lambda cotangent: np.full(3, value)

        broken = Broken(model.weights, model.biases)
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        spec = (int(np.argmax(broken.score(inst.x)[:3])),)
        cfg = AttackConfig(k=1, eta=0.1, max_iter=5)
        if np.isfinite(value):
            # Finite, though its squared norm overflows: the attack runs its budget.
            out = tkmia_attack(broken, inst, spec, cfg)
            assert np.isfinite(out.epsilon).all()
        else:
            with pytest.raises(FloatingPointError, match="non-finite gradient at iteration 0"):
                tkmia_attack(broken, inst, spec, cfg)

    def test_strict_mode_success_implies_both_conditions(self):
        model, instances = trained_toy_victim(seed=3)
        cfg = AttackConfig(k=2, eta=0.05, alpha=1e-4, max_iter=300,
                           success_mode="strict")
        ran = strict_hits = 0
        for inst in instances[:40]:
            if len(inst.relevant) < cfg.k + 1:
                continue
            scores = model.score(inst.x)
            spec = (max(inst.relevant, key=lambda i: scores[i]),)
            out = tkmia_attack(model, inst, spec, cfg)
            ran += 1
            if out.success:
                strict_hits += 1
                after = out.scores_after
                rest = [i for i in inst.relevant if i not in spec]
                kth = np.sort(after)[::-1][cfg.k - 1]
                assert all(rank_of(after, s) > cfg.k for s in spec)
                assert kth <= min(after[i] for i in rest) + 1e-12
        assert ran >= 10 and strict_hits >= 1

    def test_end_to_end_on_trained_victim(self):
        model, instances = trained_toy_victim(seed=0)
        cfg = AttackConfig(k=2, eta=0.05, alpha=1e-4, max_iter=300)
        attacked = succeeded = 0
        for inst in instances[:80]:
            relevant = inst.relevant
            if len(relevant) < cfg.k + 1:
                continue
            # attack the best-ranked relevant label so the run is non-trivial
            scores = model.score(inst.x)
            spec = (max(relevant, key=lambda i: scores[i]),)
            out = tkmia_attack(model, inst, spec, cfg)
            attacked += 1
            lo, hi = cfg.clip_domain
            assert np.all(inst.x + out.epsilon >= lo - 1e-12)
            assert np.all(inst.x + out.epsilon <= hi + 1e-12)
            assert 0.0 <= out.lambda1 <= 1.0 and 0.0 <= out.lambda2 <= 1.0
            assert type(out.lambda1) is float and type(out.lambda2) is float
            assert set(out.residual) <= set(out.specified)
            if out.success:
                succeeded += 1
                after = out.scores_after
                for s in spec:
                    assert rank_of(after, s) > cfg.k
                if out.iterations_used == 0:
                    assert np.all(out.epsilon == 0.0)
        assert attacked >= 30
        assert succeeded / attacked >= 0.9

    def test_delta_threshold_stops_once_that_many_labels_are_out(self):
        # |S| = 2 and delta_threshold = 1: the attack stops at the first
        # iteration with one label of S out of the top k, the other still in.
        rng = np.random.default_rng(4)
        model = make_mlp(8, 10, 7, seed=5)
        cfg = AttackConfig(k=2, eta=0.1, alpha=1e-4, max_iter=200, delta_threshold=1)
        stopped_with_one_left = 0
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, 8)
            order = np.argsort(-model.score(x), kind="stable")
            spec = tuple(sorted(int(i) for i in order[:2]))
            inst = Instance(x=x, y=[1 if i in order[:5] else 0 for i in range(7)])
            out = tkmia_attack(model, inst, spec, cfg)
            assert out.success == (len(out.residual) <= 1)
            if out.success:
                # One iteration fewer leaves both labels in the top k.
                short = tkmia_attack(model, inst, spec,
                                     dataclasses.replace(cfg, max_iter=out.iterations_used - 1))
                assert (short.success, short.residual) == (False, spec)
            stopped_with_one_left += len(out.residual) == 1
        assert stopped_with_one_left > 0


def assert_same_outcome(new, ref):
    assert (new.success, new.iterations_used, new.residual) == (
        ref.success, ref.iterations_used, ref.residual)
    # A numpy integer would compare equal here and then fail to serialize.
    assert type(new.iterations_used) is type(ref.iterations_used) is int
    assert (new.lambda1.hex(), new.lambda2.hex()) == (ref.lambda1.hex(), ref.lambda2.hex())
    for name in ("epsilon", "scores_before", "scores_after"):
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes()


class SwitchScorer(Scorer):
    """Scores ``active`` at the input 0 and ``flat`` anywhere else; counts its
    forward passes, one per stacked row. A cotangent pulls back to its 1-norm
    in every input coordinate, so zeros give zeros."""

    def __init__(self, d, active, flat):
        base = make_affine(d, len(active), seed=0)
        super().__init__(base.weights, base.biases)
        self.active, self.flat = np.array(active), np.array(flat)
        self.forward = 0

    def score(self, x):
        return (self.flat if np.any(x) else self.active).copy()

    def _vjp(self, x):
        self.forward += 1
        d = self.in_dim
        return self.score(x), lambda cot: np.full(d, float(np.abs(cot).sum()))

    def _scores(self, X):
        self.forward += len(X)
        return np.array([self.score(x) for x in X])


def switch_scorer():
    """ml_cw_u's hinge is active at the input 0 only; label 0 stays on top."""
    return SwitchScorer(3, active=[0.9, 0.8, 0.7, 0.2], flat=[0.9, 0.8, 0.3, 0.5])


@pytest.mark.bitwise
class TestFixedPointExit:
    """An iteration whose update leaves eps, velocity and both lambdas bitwise
    unchanged ends the attack with the outcome of the whole budget, which the
    reference loop runs iteration by iteration."""

    @pytest.mark.parametrize("arch", ["affine", "mlp"])
    @pytest.mark.parametrize("max_iter", [0, 1, 300])
    @pytest.mark.parametrize("variant", ["c1_only", "delta1", "strict"])
    def test_flat_ml_cw_u_hinge_runs_one_forward_pass(self, arch, max_iter, variant):
        model = make_mlp(5, 8, 6, seed=3) if arch == "mlp" else make_affine(5, 6, seed=3)
        x = np.random.default_rng(1).uniform(-0.5, 0.5, 5)
        order = np.argsort(-model.score(x), kind="stable")
        # The third-ranked class is irrelevant and outranks the fourth, which is
        # relevant: the hinge (worst relevant minus best irrelevant) is flat.
        y = np.zeros(6, dtype=np.int64)
        y[order[[0, 1, 3, 4]]] = 1
        inst = Instance(x=x, y=y)
        spec = tuple(sorted(int(i) for i in order[:2 if variant == "delta1" else 1]))
        cfg = AttackConfig(k=2, eta=0.05, alpha=1e-4, max_iter=max_iter,
                           delta_threshold=1 if variant == "delta1" else None,
                           success_mode="strict" if variant == "strict" else "c1_only")
        counting = CountingScorer(model)
        out = attack("ml_cw_u", counting, inst, spec, cfg)
        assert counting.calls["vjp"] == out.forward_passes == 1
        assert (out.success, out.iterations_used) == (False, max_iter)
        # The first update leaves the state as it is; a budget of 0 makes none.
        assert out.stop == ("fixed_point" if max_iter else "budget")
        assert_same_outcome(out, attack("ml_cw_u", model, inst, spec, cfg, reference=True))

    @pytest.mark.parametrize("mode", ["c1_only", "strict"])
    def test_tkmia_stops_once_the_lambdas_settle(self, mode):
        # Zero weights: eps and velocity stay 0 from the start, while both
        # lambdas climb until n1 = c - k and n2 = k make their gradients 0.
        model = constant_score_model([0.9, 0.1, 0.5, 0.5, 0.6, 0.6])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 1, 0, 0])
        cfg = AttackConfig(k=3, eta=0.03, max_iter=300, success_mode=mode)
        counting = CountingScorer(model)
        out = attack("tkmia", counting, inst, (0,), cfg)
        assert 2 < counting.calls["vjp"] < 300
        assert out.stop == "fixed_point"
        assert 0.3 <= out.lambda1 < 0.4 and 0.4 <= out.lambda2 < 0.5
        assert_same_outcome(out, attack("tkmia", model, inst, (0,), cfg, reference=True))

    def test_decaying_velocity_is_not_cut_short(self):
        # One active step moves eps off 0; every later step is flat, and with
        # alpha = 0 only the decaying velocity moves eps. Eps stops changing
        # long before the velocity does, which keeps changing up to the budget.
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        cfg = AttackConfig(k=1, eta=0.01, alpha=0.0, max_iter=1000)
        updates = []
        ref = attack("ml_cw_u", switch_scorer(), inst, (0,), cfg, reference=True,
                     on_update=lambda before, after: updates.append((before, after)))
        assert any(b[0] == a[0] and b[1] != a[1] for b, a in updates)
        assert all(b != a for b, a in updates)
        model = switch_scorer()
        out = attack("ml_cw_u", model, inst, (0,), cfg)
        assert model.forward == 1001
        assert out.stop == "budget"
        assert np.all(out.epsilon != 0.0)
        assert_same_outcome(out, ref)

    def test_velocity_stuck_in_the_subnormals_is_a_fixed_point(self):
        # Far enough into the decay, momentum * velocity rounds back to the
        # same subnormal velocity, and eta * velocity to 0: a fixed point.
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        cfg = AttackConfig(k=1, eta=0.01, alpha=0.0, max_iter=8000)
        model = switch_scorer()
        out = attack("ml_cw_u", model, inst, (0,), cfg)
        assert 1001 < model.forward < 8000
        assert out.stop == "fixed_point"
        assert_same_outcome(out, attack("ml_cw_u", switch_scorer(), inst, (0,), cfg,
                                        reference=True))


def path_norms(config, n):
    """The 1-norms of the first n projected inputs of an attack on x = 0 in
    three dimensions whose every score cotangent pulls back to ones."""
    lo, hi = config.clip_domain
    eps = velocity = np.zeros(3)
    norms = []
    for _ in range(n):
        norms.append(np.abs(eps).sum())
        velocity = config.momentum * velocity + (1.0 + config.alpha * eps)
        eps = np.clip(eps - config.eta * velocity, lo, hi)
    return np.array(norms)


class PathScorer(Scorer):
    """Scores ``script[n]`` at the n-th projected input of ``config``'s attack
    on x = 0, and the last entry of the script past its end.

    Every cotangent, zeros included, pulls back to ones, so the path of eps
    does not depend on the scores and :func:`path_norms` finds it in advance.
    The scorer tells the iterates apart by their 1-norm, in :meth:`_vjp` and
    in each row of :meth:`_scores` alike; it counts both.
    """

    def __init__(self, script, config):
        base = make_affine(3, 6, seed=0)
        super().__init__(base.weights, base.biases)
        self.script = [np.array(scores, dtype=float) for scores in script]
        norms = path_norms(config, config.max_iter + 1)
        self.bounds = (norms[1:] + norms[:-1]) / 2
        self.forward = self.rows = 0

    def score(self, x):
        n = int(np.searchsorted(self.bounds, np.abs(x).sum()))
        return self.script[min(n, len(self.script) - 1)].copy()

    def _vjp(self, x):
        self.forward += 1
        return self.score(x), lambda cot: np.ones(3)

    def _scores(self, X):
        self.rows += len(X)
        return np.array([self.score(x) for x in X])


# Relevant labels 0-3, irrelevant 4 and 5, k = 2. Each baseline's hinge is
# active at ACTIVE and flat at the rest. At k = 2 with S = (0,): COUNT expels
# label 0, but its 2nd score is above the lowest of Yp \ S; STRICT expels
# label 0 with its 2nd score tied with the lowest of Yp \ S. With S = (0, 1),
# ONE expels label 1 only.
ACTIVE = [0.9, 0.8, 0.7, 0.6, 0.2, 0.1]
FLAT = [0.5] * 6
COUNT = [0.3, 0.2, 0.25, 0.35, 0.9, 0.8]
STRICT = [0.3, 0.5, 0.5, 0.5, 0.5, 0.5]
ONE = [0.5, 0.3, 0.5, 0.5, 0.5, 0.5]
PATH_INSTANCE = Instance(x=np.zeros(3), y=[1, 1, 1, 1, 0, 0])
PATH_CONFIG = AttackConfig(k=2, eta=0.01, alpha=1e-3, max_iter=300, clip_domain=(-100.0, 100.0))


@pytest.mark.bitwise
@pytest.mark.parametrize("method", BASELINE_METHODS)
class TestFlatStretch:
    """A baseline's flat stretch is scored in stacked rows, and each way it ends
    gives the reference loop's outcome bit for bit. Iteration 0 is active, so
    the stretch starts at iteration 1 and the loop hands it over at 2."""

    def run(self, method, script, config=PATH_CONFIG, spec=(0,), on_update=None):
        scorer = PathScorer(script, config)
        out = attack(method, scorer, PATH_INSTANCE, spec, config)
        ref = attack(method, PathScorer(script, config), PATH_INSTANCE, spec, config,
                     reference=True, on_update=on_update)
        assert_same_outcome(out, ref)
        return out, scorer

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_hinge_turns_active(self, method, length):
        script = ([ACTIVE] + [FLAT] * length) * 3 + [ACTIVE]
        config = dataclasses.replace(PATH_CONFIG, max_iter=len(script) + 2)
        out, scorer = self.run(method, script, config)
        assert (out.success, out.iterations_used) == (False, config.max_iter)
        # The loop runs each stretch's first iteration; the rest run no _vjp.
        assert scorer.forward == config.max_iter + 1 - 3 * (length - 1)
        assert scorer.forward + scorer.rows <= 3 * (config.max_iter + 1)

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    @pytest.mark.parametrize("mode", ["c1_only", "strict", "delta1"])
    def test_success(self, method, length, mode):
        # Under strict the stretch runs on through COUNT's rows.
        ends = {"c1_only": [COUNT], "strict": [COUNT] * length + [STRICT], "delta1": [ONE]}
        script = [ACTIVE] + [FLAT] * length + ends[mode]
        config = dataclasses.replace(PATH_CONFIG, success_mode="strict" if mode == "strict"
                                     else "c1_only",
                                     delta_threshold=1 if mode == "delta1" else None)
        out, scorer = self.run(method, script, config, spec=(0, 1) if mode == "delta1" else (0,))
        assert (out.success, out.iterations_used) == (True, len(script) - 1)
        assert scorer.forward <= 3

    def test_fixed_point_inside_a_chunk(self, method):
        # eps reaches the clip bound, and then the velocity settles on a fixed point.
        config = dataclasses.replace(PATH_CONFIG, max_iter=1000, clip_domain=(-1.0, 1.0))
        updates = []
        out, scorer = self.run(method, [ACTIVE, FLAT], config,
                               on_update=lambda before, after: updates.append(before == after))
        fixed = updates.index(True)
        # Chunks of 1, 2, 4, ... rows from iteration 2 span iterations 257-512 in turn.
        assert 257 < fixed < 512
        assert (out.success, out.iterations_used) == (False, 1000)
        assert scorer.forward + scorer.rows <= fixed + 2

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_budget_end(self, method, length):
        config = dataclasses.replace(PATH_CONFIG, max_iter=length)
        out, scorer = self.run(method, [ACTIVE, FLAT], config)
        assert (out.success, out.iterations_used) == (False, length)
        assert scorer.forward + scorer.rows <= length + 2

    def test_non_finite_gradient_names_its_iteration(self, method):
        # alpha * eta = 8 makes each flat step overshoot, so eps swings wider
        # until alpha * eps overflows, hundreds of iterations into the stretch.
        config = dataclasses.replace(PATH_CONFIG, alpha=1e299, eta=8e-299, max_iter=1000,
                                     clip_domain=(-1e10, 1e10))
        errors = []
        for reference in (False, True):
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as raised:
                attack(method, SwitchScorer(3, ACTIVE, FLAT), PATH_INSTANCE, (0,), config,
                       reference=reference)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] == "non-finite gradient at iteration 398"

    def test_alternating_hinge(self, method):
        script = [ACTIVE, FLAT] * 20 + [ACTIVE, FLAT, FLAT] * 10
        config = dataclasses.replace(PATH_CONFIG, max_iter=len(script) + 1)
        out, scorer = self.run(method, script, config)
        assert (out.success, out.iterations_used) == (False, config.max_iter)
        assert scorer.forward + scorer.rows <= 3 * (config.max_iter + 1)

    # The stretch starts at iteration 2, so its chunks of 16 rows cover 17-32.
    @pytest.mark.parametrize("fixed", [17, 32], ids=["first-row", "last-row"])
    def test_fixed_point_on_a_chunk_edge(self, method, fixed):
        # eps sits on the clip bound from iteration 1, and the velocity, 2 - 2^-e at
        # iteration 1, halves its distance to 2 exactly at each flat step (momentum
        # 0.5, gradient 1) until it rounds to 2 at iteration 54 - e: the update there
        # is the first that changes no bit.
        config = AttackConfig(k=2, eta=1.0, alpha=0.0, momentum=0.5, max_iter=100)
        updates = []
        ref = attack(method, ChunkEdgeScorer(2.0 - 2.0 ** (fixed - 54)), PATH_INSTANCE, (0,),
                     config, reference=True,
                     on_update=lambda before, after: updates.append(before == after))
        assert updates.index(True) == fixed
        scorer = ChunkEdgeScorer(2.0 - 2.0 ** (fixed - 54))
        out = attack(method, scorer, PATH_INSTANCE, (0,), config)
        assert_same_outcome(out, ref)
        assert (out.success, out.iterations_used) == (False, 100)
        # Forward passes at iterations 0, 1 and the fixed point, and rows 2 to fixed - 1.
        assert scorer.forward == fixed + 1

    # The stretch starts at iteration 2, so its chunk of 16 rows covers 17-32.
    @pytest.mark.parametrize("flat_pull, at", [(1e308, 2), (2e307, 22)],
                             ids=["first-row", "inside-a-chunk"])
    def test_floating_point_warning_is_reported_at_its_iteration(self, method, flat_pull, at):
        # The velocity overflows at iteration ``at`` of the stretch, while the
        # gradient stays finite: the loop warns there once and goes on.
        config = AttackConfig(k=2, eta=1.0, alpha=0.0, momentum=0.9, max_iter=100)
        runs, updates = [], []
        for reference in (False, True):
            hooks = ({"on_update": lambda before, after: updates.append(after[1])}
                     if reference else {})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = attack(method, ChunkEdgeScorer(1.0, flat_pull=flat_pull), PATH_INSTANCE,
                             (0,), config, reference=reference, **hooks)
            runs.append((out, [(w.category, str(w.message)) for w in caught]))
        assert_same_outcome(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1] == [(RuntimeWarning, "overflow encountered in add")]
        assert [np.isinf(np.frombuffer(v)).any() for v in updates].index(True) == at
        # One forward pass, in the loop or as a stacked row, for each iteration from
        # 0 to at + 1, whose update changes no bit: a chunk that meets the overflow
        # scores none of its rows, and the loop runs its first.
        assert (runs[0][0].forward_passes, runs[0][0].stop) == (at + 2, "fixed_point")

    def test_signed_zero_velocity_is_no_fixed_point(self, method):
        # The first update turns the velocity's -0.0 into +0.0 and changes nothing
        # else; only the second one changes no bit, as _same_state tells them apart.
        x, eps, velocity = np.zeros(3), np.full(3, -1.0), np.array([-0.0, 2.0, 2.0])
        coefs = tuple(np.array(c) for c in (0.0, 0.5, 1.0, -1.0, 1.0))  # alpha ... clip bounds
        rel, irr = np.arange(4), np.arange(4, 6)
        pair = {"ml_cw_u": lambda scores, order: _ml_cw_u_pair(scores, rel, irr),
                "tkml_ap_u": lambda scores, order: _tkml_ap_u_pair(scores, order, rel, 2)}[method]
        scorer = SwitchScorer(3, ACTIVE, FLAT)
        it, eps_out, velocity_out, rows = _flat_run(
            scorer, x, eps, velocity, 5, np.array([0.0, 1.0, 1.0]), coefs, 100,
            (2, np.array([0]), 1, np.array([1, 2, 3]), False, pair))
        assert it == 6 and scorer.forward == rows == 1
        assert eps_out.tobytes() == eps.tobytes()
        assert velocity_out.tobytes() == np.array([0.0, 2.0, 2.0]).tobytes()

    def test_success_where_a_chunk_is_cut_at_a_fixed_point(self, method):
        # The velocity sits on its fixed point 2 from iteration 1, so eps falls by 1/8
        # an iteration and reaches the clip bound -1 at iteration 8, whose update is the
        # first that changes no bit. The chunk over iterations 5-8 is cut there, and the
        # loop resumes at iteration 8, which the stretch has not scored and which succeeds.
        config = AttackConfig(k=2, eta=2.0 ** -4, alpha=0.0, momentum=0.5, max_iter=100)
        out, ref = (attack(method, ChunkEdgeScorer(2.0, at_bound=COUNT), PATH_INSTANCE,
                           (0,), config, reference=reference) for reference in (False, True))
        assert_same_outcome(out, ref)
        assert (out.success, out.iterations_used) == (True, 8)
        assert json.loads(json.dumps(out.to_record()))["iterations_used"] == 8


    def test_long_stretch_is_scored_in_bounded_chunks(self, method):
        # One active step moves eps off 0, and with alpha = 0 the decaying velocity
        # keeps moving the state for the whole budget: one flat stretch of 4,999
        # iterations, whose chunks stop doubling at 256 rows.
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 1, 0, 0])
        config = AttackConfig(k=2, eta=0.01, alpha=0.0, max_iter=5000)
        model = WidestChunk(3, ACTIVE, FLAT)
        out = attack(method, model, inst, (0,), config)
        assert_same_outcome(out, attack(method, SwitchScorer(3, ACTIVE, FLAT), inst, (0,),
                                        config, reference=True))
        assert (out.success, out.iterations_used) == (False, 5000)
        assert model.widest == 256
        assert model.forward == 5001


class WidestChunk(SwitchScorer):
    """:class:`SwitchScorer` that records the most rows one stacked pass scores."""

    widest = 0

    def _scores(self, X):
        self.widest = max(self.widest, len(X))
        return super()._scores(X)


class ChunkEdgeScorer(SwitchScorer):
    """:class:`SwitchScorer` on ACTIVE and FLAT whose zero cotangent pulls back to
    ``flat_pull`` in every coordinate, and any other to ``active_pull``; it scores
    ``at_bound``, if given, where every input coordinate is -1."""

    def __init__(self, active_pull, flat_pull=1.0, at_bound=None):
        super().__init__(3, ACTIVE, FLAT)
        self.active_pull, self.flat_pull, self.at_bound = active_pull, flat_pull, at_bound

    def score(self, x):
        if self.at_bound is not None and np.all(x == -1.0):
            return np.array(self.at_bound, dtype=float)
        return super().score(x)

    def _vjp(self, x):
        self.forward += 1
        return self.score(x), lambda cot: np.full(3, self.active_pull if np.any(cot)
                                                  else self.flat_pull)


class EntryCounting(CountingScorer):
    """Counts its input checks too."""

    def __init__(self, model):
        super().__init__(model)
        self.checks = 0

    def _check_input(self, x, ndims=(1,)):
        self.checks += 1
        return super()._check_input(x, ndims)


class TestEntryCheck:
    """Each attack checks its input once, at its entry, and each iteration
    runs an unchecked forward pass."""

    @pytest.mark.parametrize("arch", ["affine", "mlp"])
    def test_input_checked_once_per_attack(self, arch):
        model = make_mlp(5, 8, 6, seed=3) if arch == "mlp" else make_affine(5, 6, seed=3)
        x = np.random.default_rng(1).uniform(-0.5, 0.5, 5)
        order = np.argsort(-model.score(x), kind="stable")
        # Flat: the third-ranked class is irrelevant and outranks the fourth,
        # which is relevant. Active: the four best-ranked classes are relevant.
        flat, active = np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)
        flat[order[[0, 1, 3, 4]]] = 1
        active[order[:4]] = 1
        spec = (int(order[0]),)
        cfg = AttackConfig(k=2, eta=0.05, alpha=1e-4, max_iter=300)
        cases = [("ml_cw_u", flat), ("ml_cw_u", active), ("tkml_ap_u", active),
                 ("tkmia", active)]
        for method, y in cases:
            counting = EntryCounting(model)
            attack(method, counting, Instance(x=x, y=y), spec, cfg)
            assert counting.checks == 1, method
            # The flat hinge stops at its fixed point after one forward pass.
            assert (counting.calls["vjp"] == 1) == (y is flat), method

    def test_relevant_and_irrelevant_sets_are_checked_by_the_instance(self, tmp_path):
        # The entry takes Yp from instance.relevant unchecked, so every way to
        # build an instance must give ascending, distinct Python ints in [0, c),
        # with the irrelevant labels their complement, and each set cached.
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=(20, 7)) < 0.4).astype(np.int64)
        x = rng.uniform(-1.0, 1.0, (20, 3))
        data = gen_synthetic(SyntheticSpec(n=20, d=3, c=7, mean_relevant=3.0, seed=2))
        save_dataset(data, str(tmp_path / "data.jsonl"))
        built = [*(Instance(x=xi, y=yi.tolist()) for xi, yi in zip(x, y)),
                 *Dataset(x, y), *data, *load_dataset(str(tmp_path / "data.jsonl"))]
        for inst in built:
            relevant, irrelevant = inst.relevant, inst.irrelevant
            for labels in (relevant, irrelevant):
                assert type(labels) is tuple and all(type(i) is int for i in labels)
                assert list(labels) == sorted(set(labels))
            assert sorted(relevant + irrelevant) == list(range(inst.n_classes))
            assert relevant == tuple(np.flatnonzero(inst.y).tolist())
            assert inst.relevant is relevant and inst.irrelevant is irrelevant
            assert {"relevant", "irrelevant"} <= vars(inst).keys()

    @pytest.mark.parametrize("method", ["tkmia", *BASELINE_METHODS])
    def test_wrong_length_instance_rejected_at_entry(self, method):
        counting = EntryCounting(make_affine(4, 5, seed=0))
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0, 0])
        with pytest.raises(ValueError) as raised:
            attack(method, counting, inst, (0,), AttackConfig(k=1, eta=0.1))
        assert str(raised.value) == "input dimension (3,) != (4,)"
        assert counting.calls["vjp"] == 0

    def test_unknown_method_rejected_before_any_forward_pass(self):
        counting = EntryCounting(make_affine(3, 5, seed=0))
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0, 0])
        with pytest.raises(ValueError) as raised:
            run_attack_loop(counting, inst, (0,), AttackConfig(k=1, eta=0.1), "bogus")
        assert str(raised.value) == "unknown method 'bogus'"
        assert counting.calls["vjp"] == counting.calls["rows"] == counting.checks == 0

    @pytest.mark.parametrize("method", ["tkmia", *BASELINE_METHODS])
    def test_x_outside_the_clip_domain_rejected_at_entry(self, method):
        # Iteration 0 would score clip(x), not x, and report an attack of the clipped copy.
        config = AttackConfig(k=1, eta=0.1, clip_domain=(-0.5, 0.25))
        for entry in (np.nextafter(-0.5, -1.0), np.nextafter(0.25, 1.0), 3.0):
            counting = CountingScorer(make_affine(3, 5, seed=0))
            inst = Instance(x=[0.0, entry, 0.1], y=[1, 1, 1, 0, 0])
            with pytest.raises(ValueError) as raised:
                attack(method, counting, inst, (0,), config)
            assert str(raised.value) == "x lies outside the clip domain [-0.5, 0.25]"
            assert counting.calls["vjp"] == 0

    @pytest.mark.parametrize("method", ["tkmia", *BASELINE_METHODS])
    def test_clip_domain_bounds_are_inside(self, method):
        model = make_affine(3, 5, seed=0)
        x = np.array([-0.5, 0.25, 0.0])
        out = attack(method, model, Instance(x=x, y=[1, 1, 1, 0, 0]), (0,),
                     AttackConfig(k=1, eta=0.1, max_iter=5, clip_domain=(-0.5, 0.25)))
        assert out.scores_before.tobytes() == model.score(x).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_is_non_finite_input(self, value):
        # Instance rejects a non-finite x, but its x is writable.
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0, 0])
        inst.x[1] = value
        for method in ("tkmia", *BASELINE_METHODS):
            with pytest.raises(ValueError, match="^non-finite input$"):
                attack(method, make_affine(3, 5, seed=0), inst, (0,), AttackConfig(k=1, eta=0.1))


class TestSelection:
    def test_global_intersection(self):
        data = [
            Instance(x=np.zeros(2), y=[0, 1, 0, 1, 0, 0]),
            Instance(x=np.zeros(2), y=[1, 0, 1, 0, 0, 0]),
        ]
        pairs = select_global(data, (3, 5))
        assert pairs == [(0, (3,))]

    def test_global_count_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        data = []
        for _ in range(100):
            y = np.zeros(8, dtype=np.int64)
            y[rng.choice(8, size=rng.integers(1, 5), replace=False)] = 1
            data.append(Instance(x=np.zeros(2), y=y))
        cats = {1, 4, 6}
        pairs = select_global(data, cats)
        expected = [i for i, inst in enumerate(data) if set(inst.relevant) & cats]
        assert [i for i, _ in pairs] == expected
        for idx, s in pairs:
            assert set(s) == set(data[idx].relevant) & cats

    def test_global_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            select_global([], ())

    def test_global_empty_dataset_gives_no_pairs(self):
        assert select_global([], (0, 2)) == []

    def test_global_category_outside_the_classes_matches_nothing(self):
        data = [Instance(x=np.zeros(2), y=[1, 1, 0, 1]), Instance(x=np.zeros(2), y=[1, 0, 1, 0])]
        assert select_global(data, (4, 9)) == []
        assert select_global(data, (-1, 3, 4)) == [(0, (3,))]
        assert select_global(Dataset.of(data), (2, 7)) == [(1, (2,))]

    def test_random_full_set(self):
        inst = Instance(x=np.zeros(2), y=[1, 0, 1, 1])
        assert select_random(inst, 3, seed=0) == (0, 2, 3)

    def test_random_singleton(self):
        inst = Instance(x=np.zeros(2), y=[0, 0, 0, 0, 1])
        assert select_random(inst, 1, seed=5) == (4,)

    def test_random_deterministic(self):
        inst = Instance(x=np.zeros(2), y=[1, 1, 0, 1, 1, 1])
        assert select_random(inst, 2, seed=42) == select_random(inst, 2, seed=42)

    def test_random_out_of_range(self):
        inst = Instance(x=np.zeros(2), y=[1, 1, 0, 0])
        with pytest.raises(ValueError):
            select_random(inst, 3, seed=0)
        with pytest.raises(ValueError):
            select_random(inst, 0, seed=0)

    def test_random_uniform_over_subsets(self):
        # m=2 of 4 relevant labels: all 6 subsets equally likely
        inst = Instance(x=np.zeros(2), y=[1, 1, 1, 1])
        counts = {}
        n = 10_000
        for i in range(n):
            s = select_random(inst, 2, seed=i)
            counts[s] = counts.get(s, 0) + 1
        expected = n / 6
        sigma = np.sqrt(n * (1 / 6) * (5 / 6))
        for subset, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (subset, count)
        assert len(counts) == 6


class TestFilterInstances:
    def test_boundary(self):
        keep = Instance(x=np.zeros(2), y=[1, 1, 1, 1, 1, 0])
        drop = Instance(x=np.zeros(2), y=[1, 1, 1, 1, 0, 0])
        assert filter_instances([keep, drop], k=3, s_size=2) == [0]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        data = []
        for _ in range(200):
            y = (rng.uniform(size=10) < 0.4).astype(np.int64)
            data.append(Instance(x=np.zeros(2), y=y))
        got = filter_instances(data, k=2, s_size=2)
        expected = [i for i, inst in enumerate(data) if inst.y.sum() >= 4]
        assert got == expected

    def test_rule_runs_once_per_relevant_count(self, monkeypatch):
        data = gen_synthetic(SyntheticSpec(n=300, d=3, c=8, mean_relevant=3.0, seed=4))
        instances = [Instance(inst.x, inst.y) for inst in data]
        counts = set(data.Y.sum(axis=1).tolist())
        calls = []
        monkeypatch.setattr("tkmia.attack.ineligible",
                            lambda *args: calls.append(args) or ineligible(*args))
        for k, s_size in ((1, 1), (2, 2), (3, 1), (5, 3), (8, 1)):
            for dataset in (data, instances):
                calls.clear()
                got = filter_instances(dataset, k=k, s_size=s_size)
                assert got == [i for i, inst in enumerate(dataset)
                               if not ineligible(inst, s_size, k, "tkmia", None)]
                assert len(calls) == len(counts)
        assert filter_instances([], k=1, s_size=1) == []


FILTER = "instance filter violated: |Yp|=2 < k+|S|=3"
FILTER_4 = "instance filter violated: |Yp|=3 < k+|S|=4"
DELTA = "delta threshold 2 exceeds |S|=1"
NO_YN = "irrelevant set must be non-empty"


class TestIneligible:
    # (labels, S, k, delta_threshold) -> reason for tkmia, ml_cw_u, tkml_ap_u
    CASES = [
        ([1, 1, 1, 0], (0,), 1, None, (None, None, None)),
        ([1, 1, 1, 0], (0, 1), 1, 2, (None, None, None)),
        ([1, 1, 0, 0], (0,), 2, None, (FILTER, FILTER, FILTER)),
        ([1, 1, 1, 0], (0, 1), 2, 3, (FILTER_4,) * 3),
        ([1, 1, 0, 0], (0,), 1, 2, (DELTA,) * 3),
        ([1, 1, 1, 1], (0,), 1, None, (None, NO_YN, None)),
        ([1, 1, 1, 1], (0,), 1, 2, (DELTA,) * 3),
        ([1, 1, 1, 1], (0, 1), 2, None, (None, NO_YN, None)),
        ([1, 1, 1, 1], (0,), 3, None, (None, NO_YN, None)),
        ([1, 1, 1, 1], (0, 1), 3, 3, ("instance filter violated: |Yp|=4 < k+|S|=5",) * 3),
    ]

    @pytest.mark.parametrize("labels, spec, k, delta, reasons", CASES)
    def test_reason_is_what_the_attack_raises(self, labels, spec, k, delta, reasons):
        model = constant_score_model([0.9, 0.8, 0.6, 0.3])
        inst = Instance(x=np.zeros(3), y=labels)
        config = AttackConfig(k=k, eta=0.1, max_iter=3, delta_threshold=delta)
        for method, reason in zip(("tkmia", *BASELINE_METHODS), reasons):
            assert ineligible(inst, len(spec), k, method, delta) == reason
            if reason is None:
                assert attack(method, model, inst, spec, config).specified == spec
            else:
                with pytest.raises(ValueError) as raised:
                    attack(method, model, inst, spec, config)
                assert str(raised.value) == reason

    def test_unknown_method_is_the_first_reason(self):
        # The instance fails the filter for every method too.
        inst = Instance(x=np.zeros(3), y=[1, 1, 0, 0])
        assert ineligible(inst, 1, 2, "bogus", None) == "unknown method 'bogus'"


class TestAttackConfig:
    def test_random_scheme_m_bounded_by_k(self):
        with pytest.raises(ValueError):
            AttackConfig(k=2, eta=0.1, scheme=RandomScheme(3))
        AttackConfig(k=3, eta=0.1, scheme=RandomScheme(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(k=0, eta=0.1)
        with pytest.raises(ValueError):
            AttackConfig(k=2, eta=-1.0)
        with pytest.raises(ValueError):
            AttackConfig(k=2, eta=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            AttackConfig(k=2, eta=0.1, clip_domain=(1.0, -1.0))
        with pytest.raises(ValueError):
            AttackConfig(k=2, eta=0.1, success_mode="sometimes")
        with pytest.raises(ValueError):
            GlobalScheme(())

    @pytest.mark.parametrize("field, value, message", [
        ("eta", float("nan"), "eta must be finite, got nan"),
        ("eta", float("inf"), "eta must be finite, got inf"),
        ("alpha", float("nan"), "alpha must be finite, got nan"),
        ("alpha", float("inf"), "alpha must be finite, got inf"),
        ("clip_domain", (-float("inf"), 1.0), "clip domain must be finite, got (-inf, 1.0)"),
        ("clip_domain", (-1.0, float("nan")), "clip domain must be finite, got (-1.0, nan)"),
    ])
    def test_non_finite_numbers_rejected(self, field, value, message):
        with pytest.raises(ValueError) as raised:
            AttackConfig(**{"k": 2, "eta": 0.1, field: value})
        assert str(raised.value) == message

    def test_coefs_are_built_once_from_a_frozen_config(self):
        cfg = AttackConfig(k=2, eta=0.1, alpha=1e-3, momentum=0.5, clip_domain=(-2.0, 3.0))
        assert cfg.coefs is cfg.coefs
        assert [(c.shape, float(c)) for c in cfg.coefs] == [
            ((), 1e-3), ((), 0.5), ((), 0.1), ((), -2.0), ((), 3.0)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eta = 0.2
        assert dataclasses.replace(cfg, eta=0.2).coefs[2] == 0.2


class TestOneIntegerRule:
    """Labels, categories and specified sets take integers only: Python or
    numpy integers, never a float (which int() would truncate) or a bool."""

    @pytest.mark.parametrize("label", [0.6, 1.0, np.float64(1.0), True, np.bool_(True), "1"],
                             ids=["float", "integral-float", "numpy-float", "bool",
                                  "numpy-bool", "str"])
    def test_non_integer_label_rejected_everywhere(self, label):
        scores = [0.9, 0.8, 0.6, 0.1]
        message = f"set has a non-integer label {re.escape(repr(label))}"
        with pytest.raises(ValueError, match=f"specified {message}"):
            residual_set(scores, (label,), 1)
        with pytest.raises(ValueError, match=f"specified {message}"):
            success_check(scores, (label,), (0, 1, 2), 1)
        with pytest.raises(ValueError, match=f"relevant {message}"):
            success_check(scores, (0,), (0, label, 2), 1)
        with pytest.raises(ValueError, match=f"category {message}"):
            GlobalScheme((label,))
        data = [Instance(x=np.zeros(2), y=[1, 1, 0, 0])]
        with pytest.raises(ValueError, match=f"category {message}"):
            select_global(data, [label])

    def test_numpy_integers_accepted_as_python_ints(self):
        categories = GlobalScheme(np.array([2, 0])).categories
        assert categories == (2, 0) and all(type(i) is int for i in categories)
        assert residual_set([0.9, 0.8, 0.6, 0.1], np.array([0, 3]), 2) == (0,)
        data = [Instance(x=np.zeros(2), y=[1, 0, 1, 0])]
        assert select_global(data, np.array([2, 3], dtype=np.int32)) == [(0, (2,))]

    @pytest.mark.parametrize("field, value", [
        ("k", 1.5), ("k", 2.0), ("k", True), ("max_iter", 3.0), ("max_iter", False),
        ("delta_threshold", 1.0), ("delta_threshold", np.float64(2.0)),
    ])
    def test_attack_config_counts_are_integers(self, field, value):
        name = "delta threshold" if field == "delta_threshold" else field
        with pytest.raises(ValueError) as raised:
            AttackConfig(**{"k": 2, "eta": 0.1, field: value})
        assert str(raised.value) == f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match="^m must be an integer, got 1.0$"):
            RandomScheme(1.0)

    def test_attack_config_stores_numpy_integers_as_ints(self):
        cfg = AttackConfig(k=np.int64(2), eta=0.1, max_iter=np.int32(5),
                           delta_threshold=np.int64(1), scheme=RandomScheme(np.int64(2)))
        assert all(type(v) is int for v in (cfg.k, cfg.max_iter, cfg.delta_threshold,
                                            cfg.scheme.m))

    def test_select_global_rejects_an_empty_category_list_as_the_scheme_does(self):
        with pytest.raises(ValueError, match="^category set must be non-empty$"):
            select_global([], [])
