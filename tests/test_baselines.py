import numpy as np
import pytest

import tkmia
from tkmia.attack import (
    BASELINE_METHODS,
    AttackConfig,
    BaselineSpec,
    ml_cw_u_loss,
    run_baseline,
    success_check,
    tkml_ap_u_loss,
    tkmia_attack,
)
from tkmia.core import Instance
from tkmia.model import make_affine, make_mlp

from support import attack, constant_score_model, rank_of, ranking


def test_baselines_module_re_exports_the_attack_names():
    # The benchmark patches and looks up these names under tkmia.baselines.
    for name in tkmia.baselines.__all__:
        assert getattr(tkmia.baselines, name) is getattr(tkmia.attack, name)
    assert tkmia.baselines.top_k_indices is tkmia.core.top_k_indices


class TestMlCwULoss:
    def test_inactive_when_relevant_below_irrelevant(self):
        model = constant_score_model([0.2, 0.3, 0.9, 0.8])
        value, grad = ml_cw_u_loss(model, np.zeros(3), np.zeros(3), (0, 1))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_margin_value(self):
        # min relevant 0.8, max irrelevant 0.3 -> hinge 0.5
        model = constant_score_model([0.8, 0.9, 0.3, 0.1])
        value, _ = ml_cw_u_loss(model, np.zeros(3), np.zeros(3), (0, 1))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_penalty_term(self):
        model = constant_score_model([0.2, 0.9], in_dim=2)
        eps = np.array([0.3, -0.4])
        value, grad = ml_cw_u_loss(model, np.zeros(2), eps, (0,), alpha=2.0)
        assert value == pytest.approx(float(eps @ eps), abs=1e-12)
        np.testing.assert_allclose(grad, 2.0 * eps, atol=1e-12)

    def test_degenerate_sets_rejected(self):
        model = constant_score_model([0.2, 0.9])
        with pytest.raises(ValueError):
            ml_cw_u_loss(model, np.zeros(3), np.zeros(3), ())
        with pytest.raises(ValueError):
            ml_cw_u_loss(model, np.zeros(3), np.zeros(3), (0, 1))


class TestTkmlApULoss:
    def test_inactive_when_relevant_below_topk(self):
        model = constant_score_model([0.1, 0.9, 0.8, 0.7])
        value, grad = tkml_ap_u_loss(model, np.zeros(3), np.zeros(3), (0,), k=2)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_margin_value(self):
        # f_[3] = 0.1, best relevant 0.9 -> hinge 0.8
        model = constant_score_model([0.9, 0.2, 0.1, 0.05])
        value, _ = tkml_ap_u_loss(model, np.zeros(3), np.zeros(3), (0,), k=2)
        assert value == pytest.approx(0.8, abs=1e-12)

    def test_k_range_checked(self):
        model = constant_score_model([0.9, 0.2, 0.1])
        with pytest.raises(ValueError):
            tkml_ap_u_loss(model, np.zeros(3), np.zeros(3), (0,), k=3)


class TestLossValues:
    def test_values_match_margin_definitions(self):
        rng = np.random.default_rng(12)
        active = {"ml_cw_u": 0, "tkml_ap_u": 0}
        for trial in range(200):
            c = int(rng.integers(3, 9))
            model = make_mlp(4, 5, c, seed=trial)
            x = rng.uniform(-1.0, 1.0, 4)
            eps = rng.uniform(-0.2, 0.2, 4)
            alpha = float(rng.uniform(0.0, 2.0))
            relevant = sorted(rng.choice(c, int(rng.integers(1, 3)), replace=False).tolist())
            irrelevant = [i for i in range(c) if i not in relevant]
            k = int(rng.integers(1, c))
            scores = model.score(x + eps)
            penalty = 0.5 * alpha * float(eps @ eps)

            margin = float(min(scores[relevant]) - max(scores[irrelevant]))
            value, _ = ml_cw_u_loss(model, x, eps, relevant, alpha)
            assert value == max(0.0, margin) + penalty
            active["ml_cw_u"] += margin > 0.0

            margin = float(max(scores[relevant]) - np.sort(scores)[::-1][k])
            value, _ = tkml_ap_u_loss(model, x, eps, relevant, k, alpha)
            assert value == max(0.0, margin) + penalty
            active["tkml_ap_u"] += margin > 0.0
        assert all(10 <= n <= 190 for n in active.values()), active


class TestRunBaseline:
    def test_immediate_success_when_already_outside(self):
        model = constant_score_model([0.9, 0.8, 0.1, 0.7])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        spec = BaselineSpec("ml_cw_u", AttackConfig(k=2, eta=0.1, max_iter=50))
        out = run_baseline(model, inst, (2,), spec)
        assert out.success
        assert out.iterations_used == 0
        assert np.all(out.epsilon == 0.0)

    def test_delta_above_s_size_rejected(self):
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        spec = BaselineSpec("tkml_ap_u",
                            AttackConfig(k=2, eta=0.1, delta_threshold=2))
        with pytest.raises(ValueError):
            run_baseline(model, inst, (0,), spec)

    @pytest.mark.parametrize("specified, k", [((), 1), ((3,), 1), ((0,), 3)],
                             ids=["empty", "outside-relevant", "filter"])
    def test_preconditions_shared_with_main_attack(self, specified, k):
        # S must be a non-empty subset of Yp and |Yp| >= k + |S|, for every method
        model = constant_score_model([0.9, 0.8, 0.6, 0.1])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 0])
        config = AttackConfig(k=k, eta=0.1)
        for method in BASELINE_METHODS:
            with pytest.raises(ValueError):
                run_baseline(model, inst, specified, BaselineSpec(method, config))
        with pytest.raises(ValueError):
            tkmia_attack(model, inst, specified, config)

    def test_only_ml_cw_u_needs_an_irrelevant_label(self):
        # tkml_ap_u reads Yp and the (k+1)-th class; ml_cw_u also reads Yn
        model = constant_score_model([0.9, 0.8, 0.6, 0.3])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 1])
        config = AttackConfig(k=2, eta=0.1, max_iter=20)
        out = run_baseline(model, inst, (0,), BaselineSpec("tkml_ap_u", config))
        assert out.residual == (0,) and out.iterations_used == 20
        value, grad = tkml_ap_u_loss(model, np.zeros(3), np.zeros(3), (0, 1, 2, 3), k=2)
        assert value == pytest.approx(0.9 - 0.6)
        np.testing.assert_array_equal(grad, np.zeros(3))
        with pytest.raises(ValueError, match="irrelevant set must be non-empty"):
            run_baseline(model, inst, (0,), BaselineSpec("ml_cw_u", config))
        with pytest.raises(ValueError, match="irrelevant set must be non-empty"):
            ml_cw_u_loss(model, np.zeros(3), np.zeros(3), (0, 1, 2, 3))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            BaselineSpec("kfool", AttackConfig(k=2, eta=0.1))

    def test_success_confirmed_by_rank_oracle(self):
        rng = np.random.default_rng(4)
        model = make_mlp(8, 10, 7, seed=5)
        cfg = AttackConfig(k=2, eta=0.1, alpha=1e-4, max_iter=200)
        checked = 0
        for _ in range(40):
            x = rng.uniform(-0.9, 0.9, 8)
            scores = model.score(x)
            order = np.argsort(-scores, kind="stable")
            rel = tuple(sorted(int(i) for i in order[:4]))
            spec_labels = (int(order[0]),)
            inst = Instance(x=x, y=[1 if i in rel else 0 for i in range(7)])
            for method in ("ml_cw_u", "tkml_ap_u"):
                out = run_baseline(model, inst, spec_labels,
                                   BaselineSpec(method, cfg))
                if out.success:
                    checked += 1
                    expelled = [s for s in out.specified
                                if rank_of(out.scores_after, s) > cfg.k]
                    assert len(expelled) >= len(out.specified)
        assert checked > 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_strict_mode_is_the_success_rule(self, k):
        # Under success_mode="strict" a baseline succeeds exactly when its
        # final scores pass the strict check, as tkmia does.
        rng = np.random.default_rng(4)
        model = make_mlp(8, 10, 7, seed=5)
        cfg = AttackConfig(k=k, eta=0.1, alpha=1e-4, max_iter=200, success_mode="strict")
        succeeded = dict.fromkeys(BASELINE_METHODS, 0)
        for _ in range(40):
            x = rng.uniform(-0.9, 0.9, 8)
            order = np.argsort(-model.score(x), kind="stable")
            rel = tuple(sorted(int(i) for i in order[:k + 1]))
            spec_labels = (int(order[0]),)
            inst = Instance(x=x, y=[1 if i in rel else 0 for i in range(7)])
            for method in BASELINE_METHODS:
                out = run_baseline(model, inst, spec_labels, BaselineSpec(method, cfg))
                assert out.success == success_check(out.scores_after, spec_labels, rel, k,
                                                    "strict")
                succeeded[method] += out.success
        assert succeeded["tkml_ap_u"] > 0

    def test_losses_nonnegative_zero_iff_hinge_satisfied(self):
        rng = np.random.default_rng(6)
        model = make_mlp(5, 6, 7, seed=7)
        rel = (0, 2, 5)
        for _ in range(200):
            x = rng.uniform(-0.9, 0.9, 5)
            eps = rng.uniform(-0.1, 0.1, 5)
            scores = model.score(x + eps)
            v_cw, _ = ml_cw_u_loss(model, x, eps, rel)
            v_ap, _ = tkml_ap_u_loss(model, x, eps, rel, k=2)
            assert v_cw >= 0.0 and v_ap >= 0.0
            margin_cw = min(scores[list(rel)]) - max(
                scores[i] for i in range(7) if i not in rel)
            margin_ap = max(scores[list(rel)]) - np.sort(scores)[::-1][2]
            assert (v_cw == 0.0) == (margin_cw <= 0.0)
            assert (v_ap == 0.0) == (margin_ap <= 0.0)

    def test_schema_parity_with_main_attack(self):
        # Swapping the loss changes nothing about the outcome bookkeeping.
        model = constant_score_model([0.9, 0.8, 0.6, 0.55, 0.1])
        inst = Instance(x=np.zeros(3), y=[1, 1, 1, 1, 0])
        cfg = AttackConfig(k=2, eta=0.05, max_iter=40)
        main = tkmia_attack(model, inst, (0,), cfg)
        records = [main.to_record(instance=0, k=2)]
        for method in ("ml_cw_u", "tkml_ap_u"):
            out = run_baseline(model, inst, (0,), BaselineSpec(method, cfg))
            records.append(out.to_record(instance=0, k=2))
        keys = [tuple(r.keys()) for r in records]
        assert len(set(keys)) == 1
        for rec in records:
            assert isinstance(rec["success"], bool)
            assert isinstance(rec["epsilon"], list)


class TestRawScorer:
    """Attacks and losses run on raw affine logits, which leave [0, 1]."""

    model = make_affine(6, 8, seed=3, sigmoid_output=False)
    config = AttackConfig(k=2, eta=0.05, max_iter=60)

    def cases(self):
        """Instances with 4 relevant labels; S is the 2 best-scored of them."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 6)
            rel = rng.choice(8, 4, replace=False)
            scores = self.model.score(x)
            spec = tuple(sorted(rel[np.argsort(-scores[rel], kind="stable")[:2]]))
            yield Instance(x=x, y=np.isin(np.arange(8), rel).astype(int)), spec

    @pytest.mark.parametrize("method", ("tkmia",) + BASELINE_METHODS)
    def test_outcome_follows_the_tie_broken_ranking(self, method):
        outside = 0
        iterations = 0
        for inst, spec in self.cases():
            out = attack(method, self.model, inst, spec, self.config)
            after = out.scores_after
            top = ranking(after)[:self.config.k]
            assert out.residual == tuple(i for i in spec if i in top)
            assert out.success == (not out.residual)
            outside += int(((after < 0.0) | (after > 1.0)).any())
            iterations += out.iterations_used
        assert outside > 0 and iterations > 0

    def test_tkml_ap_u_loss_reads_the_k_plus_1_th_class(self):
        rng = np.random.default_rng(5)
        rel = (1, 4, 6)
        for _ in range(50):
            x, eps = rng.uniform(-1.0, 1.0, 6), rng.uniform(-0.1, 0.1, 6)
            scores = self.model.score(x + eps)
            kth = ranking(scores)[2]
            value, _ = tkml_ap_u_loss(self.model, x, eps, rel, k=2)
            assert value == max(0.0, float(max(scores[list(rel)]) - scores[kth]))
