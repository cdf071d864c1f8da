"""The attack engine against a reference copy of the per-instance loop.

``reference_attack_loop`` is the loop as it stood before the engine
shared one forward pass and one ranking per iteration: it scores x_adv
for the success test, and each loss closure calls a public loss, which
scores again and runs its own forward pass for the gradient. The engine
must reproduce it bit for bit and never call ``score`` or
``input_gradient``: each iteration that its loop runs is one forward pass
(``Scorer._vjp``), and it scores the iterates of a baseline's flat stretch
as stacked rows (``Scorer._scores``) instead. An iteration whose loss is
flat (a zero score cotangent) runs no pullback: the engine pulls back zeros
once per attack, on its first flat iteration, and reuses that gradient;
every other iteration runs one pullback. The engine runs no iteration after
the first one whose update leaves eps, velocity and the lambdas bitwise
unchanged (a fixed point), and the reference, which runs the whole budget,
gives the same outcome.
"""
from dataclasses import replace

import numpy as np
import pytest

from tkmia.attack import (
    AttackConfig,
    AttackOutcome,
    residual_set,
    success_check,
    tkmia_attack,
    tkmia_objective,
)
from tkmia.baselines import BaselineSpec, ml_cw_u_loss, run_baseline, tkml_ap_u_loss
from tkmia.core import top_k_indices
from tkmia.harness import SyntheticSpec, gen_synthetic
from tkmia.model import Scorer, TrainConfig, make_mlp, train_bce

K = 2
SPECIFIED = (0, 1)


def reference_attack_loop(model, instance, specified, config, method, step_fn, success_fn,
                          lams=lambda: (0.0, 0.0), on_update=None):
    """``lams`` reads the lambdas that ``step_fn`` steps; ``on_update(before, after)``,
    if given, sees the bytes of (eps, velocity, lambdas) around each update."""
    lo, hi = config.clip_domain
    x = instance.x
    eps = np.zeros_like(x)
    velocity = np.zeros_like(x)
    scores_before = None
    scores = None
    success = False
    iterations = 0

    def state():
        return eps.tobytes(), velocity.tobytes(), *(float(lam).hex() for lam in lams())

    for it in range(config.max_iter + 1):
        x_adv = np.clip(x + eps, lo, hi)
        scores = model.score(x_adv)
        if it == 0:
            scores_before = scores.copy()
        if success_fn(scores):
            success = True
            iterations = it
            break
        if it == config.max_iter:
            iterations = it
            break
        before = state()
        _, grad_eps = step_fn(x_adv, eps)
        if not np.all(np.isfinite(grad_eps)):
            raise FloatingPointError(f"non-finite gradient at iteration {it}")
        velocity = config.momentum * velocity + grad_eps
        eps = eps - config.eta * velocity
        eps = np.clip(x + eps, lo, hi) - x
        if on_update is not None:
            on_update(before, state())

    return AttackOutcome(
        method=method,
        epsilon=eps,
        iterations_used=iterations,
        success=success,
        specified=tuple(sorted(int(i) for i in specified)),
        residual=residual_set(scores, sorted(int(i) for i in specified), config.k),
        lambda1=0.0,
        lambda2=0.0,
        scores_before=scores_before,
        scores_after=scores,
    )


def reference_tkmia(model, instance, specified, config, on_update=None):
    relevant = instance.relevant
    spec = tuple(sorted(int(i) for i in specified))
    lam = [0.0, 0.0]

    def step(x_adv, eps):
        value, grad_eps, g1, g2 = tkmia_objective(
            model, instance.x, eps, lam[0], lam[1], spec, relevant, config)
        lam[0] = float(np.clip(lam[0] - config.eta * g1, 0.0, 1.0))
        lam[1] = float(np.clip(lam[1] - config.eta * g2, 0.0, 1.0))
        return value, grad_eps

    def succeeded(scores):
        return success_check(scores, spec, relevant, config.k, config.success_mode)

    outcome = reference_attack_loop(model, instance, spec, config, "tkmia", step, succeeded,
                                    lams=lambda: lam, on_update=on_update)
    return replace(outcome, lambda1=lam[0], lambda2=lam[1])


def reference_baseline(model, instance, specified, spec, on_update=None):
    config = spec.config
    relevant = instance.relevant
    s = tuple(sorted(int(i) for i in specified))
    delta = config.delta_threshold if config.delta_threshold is not None else len(s)

    if spec.method == "ml_cw_u":
        def step(x_adv, eps):
            return ml_cw_u_loss(model, instance.x, eps, relevant, config.alpha)
    else:
        def step(x_adv, eps):
            return tkml_ap_u_loss(model, instance.x, eps, relevant, config.k, config.alpha)

    def succeeded(scores):
        if len(s) - len(residual_set(scores, s, config.k)) < delta:
            return False
        # strict: also the k-th score at most the lowest over Yp \ S
        rest = [i for i in relevant if i not in s]
        return (config.success_mode != "strict"
                or scores[top_k_indices(scores, config.k)[-1]] <= scores[rest].min())

    return reference_attack_loop(model, instance, s, config, spec.method, step, succeeded,
                                 on_update=on_update)


CONFIG = AttackConfig(k=K, eta=0.05, alpha=1e-4, momentum=0.9, max_iter=120)
CASES = {
    "tkmia-c1_only": ("tkmia", CONFIG),
    "tkmia-strict": ("tkmia", replace(CONFIG, success_mode="strict")),
    "ml_cw_u": ("ml_cw_u", CONFIG),
    "ml_cw_u-delta1": ("ml_cw_u", replace(CONFIG, delta_threshold=1)),
    "tkml_ap_u": ("tkml_ap_u", CONFIG),
    "tkml_ap_u-delta1": ("tkml_ap_u", replace(CONFIG, delta_threshold=1)),
}


def attack(method, model, instance, specified, config, reference=False, **hooks):
    if method == "tkmia":
        run = reference_tkmia if reference else tkmia_attack
        return run(model, instance, specified, config, **hooks)
    run = reference_baseline if reference else run_baseline
    return run(model, instance, specified, BaselineSpec(method, config), **hooks)


@pytest.fixture(scope="module", params=["affine", "mlp"])
def victim(request):
    data = gen_synthetic(SyntheticSpec(n=400, d=12, c=7, mean_relevant=3.5,
                                       label_correlation=0.5, seed=11))
    train = TrainConfig(epochs=30, learning_rate=0.5, batch_size=64, seed=5)
    start = make_mlp(12, 16, 7, seed=5) if request.param == "mlp" else None
    model = train_bce(data, train, model=start)
    targets = []
    for inst in data:
        spec = tuple(i for i in SPECIFIED if i in inst.relevant)
        if spec and len(inst.relevant) >= K + len(spec):
            targets.append((inst, spec))
    pairs = ([t for t in targets if len(t[1]) == 2][:10]
             + [t for t in targets if len(t[1]) == 1][:10])
    assert len(pairs) == 20
    return model, pairs


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_reference_loop(victim, case):
    method, config = CASES[case]
    model, pairs = victim
    iterations = 0
    for instance, spec in pairs:
        ref = attack(method, model, instance, spec, config, reference=True)
        new = attack(method, model, instance, spec, config)
        assert new.success == ref.success
        assert new.iterations_used == ref.iterations_used
        assert new.residual == ref.residual
        assert (new.lambda1, new.lambda2) == (ref.lambda1, ref.lambda2)
        assert new.epsilon.tobytes() == ref.epsilon.tobytes()
        assert new.scores_before.tobytes() == ref.scores_before.tobytes()
        assert new.scores_after.tobytes() == ref.scores_after.tobytes()
        iterations += new.iterations_used
    assert iterations > 0


class CountingScorer(Scorer):
    def __init__(self, model):
        super().__init__(model.weights, model.biases, model.activation, model.sigmoid_output)
        self.calls = {"score": 0, "input_gradient": 0, "vjp": 0, "pullback": 0,
                      "zero_pullback": 0, "rows": 0}

    def score(self, x):
        self.calls["score"] += 1
        return super().score(x)

    def input_gradient(self, x, cotangent):
        self.calls["input_gradient"] += 1
        return super().input_gradient(x, cotangent)

    def _vjp(self, x):
        # The one forward pass, behind the public vjp and the engine's loop alike.
        self.calls["vjp"] += 1
        scores, pullback = super()._vjp(x)

        def counted(cotangent):
            self.calls["pullback"] += 1
            self.calls["zero_pullback"] += not np.any(cotangent)
            return pullback(cotangent)

        return scores, counted

    def _scores(self, X):
        # The stacked forward pass, behind score and a baseline's flat stretch alike.
        self.calls["rows"] += len(X) if X.ndim == 2 else 1
        return super()._scores(X)


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_forward_and_one_gradient_per_iteration(victim, case):
    method, config = CASES[case]
    model, pairs = victim
    iterations = pullbacks = forwards = fixed_points = 0
    for instance, spec in pairs:
        # The reference runs the whole budget and pulls back every iteration's
        # cotangent, zeros included: per update it records whether the state
        # stayed bitwise the same, and its zero pullbacks so far (flat updates).
        reference = CountingScorer(model)
        updates = []
        ref = attack(method, reference, instance, spec, config, reference=True,
                     on_update=lambda before, after: updates.append(
                         (before == after, reference.calls["zero_pullback"])))
        # The engine stops after the first update that leaves the state unchanged,
        # without the forward pass at that unchanged state.
        fixed = next((i for i, (same, _) in enumerate(updates) if same), None)
        ran = ref.iterations_used if fixed is None else fixed + 1
        flat = updates[ran - 1][1] if ran else 0
        fixed_points += fixed is not None
        counting = CountingScorer(model)
        out = attack(method, counting, instance, spec, config)
        assert out.iterations_used == ref.iterations_used
        calls = counting.calls
        assert {name: calls[name] for name in ("score", "input_gradient", "pullback",
                                               "zero_pullback")} == {
            "score": 0, "input_gradient": 0, "pullback": ran - flat + min(flat, 1),
            "zero_pullback": min(flat, 1)}
        # A baseline's flat stretch runs no _vjp: its iterates are scored as
        # stacked rows, in chunks that double, and the loop reruns the one
        # that ends the stretch. tkmia's flat iterations stay in the loop.
        if method == "tkmia":
            assert (calls["vjp"], calls["rows"]) == (ran + (fixed is None), 0)
        assert calls["vjp"] + calls["rows"] <= 3 * (out.iterations_used + 1)
        iterations += out.iterations_used
        pullbacks += calls["pullback"]
        forwards += calls["vjp"]
    assert iterations > 0
    if method == "ml_cw_u":
        assert pullbacks < iterations
        assert forwards < iterations
        assert fixed_points > 0
