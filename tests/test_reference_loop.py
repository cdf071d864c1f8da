"""The attack engine against :func:`support.reference_attack_loop`.

The engine must reproduce the reference loop bit for bit and never call
``score`` or ``input_gradient``: each iteration that its loop runs is one
forward pass (``Scorer._vjp``), and it scores the iterates of a baseline's
flat stretch as stacked rows (``Scorer._scores``) instead. An iteration
whose loss is flat (a zero score cotangent) runs no pullback: the engine
pulls back zeros once per attack, on its first flat iteration, and reuses
that gradient; every other iteration runs one pullback. The engine runs no
iteration after the first one whose update leaves eps, velocity and the
lambdas bitwise unchanged (a fixed point), and the reference, which runs
the whole budget, gives the same outcome. Every attack scores its own
iteration 0, at ``x + 0.0``: an ``x`` with -0.0 entries gives the outcome at
``x + 0.0``, and iteration 0's scores are the bytes of the victim's batch
row there, which rank as a report's clean row does. The outcome's
``forward_passes`` and ``pullbacks`` count these calls, and its ``stop``
says whether success, the budget's end or a fixed point ended the attack.
"""
from dataclasses import replace

import numpy as np
import pytest

from tkmia.attack import METHODS, AttackConfig
from tkmia.core import Instance
from tkmia.harness import SyntheticSpec, gen_synthetic
from tkmia.metrics import evaluate_instance
from tkmia.model import Scorer, TrainConfig, make_mlp, train_bce

from support import CountingScorer, attack

pytestmark = pytest.mark.bitwise

K = 2
SPECIFIED = (0, 1)


CONFIG = AttackConfig(k=K, eta=0.05, alpha=1e-4, momentum=0.9, max_iter=120)
CASES = {
    "tkmia-c1_only": ("tkmia", CONFIG),
    "tkmia-strict": ("tkmia", replace(CONFIG, success_mode="strict")),
    "ml_cw_u": ("ml_cw_u", CONFIG),
    "ml_cw_u-delta1": ("ml_cw_u", replace(CONFIG, delta_threshold=1)),
    "tkml_ap_u": ("tkml_ap_u", CONFIG),
    "tkml_ap_u-delta1": ("tkml_ap_u", replace(CONFIG, delta_threshold=1)),
}


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
        # The outcome's own accounting: the counted calls, and why the attack stopped.
        assert (out.forward_passes, out.pullbacks) == (calls["vjp"] + calls["rows"],
                                                       calls["pullback"])
        assert out.stop == ("success" if out.success else
                            "budget" if fixed is None else "fixed_point")
        iterations += out.iterations_used
        pullbacks += calls["pullback"]
        forwards += calls["vjp"]
    assert iterations > 0
    if method == "ml_cw_u":
        assert pullbacks < iterations
        assert forwards < iterations
        assert fixed_points > 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("variant", ["c1_only", "strict", "delta1"])
@pytest.mark.parametrize("sigmoid", [True, False], ids=["sigmoid", "logit"])
def test_iteration_zero_scores_x_plus_zero(victim, method, variant, sigmoid):
    model, pairs = victim
    if not sigmoid:
        model = Scorer(model.weights, model.biases, model.activation, sigmoid_output=False)
    config = replace(CONFIG, success_mode="strict" if variant == "strict" else "c1_only",
                     delta_threshold=1 if variant == "delta1" else None)
    # Every other instance has -0.0 entries, which x + 0.0 makes +0.0.
    instances = []
    for n, (instance, _) in enumerate(pairs):
        x = instance.x.copy()
        if n % 2:
            x[::3] = -0.0
        instances.append(Instance(x=x, y=instance.y))
    X = np.stack([inst.x for inst in instances])
    # A report's cell scores its clean rows as they are; the batch row at x + 0.0.
    clean, rows = model.score(X), model.score(X + 0.0)
    at_zero = 0
    for instance, (_, spec), row, clean_row in zip(instances, pairs, rows, clean):
        if method == "ml_cw_u" and not instance.irrelevant:
            continue
        signed, plus = CountingScorer(model), CountingScorer(model)
        out = attack(method, signed, instance, spec, config)
        ref = attack(method, plus, Instance(x=instance.x + 0.0, y=instance.y), spec, config)
        at_zero += out.iterations_used == 0
        assert signed.calls == plus.calls
        assert out.forward_passes == signed.calls["vjp"] + signed.calls["rows"] >= 1
        assert vars(out).keys() == vars(ref).keys()
        for name, value in vars(ref).items():
            if isinstance(value, np.ndarray):
                assert getattr(out, name).tobytes() == value.tobytes(), name
            else:
                assert repr(getattr(out, name)) == repr(value), name
        assert out.scores_before.tobytes() == row.tobytes()
        assert evaluate_instance(out.scores_before, instance.y, K) == (
            evaluate_instance(clean_row, instance.y, K))
        # The outcome owns its scores.
        assert not np.shares_memory(out.scores_before, rows)
        assert not np.shares_memory(out.scores_after, rows)
    assert 0 < at_zero < len(pairs)


class ParentVjpScorer(Scorer):
    """``Scorer._vjp`` as it was before it decided once per pass whether any logit
    reaches the clip: the sigmoid always clips, and the pullback always masks."""

    def _vjp(self, x):
        z, pre, hidden = self._forward(x)
        if not self.sigmoid_output:
            return z, lambda cot: self._backward(cot, pre, hidden) @ self.weights[0]
        scores = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -36.0), 36.0)))

        def pullback(cot):
            cot = cot * (scores * (1.0 - scores) * (np.abs(z) < 36.0))
            return self._backward(cot, pre, hidden) @ self.weights[0]

        return scores, pullback


class ClipCounter(Scorer):
    """Counts the forward passes with and without a logit at or past +-36, in
    ``_vjp`` and in the rows of ``_scores``."""

    def __init__(self, model):
        super().__init__(model.weights, model.biases, model.activation, model.sigmoid_output)
        self.passes = {"vjp": [0, 0], "rows": [0, 0]}  # [inside the clip, reaching it]

    def _count(self, name, Z):
        reach = np.abs(np.atleast_2d(Z)).max(axis=1) >= 36.0
        self.passes[name][0] += int((~reach).sum())
        self.passes[name][1] += int(reach.sum())

    def _vjp(self, x):
        self._count("vjp", self._forward(x)[0])
        return super()._vjp(x)

    def _scores(self, X):
        self._count("rows", self._forward(X)[0])
        return super()._scores(X)


def sides(counter):
    """The passes of a :class:`ClipCounter` inside the clip and reaching it."""
    return [sum(counts[side] for counts in counter.passes.values()) for side in (0, 1)]


@pytest.fixture(scope="module")
def clipping_victim():
    """The affine victim of :func:`victim` with its parameters times 8, about a
    fifth of whose clean rows have a logit past +-36, and 16 instances to attack
    with S = {1}: under each method and mode, some attack's logits cross the clip."""
    data = gen_synthetic(SyntheticSpec(n=400, d=12, c=7, mean_relevant=3.5,
                                       label_correlation=0.5, seed=11))
    base = train_bce(data, TrainConfig(epochs=30, learning_rate=0.5, batch_size=64, seed=5))
    model = Scorer([8.0 * w for w in base.weights], [8.0 * b for b in base.biases])
    pairs = [(inst, (1,)) for inst in data
             if 1 in inst.relevant and len(inst.relevant) >= K + 1 and inst.irrelevant][:16]
    assert len(pairs) == 16
    return model, pairs


@pytest.mark.parametrize("mode", ["c1_only", "strict"])
@pytest.mark.parametrize("method", METHODS)
def test_logits_past_the_clip_give_the_reference_outcome(clipping_victim, method, mode):
    # The reference scores and pulls back through the always-clipped, always-masked
    # pass, so the engine's passes that skip the clip and the mask, and those that
    # keep them, must both give its bytes.
    model, pairs = clipping_victim
    config = replace(CONFIG, max_iter=60, success_mode=mode)
    reference = ParentVjpScorer(model.weights, model.biases)
    counter = ClipCounter(model)
    crossed = 0
    for instance, spec in pairs:
        ref = attack(method, reference, instance, spec, config, reference=True)
        before = sides(counter)
        new = attack(method, counter, instance, spec, config)
        assert (new.success, new.iterations_used, new.residual) == (
            ref.success, ref.iterations_used, ref.residual)
        assert (new.lambda1, new.lambda2) == (ref.lambda1, ref.lambda2)
        for name in ("epsilon", "scores_before", "scores_after"):
            assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
        # An attack whose own passes fell on both sides of the clip.
        crossed += all(now > then for now, then in zip(sides(counter), before))
    assert crossed > 0
    # Both branches ran in the loop, and a baseline's flat stretch scored
    # rows past the clip.
    assert min(counter.passes["vjp"]) > 0
    if method == "ml_cw_u":
        assert counter.passes["rows"][1] > 0
