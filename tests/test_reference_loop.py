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
the whole budget, gives the same outcome.
"""
from dataclasses import replace

import pytest

from tkmia.attack import AttackConfig
from tkmia.harness import SyntheticSpec, gen_synthetic
from tkmia.model import TrainConfig, make_mlp, train_bce

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
        iterations += out.iterations_used
        pullbacks += calls["pullback"]
        forwards += calls["vjp"]
    assert iterations > 0
    if method == "ml_cw_u":
        assert pullbacks < iterations
        assert forwards < iterations
        assert fixed_points > 0
