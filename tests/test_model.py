import numpy as np
import pytest

from tkmia.core import Instance
from tkmia.model import (
    Scorer,
    TrainConfig,
    _bce_grads,
    _sigmoid,
    bce_loss,
    finite_diff_check,
    load_scorer,
    make_affine,
    make_mlp,
    save_scorer,
    train_bce,
)
from tkmia.metrics import ap_at_k


def forward_oracle(model, x):
    """Independent forward pass using plain loops."""
    h = np.asarray(x, dtype=float)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = np.array([sum(w[i, j] * h[j] for j in range(w.shape[1])) + b[i]
                        for i in range(w.shape[0])])
        if layer < len(model.weights) - 1:
            if model.activation == "tanh":
                out = np.tanh(out)
            elif model.activation == "relu":
                out = np.maximum(out, 0.0)
        h = out
    if model.sigmoid_output:
        h = 1.0 / (1.0 + np.exp(-h))
    return h


class TestScore:
    def test_zero_parameters_give_half(self):
        model = Scorer([np.zeros((3, 4))], [np.zeros(3)])
        assert model.score(np.zeros(4)).tolist() == [0.5, 0.5, 0.5]

    def test_identity_affine_at_zero(self):
        model = Scorer([np.array([[1.0]])], [np.array([0.0])])
        assert model.score(np.array([0.0]))[0] == 0.5

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            for maker in (lambda: make_affine(5, 4, seed=seed),
                          lambda: make_mlp(5, 7, 4, seed=seed),
                          lambda: make_mlp(5, 7, 4, seed=seed, activation="relu")):
                model = maker()
                x = rng.uniform(-1, 1, 5)
                np.testing.assert_allclose(model.score(x), forward_oracle(model, x),
                                           atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            model = make_mlp(6, 8, 5, seed=seed)
            scores = model.score(rng.uniform(-1, 1, 6))
            assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_dimension_mismatch(self):
        model = make_affine(4, 3)
        with pytest.raises(ValueError):
            model.score(np.zeros(5))

    def test_non_finite_input(self):
        model = make_affine(4, 3)
        with pytest.raises(ValueError):
            model.score(np.array([0.0, np.nan, 0.0, 0.0]))

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_sigmoid_output_must_be_a_bool(self, flag):
        with pytest.raises(ValueError) as raised:
            Scorer([np.eye(2)], [np.zeros(2)], sigmoid_output=flag)
        assert str(raised.value) == f"sigmoid_output must be true or false, got {flag!r}"


class TestInputGradient:
    def test_zero_cotangent(self):
        model = make_mlp(4, 5, 3, seed=2)
        grad = model.input_gradient(np.zeros(4), np.zeros(3))
        assert np.all(grad == 0.0)

    def test_one_dimensional_closed_form(self):
        w, b = 1.7, -0.3
        model = Scorer([np.array([[w]])], [np.array([b])])
        x = np.array([0.4])
        cot = np.array([2.0])
        s = 1.0 / (1.0 + np.exp(-(w * x[0] + b)))
        expected = cot[0] * s * (1 - s) * w
        assert model.input_gradient(x, cot)[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            model = make_mlp(5, 6, 4, seed=seed)
            x = rng.uniform(-0.9, 0.9, 5)
            ok, err = finite_diff_check(model, x, tolerance=1e-4)
            assert ok, f"relative error {err}"

    def test_linear_in_cotangent(self):
        rng = np.random.default_rng(4)
        model = make_mlp(5, 6, 4, seed=9)
        x = rng.uniform(-1, 1, 5)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        a, b = 1.7, -2.3
        combined = model.input_gradient(x, a * u + b * v)
        split = a * model.input_gradient(x, u) + b * model.input_gradient(x, v)
        np.testing.assert_allclose(combined, split, atol=1e-10)


def parent_input_gradient(model, x, cot):
    """The input gradient as computed before ``Scorer.vjp``: a second forward pass."""
    clip = 36.0
    x = np.asarray(x, dtype=np.float64)
    cot = np.asarray(cot, dtype=np.float64)

    def sigmoid_grad(z):
        p = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -clip), clip)))
        return p * (1.0 - p) * (np.abs(z) < clip)

    def act(pre):
        if model.activation == "tanh":
            return np.tanh(pre)
        if model.activation == "relu":
            return np.maximum(pre, 0.0)
        return pre

    def act_grad(pre):
        if model.activation == "tanh":
            t = np.tanh(pre)
            return 1.0 - t * t
        if model.activation == "relu":
            return (pre > 0.0).astype(np.float64)
        return np.ones_like(pre)

    if model.arch == "affine":
        z = model.weights[0] @ x + model.biases[0]
        g_z = cot * sigmoid_grad(z) if model.sigmoid_output else cot
        return model.weights[0].T @ g_z
    pre = model.weights[0] @ x + model.biases[0]
    z = model.weights[1] @ act(pre) + model.biases[1]
    g_z = cot * sigmoid_grad(z) if model.sigmoid_output else cot
    return model.weights[0].T @ ((model.weights[1].T @ g_z) * act_grad(pre))


def wide_logit_scorer(arch, activation, sigmoid_output):
    """A scorer whose logits pass +-36 on inputs in [-1, 1]^5."""
    base = (make_affine(5, 6, seed=1) if arch == "affine"
            else make_mlp(5, 8, 6, seed=1, activation=activation))
    return Scorer([40.0 * w for w in base.weights], [40.0 * b for b in base.biases],
                  activation, sigmoid_output)


class TestVjp:
    @pytest.mark.parametrize("sigmoid_output", [True, False], ids=["sigmoid", "raw"])
    @pytest.mark.parametrize("arch, activation", [
        ("affine", "tanh"), ("mlp", "tanh"), ("mlp", "relu"), ("mlp", "identity")])
    def test_matches_score_and_parent_gradient_bit_for_bit(self, arch, activation,
                                                           sigmoid_output):
        model = wide_logit_scorer(arch, activation, sigmoid_output)
        logits = Scorer(model.weights, model.biases, activation, sigmoid_output=False)
        rng = np.random.default_rng(8)
        clipped = inside = 0
        for _ in range(40):
            x = rng.uniform(-1.0, 1.0, 5)
            z = logits.score(x)
            clipped += int((np.abs(z) > 36.0).sum())
            inside += int((np.abs(z) < 36.0).sum())
            scores, pullback = model.vjp(x)
            assert scores.tobytes() == model.score(x).tobytes()
            for _ in range(2):
                cot = rng.normal(size=6)
                expected = parent_input_gradient(model, x, cot).tobytes()
                assert pullback(cot).tobytes() == expected
                assert model.input_gradient(x, cot).tobytes() == expected
        assert clipped > 0 and inside > 0

    @pytest.mark.parametrize("sigmoid_output", [True, False], ids=["sigmoid", "raw"])
    @pytest.mark.parametrize("arch, activation", [
        ("affine", "tanh"), ("mlp", "tanh"), ("mlp", "relu"), ("mlp", "identity")])
    def test_zero_cotangent_pulls_back_to_the_same_bytes_at_every_input(
            self, arch, activation, sigmoid_output):
        # The attack loop reuses one pullback of zeros per attack, so its bytes,
        # signed zeros included, must not depend on the input.
        model = wide_logit_scorer(arch, activation, sigmoid_output)
        logits = Scorer(model.weights, model.biases, activation, sigmoid_output=False)
        rng = np.random.default_rng(9)
        expected = model.vjp(np.zeros(5))[1](np.zeros(6)).tobytes()
        tanh_mlp = (arch, activation) == ("mlp", "tanh")
        clipped = saturated = 0
        for scale in (1.0, 20.0, 500.0):
            for _ in range(20):
                x = rng.uniform(-scale, scale, 5)
                clipped += int((np.abs(logits.score(x)) > 36.0).sum())
                if tanh_mlp:
                    hidden = np.tanh(model.weights[0] @ x + model.biases[0])
                    saturated += int((np.abs(hidden) == 1.0).sum())
                assert model.vjp(x)[1](np.zeros(6)).tobytes() == expected
        assert clipped > 0
        assert saturated > 0 or not tanh_mlp

    @pytest.mark.parametrize("cot", [
        np.zeros(5), np.zeros((1, 6)), [0.0] * 5 + [np.nan], [np.inf] + [0.0] * 5,
    ], ids=["short", "matrix", "nan", "inf"])
    def test_bad_cotangent_rejected(self, cot):
        _, pullback = make_mlp(5, 8, 6, seed=2).vjp(np.zeros(5))
        with pytest.raises(ValueError, match="cotangent"):
            pullback(cot)

    def test_bad_input_rejected_before_any_pullback(self):
        model = make_affine(5, 6, seed=2)
        with pytest.raises(ValueError, match="non-finite input"):
            model.vjp([0.0, np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="input dimension"):
            model.vjp(np.zeros(4))


def parent_activation(model, pre):
    if model.activation == "tanh":
        return np.tanh(pre)
    if model.activation == "relu":
        return np.maximum(pre, 0.0)
    return pre


def parent_bce_loss(model, X, Y):
    """Mean BCE as computed before ``Scorer._forward`` served training."""
    if model.arch == "affine":
        Z = X @ model.weights[0].T + model.biases[0]
    else:
        H = parent_activation(model, X @ model.weights[0].T + model.biases[0])
        Z = H @ model.weights[1].T + model.biases[1]
    return float(np.mean(np.logaddexp(0.0, Z) - Y * Z))


def parent_bce_grads(model, X, Y):
    """Batch BCE gradients as computed before ``Scorer._backward`` served training."""
    clip = 36.0

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -clip), clip)))

    b, c = X.shape[0], model.out_dim
    if model.arch == "affine":
        Z = X @ model.weights[0].T + model.biases[0]
        dZ = (sigmoid(Z) - Y) * (np.abs(Z) < clip) / (b * c)
        return [dZ.T @ X], [dZ.sum(axis=0)]
    Pre = X @ model.weights[0].T + model.biases[0]
    H = parent_activation(model, Pre)
    Z = H @ model.weights[1].T + model.biases[1]
    dZ = (sigmoid(Z) - Y) * (np.abs(Z) < clip) / (b * c)
    if model.activation == "tanh":
        act_grad = 1.0 - H * H
    elif model.activation == "relu":
        act_grad = (Pre > 0.0).astype(np.float64)
    else:
        act_grad = np.ones_like(Pre)
    dPre = (dZ @ model.weights[1]) * act_grad
    return [dPre.T @ X, dZ.T @ H], [dPre.sum(axis=0), dZ.sum(axis=0)]


ARCHS = [("affine", "tanh"), ("mlp", "tanh"), ("mlp", "relu"), ("mlp", "identity")]


class TestBatchPasses:
    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("arch, activation", ARCHS)
    def test_bce_matches_parent_bit_for_bit(self, arch, activation, n):
        model = wide_logit_scorer(arch, activation, sigmoid_output=True)
        rng = np.random.default_rng(10 + n)
        data = [Instance(x=rng.uniform(-1.0, 1.0, 5), y=(rng.uniform(size=6) < 0.4).astype(int))
                for _ in range(n)]
        X = np.stack([inst.x for inst in data])
        Y = np.stack([inst.y for inst in data]).astype(np.float64)
        if n > 1:
            logits = np.stack([Scorer(model.weights, model.biases, activation,
                                      sigmoid_output=False).score(x) for x in X])
            assert (np.abs(logits) > 36.0).any() and (np.abs(logits) < 36.0).any()
        loss = bce_loss(model, data)
        assert np.float64(loss).tobytes() == np.float64(parent_bce_loss(model, X, Y)).tobytes()
        # NaN buffers: every entry must be written.
        grads = [np.full_like(p, np.nan) for p in model.weights + model.biases]
        _bce_grads(model, X, Y, grads)
        grads_w, grads_b = grads[:len(model.weights)], grads[len(model.weights):]
        expected_w, expected_b = parent_bce_grads(model, X, Y)
        assert len(grads_w) == len(grads_b) == len(model.weights)
        for got, want in zip(grads_w + grads_b, expected_w + expected_b):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch, activation", ARCHS)
    def test_batch_forward_matches_score_rows(self, arch, activation):
        # A batch runs as one matrix product and a single input as a
        # matrix-vector product, so rows agree to rounding, not bytewise.
        model = wide_logit_scorer(arch, activation, sigmoid_output=False)
        X = np.random.default_rng(11).uniform(-1.0, 1.0, (30, 5))
        Z = model._forward(X)[0]
        assert Z.shape == (30, 6)
        for x, z in zip(X, Z):
            np.testing.assert_allclose(z, model.score(x), rtol=1e-12, atol=1e-12)


@pytest.mark.bitwise
class TestBatchScore:
    @pytest.mark.parametrize("sigmoid_output", [True, False], ids=["sigmoid", "raw"])
    @pytest.mark.parametrize("victim", [
        "affine", "mlp-tanh", "mlp-relu", "mlp-identity",
        "wide-affine", "wide-mlp-tanh", "wide-mlp-relu", "wide-mlp-identity",
        "paper-affine-512-20", "paper-mlp-512-20", "paper-affine-2048-80",
        "paper-mlp-2048-80", "paper-affine-2048-81", "paper-mlp-2048-81"])
    def test_rows_equal_single_scores_bit_for_bit(self, victim, sigmoid_output):
        # Pins the stacked product: a numpy or BLAS change that breaks it
        # fails here instead of drifting the reports. The paper-* victims have
        # the paper's (d, c) shapes, and a 64-unit hidden layer for the MLP.
        parts = victim.split("-")
        if parts[0] == "wide":
            model = wide_logit_scorer(parts[1], (parts + ["tanh"])[2], sigmoid_output)
        else:
            if parts[0] == "paper":
                arch, activation, d, hidden, c = parts[1], "tanh", int(parts[2]), 64, int(parts[3])
            else:
                arch, activation, d, hidden, c = parts[0], (parts + ["tanh"])[1], 32, 16, 10
            base = (make_affine(d, c, seed=3) if arch == "affine"
                    else make_mlp(d, hidden, c, seed=3, activation=activation))
            model = Scorer(base.weights, base.biases, base.activation, sigmoid_output)
        rng = np.random.default_rng(21)
        X = rng.uniform(-1.0, 1.0, (300, model.in_dim))
        single = [model.score(x).tobytes() for x in X]
        # the attack loop's forward pass gives the same bytes as score
        assert [model.vjp(x)[0].tobytes() for x in X] == single
        for rows in (np.arange(300), rng.permutation(300), rng.permutation(300)[:37],
                     rng.permutation(300)[:1], np.array([5, 5, 2])):
            batch = model.score(X[rows])
            assert batch.shape == (len(rows), model.out_dim)
            assert [row.tobytes() for row in batch] == [single[i] for i in rows]

    def test_bad_batch_rejected(self):
        model = make_affine(5, 6, seed=2)
        with pytest.raises(ValueError, match=r"input dimension \(3, 4\) != \(5,\) or \(N, 5\)"):
            model.score(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="input dimension"):
            model.score(np.zeros((2, 3, 5)))
        with pytest.raises(ValueError, match="non-finite input"):
            model.score([[0.0] * 5, [0.0, np.inf, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="input dimension"):
            model.vjp(np.zeros((3, 5)))


def sigmoid_oracle(z):
    """The clipped sigmoid as one plain expression, on an array of ``z``'s shape."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -36.0), 36.0)))


# Logits beyond the clip, exactly on it, just inside it, both zeros and ordinary values.
PINNED_LOGITS = [-1e3, -36.5, -36.0, -35.999, -2.25, -1e-300, -0.0, 0.0, 1e-300, 0.75, 35.999,
                 36.0, 36.5, 1e3]


@pytest.mark.bitwise
class TestSigmoidBytes:
    """Every path to the scores has the bytes of :func:`sigmoid_oracle` on its logits."""

    @pytest.mark.parametrize("shape", [(14,), (5, 14)])
    def test_sigmoid_in_place_and_new(self, shape):
        Z = np.array(PINNED_LOGITS) * np.ones(shape)
        if len(shape) == 2:  # each row a different order of the logits
            Z = np.random.default_rng(3).permuted(Z, axis=1)
        expected = sigmoid_oracle(Z).tobytes()
        assert _sigmoid(Z.copy()).tobytes() == expected
        buffer = Z.copy()
        assert _sigmoid(buffer, out=buffer) is buffer
        assert buffer.tobytes() == expected

    @pytest.mark.parametrize("arch", ["affine", "mlp"])
    def test_score_scores_and_vjp(self, arch):
        # Zero last-layer weights put the pinned logits on every input; the
        # 40-fold scorer reaches past +-36 on inputs in [-1, 1]^5.
        c = len(PINNED_LOGITS)
        pinned = (Scorer([np.zeros((c, 5))], [np.array(PINNED_LOGITS)]) if arch == "affine"
                  else Scorer([np.ones((3, 5)), np.zeros((c, 3))],
                              [np.zeros(3), np.array(PINNED_LOGITS)]))
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 5))
        for model in (pinned, wide_logit_scorer(arch, "tanh", sigmoid_output=True)):
            logits = np.stack([model._forward(x)[0] for x in X])
            expected = sigmoid_oracle(logits)
            for x, z, row in zip(X, logits, expected):
                assert sigmoid_oracle(z).tobytes() == row.tobytes()
                assert model.score(x).tobytes() == row.tobytes()
                assert model._scores(x).tobytes() == row.tobytes()
                assert model._vjp(x)[0].tobytes() == row.tobytes()
            assert model.score(X).tobytes() == expected.tobytes()
            assert model._scores(X).tobytes() == expected.tobytes()
        # Every pinned logit, though the sum x @ 0 + b may turn -0.0 into 0.0.
        assert set(pinned._forward(X[0])[0].tolist()) == set(PINNED_LOGITS)


class TestFiniteDiffCheck:
    def test_affine_near_machine_precision(self):
        model = make_affine(6, 4, seed=5)
        ok, err = finite_diff_check(model, np.linspace(-0.5, 0.5, 6), tolerance=1e-6)
        assert ok and err < 1e-6

    def test_mlp_tanh_passes(self):
        model = make_mlp(6, 8, 4, seed=6)
        ok, _ = finite_diff_check(model, np.linspace(-0.5, 0.5, 6), tolerance=1e-4)
        assert ok

    def test_corrupted_gradient_fails(self):
        model = make_affine(6, 4, seed=7)

        class Corrupted(Scorer):
            def input_gradient(self, x, cotangent):
                return super().input_gradient(x, cotangent) + 0.01

        bad = Corrupted(model.weights, model.biases)
        ok, err = finite_diff_check(bad, np.linspace(-0.5, 0.5, 6), tolerance=1e-4)
        assert not ok and err > 1e-4

    @pytest.mark.parametrize("arch", ["affine", "mlp"])
    def test_equals_the_per_class_loop_bit_for_bit(self, arch):
        def per_class_loop(model, x, tolerance, step=1e-5):
            # finite_diff_check as it was: 2 * c * d score calls, one class at a time
            x = np.asarray(x, dtype=np.float64)
            worst = 0.0
            for j in range(model.out_dim):
                cot = np.zeros(model.out_dim)
                cot[j] = 1.0
                analytic = model.input_gradient(x, cot)
                numeric = np.zeros_like(x)
                for i in range(x.shape[0]):
                    bump = np.zeros_like(x)
                    bump[i] = step
                    numeric[i] = (model.score(x + bump)[j] - model.score(x - bump)[j]) / (2 * step)
                scale = max(float(np.linalg.norm(numeric)), 1e-12)
                worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
            return worst <= tolerance, worst

        rng = np.random.default_rng(11)
        for trial in range(10):
            d, c = int(rng.integers(1, 9)), int(rng.integers(2, 9))
            model = (make_affine(d, c, seed=trial) if arch == "affine"
                     else make_mlp(d, int(rng.integers(1, 9)), c, seed=trial))
            x = rng.uniform(-0.8, 0.8, d)
            for tolerance, step in ((1e-4, 1e-5), (1e-9, 1e-3)):
                assert (finite_diff_check(model, x, tolerance, step)
                        == per_class_loop(model, x, tolerance, step))


def toy_separable(n=200, seed=0):
    # Two classes, each relevant exactly when its own coordinate is
    # positive; at least one coordinate positive so AP is defined.
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < n:
        x = rng.uniform(-1, 1, 2)
        y = np.array([int(x[0] > 0), int(x[1] > 0)])
        if y.sum() == 0:
            continue
        instances.append(Instance(x=x, y=y))
    return instances


def parent_train_bce(dataset, config, model=None):
    """Training as a loop that gathers each batch's rows: a frozen copy of the
    former ``train_bce``, the oracle of the gathered-rows epoch."""
    X = np.stack([inst.x for inst in dataset])
    Y = np.stack([inst.y for inst in dataset]).astype(np.float64)
    n, d = X.shape
    model = make_affine(d, Y.shape[1], seed=config.seed) if model is None else model.copy()
    rng = np.random.default_rng(config.seed)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            grads_w, grads_b = parent_bce_grads(model, X[idx], Y[idx])
            for i in range(len(model.weights)):
                vel_w[i] = config.momentum * vel_w[i] + grads_w[i]
                vel_b[i] = config.momentum * vel_b[i] + grads_b[i]
                model.weights[i] -= config.learning_rate * vel_w[i]
                model.biases[i] -= config.learning_rate * vel_b[i]
    return model


class TestTrainBce:
    # (victim, n, batch size, epochs): batch sizes that divide n, that do not,
    # above n and above the rows gathered per pass; no epochs at all.
    @pytest.mark.bitwise
    @pytest.mark.parametrize("victim, n, batch_size, epochs", [
        (None, 300, 64, 4), ("affine", 300, 60, 4), ("affine", 300, 500, 6),
        ("tanh", 1100, 48, 3), ("relu", 1500, 700, 4), ("tanh", 200, 64, 0), (None, 200, 64, 0),
    ])
    def test_equals_the_per_batch_loop_bit_for_bit(self, victim, n, batch_size, epochs):
        from tkmia.harness import SyntheticSpec, gen_synthetic

        data = gen_synthetic(SyntheticSpec(n=n, d=12, c=5, mean_relevant=2.0,
                                           label_correlation=0.4, seed=n))
        init = {None: None, "affine": make_affine(12, 5, seed=1),
                "tanh": make_mlp(12, 9, 5, seed=2, activation="tanh"),
                "relu": make_mlp(12, 9, 5, seed=3, activation="relu")}[victim]
        config = TrainConfig(epochs=epochs, learning_rate=0.5, momentum=0.9,
                             batch_size=batch_size, seed=4)
        got, want = train_bce(data, config, model=init), parent_train_bce(data, config, init)
        assert (got.arch, got.activation) == (want.arch, want.activation)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        if epochs:
            assert bce_loss(got, data) < bce_loss(init or make_affine(12, 5, seed=4), data)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("victim", ["affine", "relu"])
    def test_trained_scorer_owns_its_arrays_and_repeats_bit_for_bit(self, victim):
        # Training updates views of one flat parameter vector; the scorer it
        # returns holds copies, which share no memory with each other, with the
        # initial model or with another training's scorer.
        from tkmia.harness import SyntheticSpec, gen_synthetic

        data = gen_synthetic(SyntheticSpec(n=300, d=12, c=5, mean_relevant=2.0,
                                           label_correlation=0.4, seed=2))
        init = (make_affine(12, 5, seed=1) if victim == "affine"
                else make_mlp(12, 9, 5, seed=3, activation="relu"))
        before = [p.tobytes() for p in init.weights + init.biases]
        config = TrainConfig(epochs=3, learning_rate=0.5, momentum=0.9, batch_size=64, seed=4)
        first, second = train_bce(data, config, model=init), train_bce(data, config, model=init)
        params = first.weights + first.biases
        others = init.weights + init.biases + second.weights + second.biases
        for i, param in enumerate(params):
            assert param.flags.owndata
            for other in params[i + 1:] + others:
                assert not np.shares_memory(param, other)
                # Views of one flat vector share bounds, though not elements.
                assert not np.may_share_memory(param, other)
        assert [p.tobytes() for p in params] == [
            p.tobytes() for p in second.weights + second.biases]
        assert [p.tobytes() for p in init.weights + init.biases] == before

    def test_default_config_is_train_victims(self):
        from tkmia.harness import train_victim

        assert TrainConfig() == TrainConfig(epochs=100, learning_rate=0.5, momentum=0.9,
                                            batch_size=64, seed=0)
        data = toy_separable(n=80)
        trained = train_victim(data)
        expected = train_bce(data, TrainConfig(epochs=100, learning_rate=0.5, momentum=0.9,
                                               batch_size=64, seed=0),
                             model=make_affine(2, 2, seed=0))
        for got, want in zip(trained.weights + trained.biases,
                             expected.weights + expected.biases):
            np.testing.assert_array_equal(got, want)

    def test_zero_epochs_identity(self):
        data = toy_separable(50)
        init = make_affine(2, 2, seed=1)
        trained = train_bce(data, TrainConfig(epochs=0, learning_rate=0.1), model=init)
        for w0, w1 in zip(init.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_deterministic_parameters(self):
        data = toy_separable(100)
        config = TrainConfig(epochs=20, learning_rate=0.5, batch_size=16, seed=3)
        a = train_bce(data, config)
        b = train_bce(data, config)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_separable_data_reaches_high_ap(self):
        data = toy_separable(300, seed=2)
        config = TrainConfig(epochs=300, learning_rate=1.0, batch_size=300, seed=0)
        model = train_bce(data, config)
        aps = [ap_at_k(model.score(inst.x), inst.y, 1) for inst in data]
        assert np.mean(aps) >= 0.95

    def test_full_batch_loss_non_increasing(self):
        data = toy_separable(150, seed=4)
        model = make_affine(2, 2, seed=0)
        losses = [bce_loss(model, data)]
        # momentum 0 and full batch make each epoch a plain descent step
        config = TrainConfig(epochs=1, learning_rate=0.5, momentum=0.0, batch_size=150)
        for _ in range(30):
            model = train_bce(data, config, model=model)
            losses.append(bce_loss(model, data))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_bce([], TrainConfig(epochs=1, learning_rate=0.1))

    def test_model_of_other_sizes_rejected(self):
        with pytest.raises(ValueError) as raised:
            train_bce(toy_separable(20), TrainConfig(epochs=1), model=make_affine(3, 2))
        assert str(raised.value) == "model dimensions do not match dataset"

    def test_raw_output_model_rejected(self):
        with pytest.raises(ValueError) as raised:
            train_bce(toy_separable(20), TrainConfig(epochs=1),
                      model=make_affine(2, 2, sigmoid_output=False))
        assert str(raised.value) == "BCE training requires a sigmoid output"

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("batch_size", 8.5, "batch size must be an integer, got 8.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ])
    def test_counts_and_seed_take_the_integer_rule(self, field, value, message):
        # A float epoch count or batch size once failed with a bare TypeError,
        # and True trained one epoch.
        with pytest.raises(ValueError) as raised:
            TrainConfig(**{field: value})
        assert str(raised.value) == message

    def test_numpy_integers_stored_as_ints(self):
        config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint8(3))
        assert [type(v) for v in (config.epochs, config.batch_size, config.seed)] == [int] * 3

    def test_mlp_needs_a_hidden_unit(self):
        with pytest.raises(ValueError, match="hidden size must be >= 1, got 0"):
            make_mlp(4, 0, 3)

    def test_mlp_training_runs(self):
        data = toy_separable(100, seed=5)
        init = make_mlp(2, 6, 2, seed=1)
        config = TrainConfig(epochs=50, learning_rate=0.5, batch_size=25, seed=1)
        model = train_bce(data, config, model=init)
        assert bce_loss(model, data) < bce_loss(init, data)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        for model in (make_affine(5, 3, seed=8),
                      make_mlp(5, 4, 3, seed=9, activation="relu"),
                      make_affine(4, 2, seed=10, sigmoid_output=False)):
            path = tmp_path / "scorer.jsonl"
            save_scorer(model, str(path))
            loaded = load_scorer(str(path))
            assert loaded.arch == model.arch
            assert loaded.activation == model.activation
            assert loaded.sigmoid_output == model.sigmoid_output
            for wa, wb in zip(model.weights, loaded.weights):
                np.testing.assert_array_equal(wa, wb)
            for ba, bb in zip(model.biases, loaded.biases):
                np.testing.assert_array_equal(ba, bb)

    def test_format_field_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "shapes": []}\n')
        with pytest.raises(ValueError):
            load_scorer(str(path))

    def test_scores_survive_roundtrip(self, tmp_path):
        model = make_mlp(6, 5, 4, seed=11)
        path = tmp_path / "scorer.jsonl"
        save_scorer(model, str(path))
        x = np.linspace(-1, 1, 6)
        np.testing.assert_array_equal(model.score(x), load_scorer(str(path)).score(x))
