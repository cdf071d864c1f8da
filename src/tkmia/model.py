"""Small differentiable multi-label scorers with exact input gradients.

Two victim families are provided: an affine map and a one-hidden-layer
MLP, whose scores are sigmoid outputs in (0, 1) or raw logits. They are
small on purpose: the affine family keeps the attack objective convex in
the perturbation on its logits, the MLP family gives a realistic
non-convex victim, and both admit hand-written forward/backward passes
that can be validated against finite differences.

A scorer is immutable after construction as far as callers are concerned:
``score``, ``vjp`` and ``input_gradient`` never mutate state and may run
concurrently. Training builds a new scorer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, _finite, _integer, _seed, atomic_write, read_archive

__all__ = [
    "Scorer",
    "TrainConfig",
    "make_affine",
    "make_mlp",
    "train_bce",
    "bce_loss",
    "save_scorer",
    "load_scorer",
]

# Sigmoid saturates to exactly 0.0/1.0 in float64 beyond |z| ~ 36.7; clip
# logits so outputs stay strictly inside (0, 1).
_LOGIT_CLIP = 36.0
# The clip bounds and 1.0 as 0-d arrays, which ufuncs take faster than Python floats.
_CLIP_LO, _CLIP_HI, _ONE = np.array(-_LOGIT_CLIP), np.array(_LOGIT_CLIP), np.array(1.0)


def _sigmoid(z: np.ndarray, out=None) -> np.ndarray:
    """The clipped sigmoid in one buffer: ``out`` (which may be ``z``), or a new one."""
    t = np.maximum(z, _CLIP_LO, out=out)
    return _logistic(np.minimum(t, _CLIP_HI, out=t))


def _logistic(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), written over ``t``: the sigmoid of logits inside the clip."""
    np.exp(np.negative(t, t), t)
    return np.divide(_ONE, np.add(t, _ONE, t), t)


# Each hidden activation: its function of the pre-activation ``pre``, and its
# derivative at ``pre`` given the function's output ``hidden`` there, as a factor
# of the cotangent (relu's is boolean). Each writes into ``out`` when given, and
# otherwise into a new array, except identity's: they return ``pre`` and 1.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda pre, hidden, out=None:
             np.subtract(_ONE, np.multiply(hidden, hidden, out=out), out=out)),
    "relu": (lambda pre, out=None: np.maximum(pre, 0.0, out=out),
             lambda pre, hidden, out=None: np.greater(pre, 0.0, out=out)),
    "identity": (lambda pre, out=None: pre, lambda pre, hidden, out=None: _ONE),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


class Scorer:
    """Multi-label prediction function mapping features to class scores.

    ``weights``/``biases`` hold one (out, in)-shaped matrix and one bias
    vector per layer: a single layer for the affine family, two for the
    MLP. With ``sigmoid_output=False`` the scores are the logits, on which an
    affine victim's attack objective is convex; BCE training needs the sigmoid.
    """

    def __init__(self, weights, biases, activation: str = "tanh",
                 sigmoid_output: bool = True):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(self.weights) not in (1, 2) or len(self.weights) != len(self.biases):
            raise ValueError("expected 1 (affine) or 2 (mlp) weight/bias layers")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if len(self.weights) == 1 and activation != "tanh":
            raise ValueError(f"affine scorer: activation must be 'tanh', got {activation!r}")
        for number, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {number}: shapes inconsistent")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {number}: non-finite parameters")
        if len(self.weights) == 2 and self.weights[0].shape[0] != self.weights[1].shape[1]:
            raise ValueError("hidden dimensions do not chain")
        if not isinstance(sigmoid_output, bool):
            raise ValueError(f"sigmoid_output must be true or false, got {sigmoid_output!r}")
        self.activation = activation
        self.sigmoid_output = sigmoid_output

    @property
    def arch(self) -> str:
        return "affine" if len(self.weights) == 1 else "mlp"

    @property
    def in_dim(self) -> int:
        return int(self.weights[0].shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.weights[-1].shape[0])

    def copy(self) -> "Scorer":
        return Scorer([w.copy() for w in self.weights],
                      [b.copy() for b in self.biases],
                      self.activation, self.sigmoid_output)

    def _check_input(self, x, ndims=(1,)) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in ndims or x.shape[-1] != self.in_dim:
            batch = f" or (N, {self.in_dim})" if 2 in ndims else ""
            raise ValueError(f"input dimension {x.shape} != ({self.in_dim},){batch}")
        if np.count_nonzero(np.isfinite(x)) != x.size:  # skips .all()'s Python wrapper
            raise ValueError("non-finite input")
        return x

    def _forward(self, X):
        """Logits of a validated (d,) vector or (N, d) batch, with the hidden
        layer's pre-activation and output (both None for the affine family).
        """
        if len(self.weights) == 1:
            return X @ self.weights[0].T + self.biases[0], None, None
        pre = X @ self.weights[0].T + self.biases[0]
        hidden = _ACTIVATIONS[self.activation][0](pre)
        return hidden @ self.weights[1].T + self.biases[1], pre, hidden

    def _backward(self, dz, pre, hidden):
        """The first layer's output cotangent, given the logit cotangent ``dz``
        and the pre-activation and hidden output of :meth:`_forward`.
        """
        if hidden is None:
            return dz
        return (dz @ self.weights[1]) * _ACTIVATIONS[self.activation][1](pre, hidden)

    def score(self, x) -> np.ndarray:
        """Deterministic forward pass; scores strictly inside (0, 1), or logits.

        A (d,) vector gives (c,) scores and an (N, d) batch (N, c) scores.
        Both run as stacked (1, d) products, which give each row the bytes
        of the single-input ``score``, whatever the other rows are; a plain
        matrix product would not.
        """
        return self._scores(self._check_input(x, ndims=(1, 2)))

    def _scores(self, X):
        """:meth:`score` of a finite float64 (d,) or (N, d) ``X``, unchecked. Each row
        has the bytes of ``_vjp(row)[0]``; a subclass that overrides :meth:`_vjp`
        must override this too."""
        return self._output(self._forward(X[..., None, :])[0][..., 0, :])

    def _output(self, z):
        """Scores from logits: their sigmoid, or the logits themselves."""
        return _sigmoid(z) if self.sigmoid_output else z

    def vjp(self, x):
        """Scores at ``x`` and the pullback of a score cotangent to ``x``.

        Runs one forward pass. ``pullback(cotangent)`` returns the gradient
        of ``cotangent . score(x)`` with respect to ``x`` by exact chain
        rule, reusing that pass's arrays; it is linear in the cotangent and
        may be called any number of times. ``x`` must be a finite (d,)
        vector and the cotangent a finite (c,) vector; :meth:`_vjp` does the
        arithmetic after these checks.
        """
        scores, pull = self._vjp(self._check_input(x))

        def pullback(cotangent) -> np.ndarray:
            cot = np.asarray(cotangent, dtype=np.float64)
            if cot.shape != scores.shape:
                raise ValueError(f"cotangent shape {cot.shape} != {scores.shape}")
            if not np.isfinite(cot).all():
                raise ValueError("non-finite cotangent")
            return pull(cot)

        return scores, pullback

    def _vjp(self, x):
        """:meth:`vjp` without its checks, for a loop that checks once.

        ``x`` is a finite float64 (d,) vector, such as :meth:`_check_input`
        returns, and the pullback takes a float64 (c,) cotangent as it is.
        Whether any logit reaches the clip at ±36 is decided once, here. When
        none does, the clip would leave the logits as they are and the
        pullback's mask ``|z| < 36`` would be all True, and ``x * True`` is
        ``x`` bit for bit, -0.0 included: so the sigmoid skips the clip and
        the pullback the mask, with the bytes of the clipped, masked pass.
        """
        z, pre, hidden = self._forward(x)
        scores, mask = z, None
        if self.sigmoid_output:
            # One pass over the logits as floats; z is this pass's own array.
            if max(map(abs, z.tolist())) < _LOGIT_CLIP:
                scores = _logistic(z)
            else:
                mask = np.less(np.abs(z), _CLIP_HI)
                scores = _sigmoid(z, out=z)

        def pullback(cot) -> np.ndarray:
            if self.sigmoid_output:
                # The sigmoid's derivative, zero where the logit clip is active, times cot.
                g = np.multiply(scores, np.subtract(_ONE, scores))
                if mask is not None:
                    np.multiply(g, mask, g)
                cot = np.multiply(cot, g, g)
            return self._backward(cot, pre, hidden) @ self.weights[0]

        return scores, pullback

    def input_gradient(self, x, cotangent) -> np.ndarray:
        """Gradient of ``cotangent . score(x)`` with respect to ``x``.

        A vector-Jacobian product by exact chain rule; linear in the
        cotangent.
        """
        return self.vjp(x)[1](cotangent)


def _init_layer(rng: np.random.Generator, out_dim: int, in_dim: int):
    # Uniform in [-s, s] with s = 1/sqrt(fan_in).
    s = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-s, s, size=(out_dim, in_dim)), rng.uniform(-s, s, size=out_dim)


def make_affine(in_dim: int, n_classes: int, seed: int = 0,
                sigmoid_output: bool = True) -> Scorer:
    rng = np.random.default_rng(seed)
    w, b = _init_layer(rng, n_classes, in_dim)
    return Scorer([w], [b], sigmoid_output=sigmoid_output)


def make_mlp(in_dim: int, hidden_dim: int, n_classes: int, seed: int = 0,
             activation: str = "tanh", sigmoid_output: bool = True) -> Scorer:
    if hidden_dim < 1:
        raise ValueError(f"hidden size must be >= 1, got {hidden_dim}")
    rng = np.random.default_rng(seed)
    w1, b1 = _init_layer(rng, hidden_dim, in_dim)
    w2, b2 = _init_layer(rng, n_classes, hidden_dim)
    return Scorer([w1, w2], [b1, b2], activation, sigmoid_output)


@dataclass
class TrainConfig:
    """Mini-batch BCE settings; the defaults are :class:`tkmia.harness.VictimSpec`'s."""

    epochs: int = 100
    learning_rate: float = 0.5
    momentum: float = 0.9
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        self.epochs = _integer(self.epochs, "epochs must be an integer, got")
        self.batch_size = _integer(self.batch_size, "batch size must be an integer, got")
        self.seed = _seed(self.seed)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        _finite(self.learning_rate, "learning rate must be finite, got")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")


# Training rows gathered per pass: bounded, so that no epoch copies the whole set.
_GATHER_ROWS = 512


def bce_loss(model: Scorer, dataset) -> float:
    """Mean binary cross-entropy of the scorer over a dataset."""
    data = Dataset.of(dataset)
    Z = model._forward(data.X)[0]
    # Stable form of -[y log p + (1-y) log(1-p)] with p = sigmoid(z).
    return float(np.mean(np.logaddexp(0.0, Z) - data.Y * Z))


def train_bce(dataset, config: TrainConfig, model: Scorer | None = None) -> Scorer:
    """Mini-batch gradient descent with momentum on mean BCE.

    ``dataset`` is a :class:`~tkmia.core.Dataset` or any sequence of instances.
    Training starts from ``model`` when given, otherwise from a seeded affine
    initialization sized to the dataset. Identical (dataset, config, model)
    always produce bit-identical parameters.

    The work arrays of a batch step are allocated once per training, and each
    step writes into them: the parameters keep the bytes of a step that
    allocates its arrays, since every product and sum runs in the same order.
    """
    data = Dataset.of(dataset)
    X, Y = data.X, data.Y.astype(np.float64)
    n, d = X.shape
    c = Y.shape[1]
    if model is None:
        model = make_affine(d, c, seed=config.seed)
    elif model.in_dim != d or model.out_dim != c:
        raise ValueError("model dimensions do not match dataset")
    if not model.sigmoid_output:
        raise ValueError("BCE training requires a sigmoid output")

    rng = np.random.default_rng(config.seed)
    # Parameters and gradients are views of two flat vectors: one update per batch.
    params = model.weights + model.biases
    flat = np.concatenate([p.ravel() for p in params])
    grad, velocity, step = np.empty_like(flat), np.zeros_like(flat), np.empty_like(flat)
    cuts = np.cumsum([p.size for p in params])[:-1]
    views, grads = ([part.reshape(p.shape) for part, p in zip(np.split(v, cuts), params)]
                    for v in (flat, grad))
    model = Scorer(views[:len(model.weights)], views[len(model.weights):], model.activation)
    # Each epoch's permuted rows are gathered _GATHER_ROWS or so at a time, and
    # each batch is a slice of them, with the bytes of X[order[batch]]: fewer
    # gathers than one per batch, and no second copy of the whole dataset.
    span = config.batch_size * max(1, _GATHER_ROWS // config.batch_size)
    # 0-d arrays, which ufuncs take faster than Python floats.
    momentum, rate = (np.array(v, dtype=np.float64)
                      for v in (config.momentum, config.learning_rate))
    work = _bce_work(model, min(n, config.batch_size))
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, span):
            rows = order[lo:lo + span]
            # Every index is in range: take's "clip" mode gives X[rows] in about half the time.
            X_rows, Y_rows = X.take(rows, 0, mode="clip"), Y.take(rows, 0, mode="clip")
            for start in range(0, len(rows), config.batch_size):
                stop = start + config.batch_size
                _bce_grads(model, X_rows[start:stop], Y_rows[start:stop], grads, work)
                velocity *= momentum
                velocity += grad
                flat -= np.multiply(rate, velocity, out=step)
    return model.copy()


def _bce_work(model: Scorer, rows: int) -> list:
    """:func:`_bce_grads`' work arrays for batches of up to ``rows`` rows: the
    divisor ``rows * c`` as a 0-d array, (rows, c) logits and their magnitudes,
    then the hidden layer's (rows, h) pre-activation, output and cotangent
    (Nones for the affine family)."""
    c, h = model.out_dim, model.weights[0].shape[0]
    hidden = [np.empty((rows, h)) if model.arch == "mlp" else None for _ in range(3)]
    return [np.array(float(rows * c)), np.empty((rows, c)), np.empty((rows, c))] + hidden


def _bce_grads(model: Scorer, X: np.ndarray, Y: np.ndarray, out, work) -> None:
    """The batch's mean-BCE gradients, written into ``out``: the weights', then the biases'.

    ``work`` is :func:`_bce_work`'s list for at least the batch's rows; what
    its arrays hold on entry does not matter.
    """
    rows = len(X)
    if rows != len(work[1]):  # a shorter batch, such as an epoch's last: leading rows
        work = [np.array(float(rows * model.out_dim))] + [w if w is None else w[:rows]
                                                          for w in work[1:]]
    scale, Z, A, pre, H, G = work
    W, b = model.weights, model.biases
    # Scorer._forward's products and sums in its order, written into the work
    # arrays; Scorer._forward keeps its operators, which the N = 1 attack path
    # calls faster than ufuncs that take an out= keyword.
    if H is not None:
        activation, derivative = _ACTIVATIONS[model.activation]
        H = activation(np.add(np.matmul(X, W[0].T, out=pre), b[0], out=pre), out=H)
    np.add(np.matmul(X if H is None else H, W[-1].T, out=Z), b[-1], out=Z)
    # (sigmoid(Z) - Y) * (|Z| < clip) / (B * c), in place. With every |Z| inside
    # the clip, the clip leaves Z as it is and the mask is all True: x * True is
    # x bit for bit, -0.0 included.
    if np.maximum.reduce(np.abs(Z, out=A), axis=None) < _LOGIT_CLIP:
        dZ = np.subtract(_logistic(Z), Y, out=Z)
    else:
        dZ = np.subtract(_sigmoid(Z, out=Z), Y, out=Z)
        dZ *= np.less(A, _CLIP_HI, out=A)
    dZ /= scale
    # (output cotangent, input) of each layer; the affine family has only the first.
    layers = [(dZ, X)]
    if H is not None:  # Scorer._backward; the derivative overwrites pre, read no more
        G = np.multiply(np.matmul(dZ, W[1], out=G), derivative(pre, H, out=pre), out=G)
        layers = [(G, X), (dZ, H)]
    for (g, a), grad_w, grad_b in zip(layers, out, out[len(layers):]):
        np.matmul(g.T, a, out=grad_w)
        np.add.reduce(g, axis=0, out=grad_b)


# The entries of an affine and of an MLP scorer's archive: each layer's weight and
# bias, the hidden activation, and whether the scores are sigmoid outputs.
_SCORER_LAYOUTS = [
    {**{f"{name}_{number}": (ndim, "numeric") for number in range(1, layers + 1)
        for name, ndim in (("weight", 2), ("bias", 1))},
     "activation": (0, "str"), "sigmoid_output": (0, "bool")}
    for layers in (1, 2)]


def save_scorer(model: Scorer, path: str) -> None:
    """An uncompressed ``.npz`` archive at exactly ``path``: ``weight_1`` and ``bias_1``,
    and ``weight_2`` and ``bias_2`` for an MLP, then ``activation`` as a 0-d str array
    and ``sigmoid_output`` as a 0-d bool array. numpy dates each entry 1980-01-01, so
    equal scorers give equal bytes."""
    layers = {f"{name}_{number}": array
              for number, pair in enumerate(zip(model.weights, model.biases), start=1)
              for name, array in zip(("weight", "bias"), pair)}
    with atomic_write(path, binary=True) as handle:
        np.savez(handle, **layers, activation=model.activation,
                 sigmoid_output=model.sigmoid_output)


def load_scorer(path: str) -> Scorer:
    """Read :func:`save_scorer`'s format, checked once by :class:`Scorer`; the layer
    count gives the arch. Any other file raises one ValueError line that begins with
    ``path``."""
    def build(arrays):
        layers = range(1, len(arrays) // 2)  # two entries per layer, and two more
        return Scorer([arrays[f"weight_{number}"] for number in layers],
                      [arrays[f"bias_{number}"] for number in layers],
                      str(arrays["activation"]), bool(arrays["sigmoid_output"]))

    return read_archive(path, "scorer", _SCORER_LAYOUTS, build)
