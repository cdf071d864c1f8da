"""Small differentiable multi-label scorers with exact input gradients.

Two victim families are provided: an affine map and a one-hidden-layer
MLP, both ending in a sigmoid so scores live in (0, 1). They are small on
purpose: the affine family keeps the attack objective convex in the
perturbation (with the sigmoid disabled), the MLP family gives a realistic
non-convex victim, and both admit hand-written forward/backward passes
that can be validated against finite differences.

A scorer is immutable after construction as far as callers are concerned:
``score``, ``vjp`` and ``input_gradient`` never mutate state and may run
concurrently. Training builds a new scorer.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import _integer, _seed, atomic_write

__all__ = [
    "Scorer",
    "TrainConfig",
    "make_affine",
    "make_mlp",
    "train_bce",
    "bce_loss",
    "finite_diff_check",
    "save_scorer",
    "load_scorer",
]

FORMAT_TAG = "tkmia-scorer-v1"

# Sigmoid saturates to exactly 0.0/1.0 in float64 beyond |z| ~ 36.7; clip
# logits so outputs stay strictly inside (0, 1).
_LOGIT_CLIP = 36.0
# The clip bounds and 1.0 as 0-d arrays, which ufuncs take faster than Python floats.
_CLIP_LO, _CLIP_HI, _ONE = np.array(-_LOGIT_CLIP), np.array(_LOGIT_CLIP), np.array(1.0)


def _sigmoid(z: np.ndarray, out=None) -> np.ndarray:
    """The clipped sigmoid in one buffer: ``out`` (which may be ``z``), or a new one."""
    t = np.maximum(z, _CLIP_LO, out=out)
    np.exp(np.negative(np.minimum(t, _CLIP_HI, out=t), t), t)
    return np.divide(_ONE, np.add(t, _ONE, t), t)


# Each hidden activation: its function of the pre-activation ``pre``, and its
# derivative at ``pre`` given the function's output ``out`` there.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda pre, out: 1.0 - out * out),
    "relu": (lambda pre: np.maximum(pre, 0.0),
             lambda pre, out: (pre > 0.0).astype(np.float64)),
    "identity": (lambda pre: pre, lambda pre, out: np.ones_like(pre)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


class Scorer:
    """Multi-label prediction function mapping features to class scores.

    ``weights``/``biases`` hold one (out, in)-shaped matrix and one bias
    vector per layer: a single layer for the affine family, two for the
    MLP. The terminal sigmoid can be disabled (``sigmoid_output=False``)
    for analyses that need raw affine outputs; normal victims keep it on.
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
        """Deterministic forward pass; scores strictly inside (0, 1).

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
        """
        z, pre, hidden = self._forward(x)
        scores = self._output(z)

        def pullback(cot) -> np.ndarray:
            if self.sigmoid_output:
                # The sigmoid's derivative, zero where the logit clip is active, times cot.
                g = np.multiply(scores, np.subtract(_ONE, scores))
                cot = np.multiply(cot, np.multiply(g, np.less(np.abs(z), _CLIP_HI), g), g)
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
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")


# Training rows gathered per pass: bounded, so that no epoch copies the whole set.
_GATHER_ROWS = 512


def _stack_dataset(dataset) -> tuple[np.ndarray, np.ndarray]:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    # np.array with the dtype: the bytes of np.stack, with no int64 copy of Y first.
    X = np.array([inst.x for inst in dataset])
    Y = np.array([inst.y for inst in dataset], dtype=np.float64)
    return X, Y


def bce_loss(model: Scorer, dataset) -> float:
    """Mean binary cross-entropy of the scorer over a dataset."""
    X, Y = _stack_dataset(dataset)
    Z = model._forward(X)[0]
    # Stable form of -[y log p + (1-y) log(1-p)] with p = sigmoid(z).
    return float(np.mean(np.logaddexp(0.0, Z) - Y * Z))


def train_bce(dataset, config: TrainConfig, model: Scorer | None = None) -> Scorer:
    """Mini-batch gradient descent with momentum on mean BCE.

    Starts from ``model`` when given, otherwise from a seeded affine
    initialization sized to the dataset. Identical (dataset, config,
    model) always produce bit-identical parameters.
    """
    X, Y = _stack_dataset(dataset)
    n, d = X.shape
    c = Y.shape[1]
    if model is None:
        model = make_affine(d, c, seed=config.seed)
    else:
        if model.in_dim != d or model.out_dim != c:
            raise ValueError("model dimensions do not match dataset")
    if not model.sigmoid_output:
        raise ValueError("BCE training requires a sigmoid output")

    rng = np.random.default_rng(config.seed)
    # Parameters and gradients are views of two flat vectors: one update per batch.
    params = model.weights + model.biases
    flat = np.concatenate([p.ravel() for p in params])
    grad, velocity = np.empty_like(flat), np.zeros_like(flat)
    cuts = np.cumsum([p.size for p in params])[:-1]
    views, grads = ([part.reshape(p.shape) for part, p in zip(np.split(v, cuts), params)]
                    for v in (flat, grad))
    model = Scorer(views[:len(model.weights)], views[len(model.weights):], model.activation)
    # Each epoch's permuted rows are gathered _GATHER_ROWS or so at a time, and
    # each batch is a slice of them, with the bytes of X[order[batch]]: fewer
    # gathers than one per batch, and no second copy of the whole dataset.
    span = config.batch_size * max(1, _GATHER_ROWS // config.batch_size)
    # 0-d arrays, which ufuncs take faster than Python floats.
    momentum, rate = np.array(config.momentum), np.array(config.learning_rate)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, span):
            rows = order[lo:lo + span]
            # Every index is in range: take's "clip" mode gives X[rows] in about half the time.
            X_rows, Y_rows = X.take(rows, 0, mode="clip"), Y.take(rows, 0, mode="clip")
            for start in range(0, len(rows), config.batch_size):
                stop = start + config.batch_size
                _bce_grads(model, X_rows[start:stop], Y_rows[start:stop], grads)
                velocity *= momentum
                velocity += grad
                flat -= rate * velocity
    return model.copy()


def _bce_grads(model: Scorer, X: np.ndarray, Y: np.ndarray, out) -> None:
    """The batch's mean-BCE gradients, written into ``out``: the weights', then the biases'."""
    Z, pre, H = model._forward(X)
    inside = np.abs(Z) < _CLIP_HI
    dZ = np.subtract(_sigmoid(Z, out=Z), Y, out=Z)  # then * inside and / (B * c), in place
    dZ *= inside
    dZ /= X.shape[0] * model.out_dim
    n = len(model.weights)
    # (output cotangent, input) of each layer; the affine family has only the first.
    for (g, a), grad_w, grad_b in zip([(model._backward(dZ, pre, H), X), (dZ, H)], out, out[n:]):
        np.matmul(g.T, a, out=grad_w)
        np.add.reduce(g, axis=0, out=grad_b)


def _central_differences(fn, point: np.ndarray, step: float) -> np.ndarray:
    """Central differences of ``fn`` at ``point`` along each coordinate,
    stacked on the last axis."""
    return np.stack([fn(point + bump) - fn(point - bump) for bump in step * np.eye(point.shape[0])],
                    axis=-1) / (2 * step)


def finite_diff_check(model: Scorer, x, tolerance: float,
                      step: float = 1e-5) -> tuple[bool, float]:
    """Compare input_gradient rows against central finite differences.

    Checks the full Jacobian, one output class at a time, at an interior
    point (no logit clipping active). Returns (passed, max relative
    error) where the error is normwise per class row.
    """
    # Row j holds the central differences of class j's score along each x_i.
    numeric = _central_differences(model.score, np.asarray(x, dtype=np.float64), step)
    worst = 0.0
    for j, cot in enumerate(np.eye(model.out_dim)):
        analytic = model.input_gradient(x, cot)
        scale = max(float(np.linalg.norm(numeric[j])), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric[j])) / scale)
    return worst <= tolerance, worst


def save_scorer(model: Scorer, path: str) -> None:
    """Serialize a scorer as line-delimited JSON (header + one layer/line)."""
    header = {
        "format": FORMAT_TAG,
        "arch": model.arch,
        "activation": model.activation,
        "sigmoid_output": model.sigmoid_output,
        "shapes": [list(w.shape) for w in model.weights],
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(header) + "\n")
        for w, b in zip(model.weights, model.biases):
            handle.write(json.dumps({"weight": w.ravel(order="C").tolist(),
                                     "bias": b.tolist()}) + "\n")


def load_scorer(path: str) -> Scorer:
    """Read :func:`save_scorer`'s format.

    A malformed file raises a one-line ValueError that names the file, and
    the 1-based layer number of a malformed or invalid layer line.
    """
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    try:
        if not lines:
            raise ValueError("empty scorer file")
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ValueError("header: expected an object")
        if header.get("format") != FORMAT_TAG:
            raise ValueError(f"unsupported scorer format {header.get('format')!r}")
        for key in ("arch", "shapes", "activation", "sigmoid_output"):
            if key not in header:
                raise ValueError(f"header: missing key {key!r}")
        if not isinstance(header["sigmoid_output"], bool):
            raise ValueError(f"header: sigmoid_output must be true or false, "
                             f"got {header['sigmoid_output']!r}")
        shapes = [tuple(s) for s in header["shapes"]]
        if len(lines) - 1 != len(shapes):
            raise ValueError("layer count does not match header")
        weights, biases = [], []
        for number, (shape, line) in enumerate(zip(shapes, lines[1:]), start=1):
            try:
                layer = json.loads(line)
                if not isinstance(layer, dict) or not {"weight", "bias"} <= layer.keys():
                    raise ValueError('expected an object with "weight" and "bias"')
                weight = np.asarray(layer["weight"], dtype=np.float64)
                if weight.size != math.prod(shape):
                    raise ValueError(f"{weight.size} weights do not fit shape {list(shape)}")
                weights.append(weight.reshape(shape))
                biases.append(np.asarray(layer["bias"], dtype=np.float64))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"layer {number}: {exc}") from None
        model = Scorer(weights, biases, header["activation"], header["sigmoid_output"])
        if header["arch"] != model.arch:
            raise ValueError(f"header: arch {header['arch']!r} does not match "
                             f"the layer count {len(weights)}")
        return model
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
