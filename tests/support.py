"""The one copy of each oracle and test double that several test modules use.

The oracles rank with Python's ``sorted`` and this module imports nothing of
tkmia's ranking code (``core``'s rankings, ``metrics``, ``success_check``,
``residual_set``), so a test that compares the library with them does not
compare it with itself.

``reference_attack_loop`` is the attack loop as it stood before the engine
shared one forward pass and one ranking per iteration: it scores x_adv for
the success test, and each loss closure calls a public loss, which scores
again and runs its own forward pass for the gradient. It runs the whole
budget and pulls back every iteration's cotangent, zeros included.
"""
import hashlib
import io
import json
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from tkmia.attack import (
    AttackOutcome,
    BaselineSpec,
    ml_cw_u_loss,
    run_baseline,
    tkml_ap_u_loss,
    tkmia_attack,
    tkmia_objective,
)
from tkmia.core import Dataset
from tkmia.model import Scorer


def ranking(scores):
    """Class indices by descending score, ties to the smaller index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def rank_of(scores, idx):
    """The 1-based position of class ``idx`` in :func:`ranking`."""
    return ranking(scores).index(idx) + 1


def fd_grad(fn, point, step=1e-5):
    """Central differences of the scalar function ``fn`` at ``point``."""
    grad = np.zeros_like(point)
    for i in range(point.shape[0]):
        bump = np.zeros_like(point)
        bump[i] = step
        grad[i] = (fn(point + bump) - fn(point - bump)) / (2 * step)
    return grad


def constant_score_model(values, in_dim=3):
    """Affine scorer with zero weights whose scores are fixed by the bias."""
    values = np.asarray(values, dtype=float)
    logits = np.log(values / (1.0 - values))
    return Scorer([np.zeros((len(values), in_dim))], [logits])


def built_views(monkeypatch):
    """A list that gains a weak reference to each row instance that a
    :class:`Dataset` builds from now on."""
    built, view = [], Dataset._view

    def recorded(x, y):
        inst = view(x, y)
        built.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(Dataset, "_view", staticmethod(recorded))
    return built


def read_jsonl(path):
    """The JSON value of each line of the file at ``path``."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def archive_bytes(save=np.savez, **arrays):
    """The bytes of the ``.npz`` archive of ``arrays``, or with ``save=np.save`` of the
    ``.npy`` file of the one array."""
    buffer = io.BytesIO()
    save(buffer, **arrays)
    return buffer.getvalue()


def encrypted(content):
    """The archive ``content`` with its first entry flagged as encrypted."""
    at = content.index(b"PK\x01\x02") + 8  # the central directory entry's flag bits
    return content[:at] + bytes([content[at] | 1]) + content[at + 1:]


# The arrays of a good dataset, from which each bad dataset file is made.
_X = np.array([[0.5, -0.5], [0.1, 0.2], [-0.3, 0.9]])
_Y = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
_NOT_AN_ARCHIVE = "not a dataset archive (a zip of the arrays X and Y)"
# Each case of a file that ``load_dataset`` rejects: the file's bytes, and the end of
# the one-line error that names it.
BAD_DATASET_FILES = {
    "empty file": (b"", _NOT_AN_ARCHIVE),
    "JSON lines": (b'{"x": [0.5, -0.5], "y": [1, 0, 1]}\n', _NOT_AN_ARCHIVE),
    ".npy file": (archive_bytes(np.save, arr=_X), _NOT_AN_ARCHIVE),
    "truncated archive": (archive_bytes(X=_X, Y=_Y)[:300], "File is not a zip file"),
    "encrypted entry": (encrypted(archive_bytes(X=_X, Y=_Y)),
                        "File 'X.npy' is encrypted, password required for extraction"),
    "object X": (archive_bytes(X=_X.astype(object), Y=_Y),
                 "Object arrays cannot be loaded when allow_pickle=False"),
    "string X": (archive_bytes(X=_X.astype("U8"), Y=_Y),
                 "X must be a 2-D numeric array, got 2-D <U8"),
    "complex Y": (archive_bytes(X=_X, Y=_Y.astype(complex)),
                  "Y must be a 2-D numeric array, got 2-D complex128"),
    "no X": (archive_bytes(Y=_Y), "expected the arrays X and Y, got ['Y']"),
    "no Y": (archive_bytes(X=_X), "expected the arrays X and Y, got ['X']"),
    "a third array": (archive_bytes(X=_X, Y=_Y, Z=_Y),
                      "expected the arrays X and Y, got ['X', 'Y', 'Z']"),
    "1-D X": (archive_bytes(X=_X[0], Y=_Y), "X must be a 2-D numeric array, got 1-D float64"),
    "3-D Y": (archive_bytes(X=_X, Y=_Y[None]), "Y must be a 2-D numeric array, got 3-D int64"),
    "unequal rows": (archive_bytes(X=_X[:2], Y=_Y), "2 feature rows but 3 label rows"),
    "non-finite X": (archive_bytes(X=_X * [[1, np.inf]], Y=_Y), "x contains non-finite entries"),
    "label 2": (archive_bytes(X=_X, Y=_Y * [[1, 1, 2]]), "label entries must be 0 or 1"),
    "no features": (archive_bytes(X=_X[:, :0], Y=_Y), "x must be 1-D and non-empty"),
    "no labels": (archive_bytes(X=_X, Y=_Y[:, :0]), "y must be non-empty"),
    "no rows": (archive_bytes(X=_X[:0], Y=_Y[:0]), "empty dataset"),
}


# The arrays of a good affine and a good MLP scorer, from which each bad scorer file
# is made.
_AFFINE = {"weight_1": _X, "bias_1": _X[:, 0], "activation": "tanh", "sigmoid_output": True}
_MLP = {"weight_1": _X, "bias_1": _X[:, 0], "weight_2": _X.T, "bias_2": _X[0],
        "activation": "relu", "sigmoid_output": True}
_SCORER_ARRAYS = ("weight_1, bias_1, activation and sigmoid_output, "
                  "or weight_1, bias_1, weight_2, bias_2, activation and sigmoid_output")
_NOT_A_SCORER = f"not a scorer archive (a zip of the arrays {_SCORER_ARRAYS})"
# The affine scorer in the JSON-lines format of earlier versions.
_JSON_LINES_SCORER = (
    b'{"format": "tkmia-scorer-v1", "arch": "affine", "activation": "tanh", '
    b'"sigmoid_output": true, "shapes": [[3, 2]]}\n'
    b'{"weight": [0.5, -0.5, 0.1, 0.2, -0.3, 0.9], "bias": [0.5, 0.1, -0.3]}\n')
# Each case of a file that ``load_scorer`` rejects: the file's bytes, and the end of
# the one-line error that names it.
BAD_SCORER_FILES = {
    "empty file": (b"", _NOT_A_SCORER),
    "JSON lines": (_JSON_LINES_SCORER, _NOT_A_SCORER),
    "dataset archive": (archive_bytes(X=_X, Y=_Y),
                        f"expected the arrays {_SCORER_ARRAYS}, got ['X', 'Y']"),
    "weight_3": (archive_bytes(**_MLP, weight_3=_X),
                 f"expected the arrays {_SCORER_ARRAYS}, got ['weight_1', 'bias_1', "
                 "'weight_2', 'bias_2', 'activation', 'sigmoid_output', 'weight_3']"),
    "unchained layers": (archive_bytes(**{**_MLP, "weight_2": _X, "bias_2": _X[:, 0]}),
                         "hidden dimensions do not chain"),
    "affine relu": (archive_bytes(**{**_AFFINE, "activation": "relu"}),
                    "affine scorer: activation must be 'tanh', got 'relu'"),
    "unknown activation": (archive_bytes(**{**_MLP, "activation": "sigmoid"}),
                           "unknown activation 'sigmoid'"),
    "int sigmoid_output": (archive_bytes(**{**_AFFINE, "sigmoid_output": 1}),
                           "sigmoid_output must be a 0-D bool array, got 0-D int64"),
    "non-finite bias": (archive_bytes(**{**_AFFINE, "bias_1": [0.5, np.nan, -0.3]}),
                        "layer 1: non-finite parameters"),
    "1-D weight": (archive_bytes(**{**_AFFINE, "weight_1": _X[0]}),
                   "weight_1 must be a 2-D numeric array, got 1-D float64"),
}


def outcome_digest(path):
    """The first 16 hex digits of a sha256 over each outcome record of the file at
    ``path``: its method, k, instance, success, iterations_used, residual and
    measures. Unlike the file's bytes, these do not depend on the numeric stack
    (the BLAS kernel and numpy's SIMD targets), so the digest compares machines."""
    keys = ("method", "k", "instance", "success", "iterations_used", "residual",
            "clean_metrics", "perturbed_metrics")
    digest = hashlib.sha256()
    for record in read_jsonl(path):
        digest.update(json.dumps([record[key] for key in keys]).encode() + b"\n")
    return digest.hexdigest()[:16]


def dumped(outcome, instance, k, clean, perturbed):
    """The reference text of a report's outcome line: its record dumped with the
    instance, k and both measure records (less their k), then a newline."""
    sets = [{name: value for name, value in asdict(record).items() if name != "k"}
            for record in (clean, perturbed)]
    return json.dumps(outcome.to_record(instance=instance, k=k, clean_metrics=sets[0],
                                        perturbed_metrics=sets[1])) + "\n"


class CountingScorer(Scorer):
    """A scorer that counts its public calls, forward passes, pullbacks and stacked rows."""

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


def numpy_tkmia_terms(scores, lam1, lam2, spec, rest, k):
    """``tkmia.attack._tkmia_terms`` as it was on arrays: the score cotangent (None
    when no hinge is active) and both lambda gradients of the tkmia objective at the
    float64 vector ``scores``, with ``spec`` and ``rest`` the index arrays of S and
    Yp \\ S. The library's version, on a list of floats, must give these bytes."""
    c = scores.shape[0]
    s_max = spec[scores[spec].argmax()]
    y_min = rest[scores[rest].argmin()]
    active1 = scores[s_max] - scores > lam1
    active2 = scores - scores[y_min] > lam2
    n1 = int(np.count_nonzero(active1))
    n2 = int(np.count_nonzero(active2))
    if n1 == n2 == 0:
        return None, 1.0, 1.0
    cot = active2 * (1.0 / k) - active1 * (1.0 / (c - k))
    cot[s_max] += n1 / (c - k)
    cot[y_min] -= n2 / k
    return cot, 1.0 - n1 / (c - k), 1.0 - n2 / k


def reference_attack_loop(model, instance, specified, config, method, step_fn,
                          lams=lambda: (0.0, 0.0), on_update=None):
    """``step_fn(x_adv, eps)`` gives the loss and its eps gradient; ``lams`` reads
    the lambdas that it steps; ``on_update(before, after)``, if given, sees the
    bytes of (eps, velocity, lambdas) around each update.

    The attack succeeds once ``config.delta_threshold or |S|`` labels of S
    have left the top k; the strict mode also needs the k-th score at most
    the lowest over Yp \\ S.
    """
    lo, hi = config.clip_domain
    k = config.k
    spec = tuple(sorted(int(i) for i in specified))
    rest = [i for i in instance.relevant if i not in spec]
    delta = config.delta_threshold or len(spec)
    x = instance.x
    eps = np.zeros_like(x)
    velocity = np.zeros_like(x)
    scores_before = None
    scores = None
    success = False
    iterations = 0

    def state():
        return eps.tobytes(), velocity.tobytes(), *(float(lam).hex() for lam in lams())

    def succeeded(order):
        if sum(i not in order[:k] for i in spec) < delta:
            return False
        return config.success_mode != "strict" or scores[order[k - 1]] <= scores[rest].min()

    for it in range(config.max_iter + 1):
        x_adv = np.clip(x + eps, lo, hi)
        scores = model.score(x_adv)
        if it == 0:
            scores_before = scores.copy()
        order = ranking(scores)
        if succeeded(order):
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
        specified=spec,
        residual=tuple(i for i in spec if i in order[:k]),
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

    outcome = reference_attack_loop(model, instance, spec, config, "tkmia", step,
                                    lams=lambda: lam, on_update=on_update)
    return replace(outcome, lambda1=lam[0], lambda2=lam[1])


def reference_baseline(model, instance, specified, spec, on_update=None):
    config = spec.config
    relevant = instance.relevant

    if spec.method == "ml_cw_u":
        def step(x_adv, eps):
            return ml_cw_u_loss(model, instance.x, eps, relevant, config.alpha)
    else:
        def step(x_adv, eps):
            return tkml_ap_u_loss(model, instance.x, eps, relevant, config.k, config.alpha)

    return reference_attack_loop(model, instance, specified, config, spec.method, step,
                                 on_update=on_update)


def attack(method, model, instance, specified, config, reference=False, **hooks):
    """Attack ``instance`` with ``method`` through the library's entry point, or
    through the reference loop if ``reference``; either takes ``hooks`` as keywords."""
    if method == "tkmia":
        run = reference_tkmia if reference else tkmia_attack
        return run(model, instance, specified, config, **hooks)
    run = reference_baseline if reference else run_baseline
    return run(model, instance, specified, BaselineSpec(method, config), **hooks)
