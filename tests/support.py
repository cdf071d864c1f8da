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
import json
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


def read_jsonl(path):
    """The JSON value of each line of the file at ``path``."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


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
