"""Span recording at the boundaries of tkmia's public functions.

The benchmark measures the library from outside: a :class:`Tracer` swaps
each traced function for a wrapper that records one span per call (name,
start, end, parent span), in every tkmia namespace that holds a reference
to it, so a function imported by name into another module is traced there
too. Spans stay in memory as flat arrays; :func:`self_times` and
:func:`summarize` turn them into per-layer numbers after the run, and
:meth:`Tracer.dump` writes them out. Span times are wall-clock
(``perf_counter``), which is cheaper to read than process CPU time.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

ATTACK_ENTRIES = ("attack.tkmia_attack", "baselines.run_baseline")
LOOP = "attack.run_attack_loop"
SCORE = "model.score"


def _tkmia_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tkmia" or name.startswith("tkmia."))]


def _targets():
    """(span name, owner, attribute) for every traced boundary."""
    from tkmia import attack, baselines, cli, core, harness, metrics, model

    return [
        ("model.score", model.Scorer, "score"),
        ("model.input_gradient", model.Scorer, "input_gradient"),
        ("model.train_bce", model, "train_bce"),
        ("core.top_k_indices", core, "top_k_indices"),
        ("attack.tkmia_attack", attack, "tkmia_attack"),
        ("attack.run_attack_loop", attack, "run_attack_loop"),
        ("attack.tkmia_objective", attack, "tkmia_objective"),
        ("attack.success_check", attack, "success_check"),
        ("attack.residual_set", attack, "residual_set"),
        ("baselines.run_baseline", baselines, "run_baseline"),
        ("baselines.ml_cw_u_loss", baselines, "ml_cw_u_loss"),
        ("baselines.tkml_ap_u_loss", baselines, "tkml_ap_u_loss"),
        ("metrics.evaluate_instance", metrics, "evaluate_instance"),
        ("harness.gen_synthetic", harness, "gen_synthetic"),
        ("harness.run_experiment", harness, "run_experiment"),
        ("cli.main", cli, "main"),
    ]


class Patches:
    """Replace a function by a wrapper wherever tkmia refers to it.

    Module-level functions are replaced in every ``tkmia`` module whose
    namespace holds the original object (``from .core import
    top_k_indices`` makes a second reference in ``attack``); methods are
    replaced on the class. :meth:`restore` undoes every replacement.
    """

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make_wrapper) -> int:
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return 1
        count = 0
        for mod in _tkmia_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))
                    count += 1
        return count

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory span store plus boundary counters.

    ``parents[i]`` is the index of the span that was open when span i
    started, or -1. Spans are appended in start order and calls nest, so
    a parent always has a smaller index than its children.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches = Patches()

    def wrap(self, name: str, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated index, name, start, end, parent."""
        with open(path, "w") as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for i, name in enumerate(self.names):
                handle.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __enter__(self):
        for name, owner, attr in _targets():
            after = _ml_cw_u_idle if name == "baselines.ml_cw_u_loss" else None
            n = self._patches.replace(
                owner, attr, lambda fn, name=name, after=after: self.wrap(name, fn, after))
            if n == 0:
                self._patches.restore()
                raise RuntimeError(f"no reference to {name} found to trace")
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


def _ml_cw_u_idle(tracer: Tracer, args, kwargs, result) -> None:
    # ml_cw_u_loss(model, x, eps, relevant, alpha): with the margin hinge
    # inactive the loss is exactly its norm penalty 0.5 * alpha * |eps|^2.
    eps = args[2] if len(args) > 2 else kwargs["eps"]
    alpha = args[4] if len(args) > 4 else kwargs.get("alpha", 0.0)
    eps = np.asarray(eps, dtype=np.float64)
    tracer.count("baselines.ml_cw_u.idle", int(result[0] == 0.5 * alpha * float(eps @ eps)))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children of one parent are visited in start order, so overlapping or
    out-of-bounds child intervals are merged and clipped to the parent
    before they are subtracted.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, inclusive and self seconds, plus attack shapes.

    Besides the per-name table this returns, for the attack layer,
    ``fixed_s``: for every attack call, its duration minus the time from
    the first to the last forward pass of its loop (the per-iteration
    part), which leaves the set-up, the final check and the result
    assembly; and the number of ``model.score`` and
    ``model.input_gradient`` calls made inside attack calls.
    """
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    selfs = self_times(starts, ends, parents)
    table: dict[str, list[float]] = {}
    n = len(names)
    in_attack = [False] * n
    first_score: dict[int, float] = {}
    last_score: dict[int, float] = {}
    attack_calls = {"model.score": 0, "model.input_gradient": 0}
    for i in range(n):
        name = names[i]
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += ends[i] - starts[i]
        row[2] += selfs[i]
        p = parents[i]
        in_attack[i] = name in ATTACK_ENTRIES or (p >= 0 and in_attack[p])
        if in_attack[i] and name in attack_calls:
            attack_calls[name] += 1
        if name == SCORE and p >= 0 and names[p] == LOOP:
            first_score.setdefault(p, starts[i])
            last_score[p] = starts[i]
    fixed_s = 0.0
    attacks = 0
    for i in range(n):
        if names[i] == LOOP and parents[i] >= 0 and names[parents[i]] in ATTACK_ENTRIES:
            e = parents[i]
            per_iter = last_score.get(i, 0.0) - first_score.get(i, 0.0)
            fixed_s += ends[e] - starts[e] - per_iter
            attacks += 1
    return {
        "by_name": {k: {"calls": int(v[0]), "s": v[1], "self_s": v[2]} for k, v in table.items()},
        "fixed_s": fixed_s,
        "attacks_with_loop": attacks,
        "attack_calls": attack_calls,
        "counters": dict(tracer.counters),
    }
