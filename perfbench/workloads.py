"""The benchmark's workloads: inputs made from the seed, one timed unit each.

A unit is one complete job with a single caller in a closed loop:

* ``efficacy-affine`` and ``wide-eval`` drive ``tkmia.cli.main`` with a
  ``report`` config, as a user running an experiment does;
* ``serial-mlp`` calls ``tkmia_attack`` and ``run_baseline`` one instance
  at a time, as a user attacking single instances does.

After the timed region every outcome is checked by :mod:`oracle`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
from dataclasses import dataclass, field, replace

import numpy as np
import tkmia
import tkmia.cli

import oracle
from spans import Patches
from speed import SpeedSampler

METHODS = ("tkmia", "ml_cw_u", "tkml_ap_u")
DATA = {"d": 32, "c": 10, "mean_relevant": 3.5, "label_correlation": 0.5}
ATTACK = {"eta": 0.05, "alpha": 1e-4, "momentum": 0.9, "max_iter": 300,
          "success_mode": "c1_only"}
# Every workload attacks the acceptance dataset (seed 7); the workload seed
# drives the victim's initialisation and batch order and the random
# specified sets. Across dataset seeds the work of one job changes too much
# for any bound: ml_cw_u iterations in efficacy-affine range from 66k to
# 100k over dataset seeds 0-11, and wide-eval's tkmia iterations differ by
# 1.8x between dataset seeds 1 and 5, while across victim seeds on the
# acceptance dataset efficacy-affine stays within 5%.
DATASET_SEED = 7
TRAIN = {"epochs": 60, "learning_rate": 0.5, "momentum": 0.9, "batch_size": 64}
HIDDEN = 32


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    arch: str
    k_grid: tuple[int, ...]
    scheme: dict
    methods: tuple[str, ...]
    max_instances: int
    serial: bool
    # seed -> method -> (attacks, successes, iterations); a run on a pinned
    # seed fails if its outcome counts differ.
    pinned: dict = field(default_factory=dict)

    def scaled(self, n: int, max_instances: int) -> "Workload":
        """A smaller copy for quick runs; pinned counts do not apply to it."""
        return replace(self, n=n, max_instances=max_instances, pinned={})


WORKLOADS = {w.name: w for w in (
    # The acceptance efficacy run: most time goes to ml_cw_u iterations.
    Workload("efficacy-affine", 2000, "affine", (3,), {"type": "global", "categories": [0]},
             METHODS, 1000, serial=False,
             pinned={7: {"tkmia": (641, 641, 1227), "ml_cw_u": (641, 359, 84991),
                         "tkml_ap_u": (641, 641, 1524)}}),
    # Attacks converge in about two iterations, so evaluation, per-attack
    # overhead, outcome serialisation and set-up dominate.
    Workload("wide-eval", 10000, "affine", (1, 3, 5), {"type": "global", "categories": [0]},
             ("tkmia",), 10000, serial=False),
    # One instance per call on the MLP victim: the path batching cannot help.
    Workload("serial-mlp", 2000, "mlp", (3,), {"type": "random", "m": 1},
             METHODS, 400, serial=True),
)}


@dataclass
class Unit:
    """One timed job and what the checks found in its outputs."""

    run_s: float
    latencies: list[float]
    attempted: int
    failed: int
    counts: dict[str, dict[str, int]]
    digest: str
    problems: list[str]
    # the process's peak resident memory when the job ended, before checks
    peak_rss_mb: float = 0.0
    # how much slower than its calibration the speed reference ran meanwhile
    slowdown: float = 1.0

    @property
    def iterations(self) -> int:
        return sum(c["iterations"] for c in self.counts.values())


def setup(w: Workload, seed: int):
    """Generate the dataset and train the victim, as the report harness does."""
    data = tkmia.gen_synthetic(tkmia.SyntheticSpec(n=w.n, seed=DATASET_SEED, **DATA))
    if w.arch == "mlp":
        init = tkmia.make_mlp(DATA["d"], HIDDEN, DATA["c"], seed=seed, activation="tanh")
    else:
        init = tkmia.make_affine(DATA["d"], DATA["c"], seed=seed)
    victim = tkmia.train_bce(data, tkmia.TrainConfig(seed=seed, **TRAIN), model=init)
    return data, victim


def selection(w: Workload, seed: int, data, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(instance, specified set) pairs a cell attacks, capped at max_instances."""
    pairs = []
    for idx, inst in enumerate(data):
        relevant = [i for i, y in enumerate(inst.y.tolist()) if y]
        if w.scheme["type"] == "global":
            spec = tuple(sorted(set(relevant) & set(w.scheme["categories"])))
            if spec and len(relevant) >= k + len(spec):
                pairs.append((idx, spec))
        elif len(relevant) >= k + w.scheme["m"]:
            m = w.scheme["m"]
            pairs.append((idx, tkmia.select_random(inst, m, seed=[seed, k, m, idx])))
        if len(pairs) == w.max_instances:
            break
    return pairs


def _empty_counts(methods) -> dict:
    return {m: {"attacks": 0, "successes": 0, "iterations": 0} for m in methods}


def _tally(counts: dict, record: dict) -> None:
    c = counts[record["method"]]
    c["attacks"] += 1
    c["successes"] += int(record["success"])
    c["iterations"] += record["iterations_used"]


class CallTimer:
    """Times every call of the attack entry points made through tkmia."""

    def __init__(self, sampler: SpeedSampler):
        self.latencies: list[float] = []
        self._sampler = sampler
        self._patches = Patches()

    def _wrap(self, fn):
        latencies, sampler = self.latencies, self._sampler

        def timed(*args, **kwargs):
            start = sampler.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                latencies.append(sampler.work_s(start))

        return timed

    def __enter__(self):
        self._patches.replace(tkmia.attack, "tkmia_attack", self._wrap)
        self._patches.replace(tkmia.baselines, "run_baseline", self._wrap)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


def report_config(w: Workload, seed: int, workdir: str) -> dict:
    """The ``tkmia report`` config of a report workload (affine victims only)."""
    return {
        "seed": seed,
        "dataset": {"n": w.n, "seed": DATASET_SEED, **DATA},
        "victim": {"arch": w.arch, "seed": seed, **TRAIN},
        "k_grid": list(w.k_grid),
        "scheme": w.scheme,
        "methods": list(w.methods),
        "attack": ATTACK,
        "max_instances": w.max_instances,
        "out_csv": os.path.join(workdir, f"{w.name}.csv"),
        "out_outcomes": os.path.join(workdir, f"{w.name}.outcomes.jsonl"),
    }


def run_report(w: Workload, seed: int, workdir: str, data, victim, sampler: SpeedSampler,
               time_calls: bool, reference: Unit | None) -> Unit:
    """One ``tkmia report`` run through ``cli.main``, then its checks.

    With ``time_calls`` every attack call is timed. With a ``reference``
    unit, outputs are compared byte for byte with it instead of being
    checked again.
    """
    timer = CallTimer(sampler) if time_calls else None
    config = report_config(w, seed, workdir)
    path = os.path.join(workdir, f"{w.name}.config.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    for out in (config["out_csv"], config["out_outcomes"]):
        if os.path.exists(out):
            os.remove(out)
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if timer is not None:
            stack.enter_context(timer)
        start = sampler.mark()
        rc = tkmia.cli.main(["report", "--config", path])
        run_s = sampler.work_s(start)
    slowdown = sampler.slowdown(start)
    rss = peak_rss_mb()
    unit = check_report(w, seed, config, rc, data, victim, reference)
    unit.run_s, unit.slowdown, unit.peak_rss_mb = run_s, slowdown, rss
    unit.latencies = list(timer.latencies) if timer is not None else []
    return unit


def check_report(w: Workload, seed: int, config: dict, rc: int, data, victim,
                 reference: Unit | None) -> Unit:
    cells = {(k, m): selection(w, seed, data, k) for k in w.k_grid for m in w.methods}
    attempted = sum(len(pairs) for pairs in cells.values())
    problems: list[str] = []
    try:
        with open(config["out_csv"], "rb") as handle:
            csv_bytes = handle.read()
        with open(config["out_outcomes"], "rb") as handle:
            outcome_bytes = handle.read()
    except OSError as exc:
        csv_bytes = outcome_bytes = b""
        problems.append(f"missing report output: {exc}")
    if rc != 0:
        problems.append(f"cli.main returned {rc}")
    digest = hashlib.sha256(csv_bytes + b"\0" + outcome_bytes).hexdigest()
    if problems:
        return Unit(0.0, [], attempted, attempted, _empty_counts(w.methods), digest, problems)
    if reference is not None:
        if digest != reference.digest:
            return Unit(0.0, [], attempted, attempted, reference.counts, digest,
                        ["outputs differ from the first run with the same seed"])
        return Unit(0.0, [], attempted, reference.failed, reference.counts, digest, [])

    by_cell: dict = {}
    for line in outcome_bytes.decode().splitlines():
        if line.strip():
            record = json.loads(line)
            by_cell.setdefault((record["k"], record["method"]), []).append(record)
    rows = oracle.read_csv(config["out_csv"])
    labels = [inst.y.tolist() for inst in data]
    score = lambda x: victim.score(x).tolist()  # noqa: E731
    counts = _empty_counts(w.methods)
    failed = 0
    for (k, method), pairs in cells.items():
        records = by_cell.pop((k, method), [])
        cell_failed = 0
        if [r["instance"] for r in records] != [idx for idx, _ in pairs]:
            problems.append(f"k={k} {method}: records do not match the selected instances")
            cell_failed = len(pairs)
        else:
            for (idx, spec), record in zip(pairs, records):
                found = oracle.check_record(record, data[idx].x, labels[idx], spec, k,
                                            ATTACK["max_iter"], score)
                if found:
                    problems.append(f"k={k} {method} instance {idx}: {'; '.join(found)}")
                    cell_failed += 1
                _tally(counts, record)
            s_size = (oracle.mean([len(s) for _, s in pairs])
                      if w.scheme["type"] == "global" else w.scheme["m"])
            row_found = oracle.row_problems(rows.get((k, method), {}),
                                            oracle.expected_row(records, s_size))
            if row_found:
                problems.append(f"k={k} {method} csv row: {'; '.join(row_found)}")
                cell_failed = len(pairs)
        failed += cell_failed
    if by_cell:
        problems.append(f"unexpected outcome cells {sorted(by_cell)}")
        failed = attempted
    return Unit(0.0, [], attempted, failed, counts, digest, problems)


def run_serial(w: Workload, seed: int, data, victim, sampler: SpeedSampler,
               reference: Unit | None) -> Unit:
    """Attack the selected instances one call at a time, timing each call."""
    k = w.k_grid[0]
    pairs = selection(w, seed, data, k)
    config = tkmia.AttackConfig(k=k, scheme=tkmia.RandomScheme(w.scheme["m"]), **ATTACK)
    specs = {m: tkmia.BaselineSpec(m, config) for m in w.methods if m != "tkmia"}
    results = []
    latencies = []
    run_start = sampler.mark()
    for idx, spec in pairs:
        instance = data[idx]
        for method in w.methods:
            start = sampler.mark()
            try:
                if method == "tkmia":
                    outcome = tkmia.tkmia_attack(victim, instance, spec, config)
                else:
                    outcome = tkmia.run_baseline(victim, instance, spec, specs[method])
            except Exception as exc:  # counted as a failed operation below
                outcome = exc
            latencies.append(sampler.work_s(start))
            results.append((idx, spec, method, outcome))
    run_s = sampler.work_s(run_start)
    slowdown = sampler.slowdown(run_start)
    rss = peak_rss_mb()

    attempted = len(results)
    problems: list[str] = []
    records = []
    for idx, spec, method, outcome in results:
        if isinstance(outcome, Exception):
            problems.append(f"{method} instance {idx} raised {outcome!r}")
            records.append(None)
        else:
            records.append(outcome.to_record(instance=idx, k=k))
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    if reference is not None:
        same = digest == reference.digest
        return Unit(run_s, latencies, attempted, reference.failed if same else attempted,
                    reference.counts, digest,
                    [] if same else ["outcomes differ from the first run with the same seed"],
                    rss, slowdown)

    score = lambda x: victim.score(x).tolist()  # noqa: E731
    counts = _empty_counts(w.methods)
    failed = len(problems)
    for (idx, spec, method, _), record in zip(results, records):
        if record is None:
            continue
        found = oracle.check_record(record, data[idx].x, data[idx].y.tolist(), spec, k,
                                    ATTACK["max_iter"], score)
        if found:
            problems.append(f"{method} instance {idx}: {'; '.join(found)}")
            failed += 1
        _tally(counts, record)
    return Unit(run_s, latencies, attempted, failed, counts, digest, problems, rss, slowdown)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_problems(w: Workload, seed: int, counts: dict) -> list[str]:
    problems = []
    for method, want in w.pinned.get(seed, {}).items():
        got = tuple(counts[method][key] for key in ("attacks", "successes", "iterations"))
        if got != want:
            problems.append(f"{method}: (attacks, successes, iterations) = {got} != pinned {want}")
    return problems


def latency_ms(latencies: list[float]) -> tuple[float, float]:
    p50, p99 = np.percentile(np.asarray(latencies) * 1e3, [50, 99])
    return float(p50), float(p99)
