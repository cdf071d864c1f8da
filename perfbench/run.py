"""tkmia benchmark: one workload per process, BLAS pinned to one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload efficacy-affine --seed 7 --seconds 10 --trace 0

With ``--trace 0`` the run sets up the workload several times (the
median is ``setup_s``), then repeats the timed unit until ``--seconds``
of unit time have passed and reports the median over the units. Its
times are reference seconds (see :mod:`speed`): the job's CPU time scaled
by the speed the machine showed during that same interval, because a
shared machine changes speed from minute to minute. With ``--trace 1`` it
runs one untraced unit and one unit with a span at every layer boundary,
and reports the per-layer metrics, in plain CPU or wall-clock time (see
:mod:`spans`), and the tracing overhead. Every unit's outputs are checked after its
timed region. Human-readable lines come first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit status is 0 only when every output checked out.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy is imported: each workload is a single-threaded job.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import statistics
import sys

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

SETUP_REPS = 5
WORKDIR = os.path.join(ROOT, ".perfbench-work")


def _import_program():
    import tkmia

    expected = os.path.join(SRC, "tkmia")
    if os.path.dirname(os.path.abspath(tkmia.__file__)) != expected:
        raise ImportError(f"tkmia imported from {tkmia.__file__}, not from {expected}")
    return tkmia


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return f"env {os.environ.get('OPENBLAS_NUM_THREADS')}"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(units, setup_times) -> dict:
    """Medians over the units, in reference seconds."""
    med = statistics.median
    attack_s = [sum(u.latencies) / u.slowdown for u in units]
    return {
        "run_s": _metric(med([u.run_s / u.slowdown for u in units]), "s"),
        "setup_s": _metric(med(setup_times), "s"),
        "attacks_per_s": _metric(med([len(u.latencies) / s for u, s in zip(units, attack_s)]), "1/s"),
        "iters_per_s": _metric(med([u.iterations / s for u, s in zip(units, attack_s)]), "1/s"),
        "peak_rss_mb": _metric(units[0].peak_rss_mb, "MB"),
    }


def per_layer(summary, traced, untraced, latency) -> dict:
    """Per-layer numbers of the traced unit, with their bases."""
    by = summary["by_name"]

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def us(name):
        return by.get(name, {}).get("s", 0.0) * 1e6

    def per_call_s(name):
        return by[name]["s"] / by[name]["calls"] if name in by else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = traced.iterations
    attacks = sum(c["attacks"] for c in traced.counts.values())
    in_attack = summary["attack_calls"]
    m = {}
    for name in ("model.score", "model.input_gradient", "attack.success_check",
                 "attack.residual_set", "attack.tkmia_objective", "baselines.ml_cw_u_loss",
                 "baselines.tkml_ap_u_loss", "core.top_k_indices", "metrics.evaluate_instance"):
        m[f"{name}.calls"] = _metric(calls(name), "count")
        m[f"{name}.us"] = _metric(us(name), "us")
    m["model.forward_per_iter"] = _metric(
        ratio(in_attack["model.score"] + in_attack["model.input_gradient"], iterations), "calls/iter")
    m["attack.loop_self_us_per_iter"] = _metric(
        ratio(by.get(spans.LOOP, {}).get("self_s", 0.0) * 1e6, iterations), "us/iter")
    m["attack.us_per_attack"] = _metric(
        ratio(summary["fixed_s"] * 1e6, summary["attacks_with_loop"]), "us")
    m["baselines.ml_cw_u.idle_frac"] = _metric(
        ratio(summary["counters"].get("baselines.ml_cw_u.idle", 0), calls("baselines.ml_cw_u_loss")),
        "ratio")
    m["harness.gen_synthetic.s"] = _metric(per_call_s("harness.gen_synthetic"), "s")
    m["model.train_bce.s"] = _metric(per_call_s("model.train_bce"), "s")
    m["harness.run_experiment.self_s"] = _metric(
        by.get("harness.run_experiment", {}).get("self_s", 0.0), "s")
    m["cli.main.self_s"] = _metric(by.get("cli.main", {}).get("self_s", 0.0), "s")
    for method in ("tkmia", "ml_cw_u", "tkml_ap_u"):
        counts = traced.counts.get(method, {"attacks": 0, "successes": 0, "iterations": 0})
        for key in ("attacks", "successes", "iterations"):
            m[f"attack.{method}.{key}"] = _metric(counts[key], "count")
    m["attack.call_p50_ms"] = _metric(latency[0], "ms")
    m["attack.call_p99_ms"] = _metric(latency[1], "ms")
    m["attack.call_samples"] = _metric(len(untraced.latencies), "count")
    identity = (in_attack["model.score"] == 2 * iterations + attacks
                and in_attack["model.input_gradient"] == iterations)
    m["trace.identity_ok"] = _metric(int(identity), "flag")
    m["trace.run_s"] = _metric(traced.run_s, "s")
    m["trace.untraced_run_s"] = _metric(untraced.run_s, "s")
    m["trace.overhead_s"] = _metric(traced.run_s - untraced.run_s, "s")
    return m


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  workdir: str = WORKDIR, out=print) -> dict:
    import workloads as wl  # imports tkmia

    env = environment()
    out(f"perfbench workload={workload.name} n={workload.n} seed={seed} "
        f"seconds={seconds} trace={int(trace)}")
    out("env " + json.dumps(env))
    os.makedirs(workdir, exist_ok=True)

    # Traced runs report plain times: the sampler stays off so that its
    # interrupts do not land inside spans.
    sampler = speed.SpeedSampler()
    with contextlib.nullcontext() if trace else sampler:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = sampler.mark()
            data, victim = wl.setup(workload, seed)
            setup_times.append(sampler.work_s(start) / sampler.slowdown(start))
        out("setup_s reps " + " ".join(f"{t:.4f}" for t in setup_times))

        def unit(reference, traced_unit=False):
            if workload.serial:
                if traced_unit:
                    # the traced pass includes one set-up so its layers are seen
                    d, v = wl.setup(workload, seed)
                    return wl.run_serial(workload, seed, d, v, sampler, reference)
                return wl.run_serial(workload, seed, data, victim, sampler, reference)
            return wl.run_report(workload, seed, workdir, data, victim, sampler,
                                 not traced_unit, reference)

        units = [unit(None)]
        if trace:
            tracer = spans.Tracer()
            with tracer:
                units.append(unit(units[0], traced_unit=True))
        while not trace and sum(u.run_s for u in units) < seconds:
            units.append(unit(units[0]))
    for i, u in enumerate(units):
        line = (f"unit {i + 1}: cpu_s={u.run_s:.4f} slowdown={u.slowdown:.4f} "
                f"attempted={u.attempted} failed={u.failed} iterations={u.iterations}")
        if u.latencies:
            p50, p99 = wl.latency_ms(u.latencies)
            line += f" attack_p50_ms={p50:.4f} attack_p99_ms={p99:.4f} (n={len(u.latencies)})"
        out(line)
        for problem in u.problems[:20]:
            out(f"  problem: {problem}")

    counts = units[0].counts
    for method, c in counts.items():
        out(f"outcomes {method}: {c['successes']}/{c['attacks']} succeeded, "
            f"{c['iterations']} iterations")
    pins = wl.pin_problems(workload, seed, counts)
    for problem in pins:
        out(f"pin mismatch: {problem}")

    if trace:
        summary = spans.summarize(tracer)
        spans_path = os.path.join(workdir, f"{workload.name}.spans.tsv")
        tracer.dump(spans_path)
        out(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = per_layer(summary, units[1], units[0], wl.latency_ms(units[0].latencies))
        for name, row in sorted(summary["by_name"].items()):
            out(f"span {name}: calls={row['calls']} s={row['s']:.6f} self_s={row['self_s']:.6f}")
        if not metrics["trace.identity_ok"]["value"]:
            out("warning: traced call counts break score calls = 2 x iterations + attacks "
                "or input_gradient calls = iterations")
    else:
        metrics = end_to_end(units, setup_times)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for name, metric in metrics.items():
        out(f"metric {name} {metric['value']} {metric['unit']}")
    out(f"metric fail_frac {failed / attempted if attempted else 0.0} ratio "
        f"({failed}/{attempted})")
    return {"correct": failed == 0 and not pins, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import tkmia from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    result = run_benchmark(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
