"""Tests for the benchmark itself: python3 -m pytest perfbench/tests"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (puts the program's src on sys.path)
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

import tkmia  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def tiny(name):
    return wl.WORKLOADS[name].scaled(n=150, max_instances=12)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(tmp_path, name, trace):
    lines = []
    result = run.run_benchmark(tiny(name), seed=3, seconds=0.0, trace=bool(trace),
                               workdir=str(tmp_path), out=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert f"metric {metric['name']} {got['value']} {got['unit']}" in lines
    if trace:
        assert result["metrics"]["trace.identity_ok"]["value"] == 1


def _tiny_report(tmp_path, name="efficacy-affine", seed=3):
    w = tiny(name)
    data, victim = wl.setup(w, seed)
    unit = wl.run_report(w, seed, str(tmp_path), data, victim, speed.SpeedSampler(), False, None)
    assert unit.failed == 0, unit.problems
    return w, seed, data, victim, wl.report_config(w, seed, str(tmp_path))


def _rewrite_outcomes(config, edit):
    with open(config["out_outcomes"]) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    edit(records)
    with open(config["out_outcomes"], "w") as handle:
        handle.write("\n".join(json.dumps(r) for r in records) + "\n")


def test_flipped_success_flag_counts_as_failure(tmp_path):
    w, seed, data, victim, config = _tiny_report(tmp_path)

    def flip(records):
        records[0]["success"] = not records[0]["success"]

    _rewrite_outcomes(config, flip)
    unit = wl.check_report(w, seed, config, 0, data, victim, None)
    # the record itself, and its cell's CSV row no longer matches
    assert unit.failed >= 1
    assert any("success" in p for p in unit.problems)


def test_perturbed_scores_count_as_one_failure(tmp_path):
    w, seed, data, victim, config = _tiny_report(tmp_path)

    def nudge(records):
        records[1]["scores_after"][0] += 1e-6

    _rewrite_outcomes(config, nudge)
    unit = wl.check_report(w, seed, config, 0, data, victim, None)
    assert unit.failed == 1
    assert any("scores_after" in p for p in unit.problems)


def test_wrong_csv_row_fails_its_cell(tmp_path):
    w, seed, data, victim, config = _tiny_report(tmp_path)
    with open(config["out_csv"]) as handle:
        header, *rows = handle.read().splitlines()
    cells = rows[0].split(",")
    cells[3] = repr(float(cells[3]) + 0.5)  # delta_tk_acc
    with open(config["out_csv"], "w") as handle:
        handle.write("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
    unit = wl.check_report(w, seed, config, 0, data, victim, None)
    assert unit.failed == int(cells[-1])


def test_failed_report_fails_every_operation(tmp_path):
    w, seed, data, victim, config = _tiny_report(tmp_path)
    unit = wl.check_report(w, seed, config, 1, data, victim, None)
    assert unit.failed == unit.attempted > 0


def test_rank_oracle_breaks_ties_by_class_index():
    assert oracle.ranking([0.5, 0.9, 0.5, 0.9]) == [1, 3, 0, 2]
    m = oracle.measures([0.9, 0.1, 0.8, 0.7], [1, 1, 0, 0], k=2)
    assert m == {"tk_acc": 0, "p_at_k": 0.5, "ap_at_k": 0.5, "ndcg_at_k": pytest.approx(1 / 1.6309297535714575)}


def test_pinned_counts_are_enforced():
    w = wl.WORKLOADS["efficacy-affine"]
    good = {m: dict(zip(("attacks", "successes", "iterations"), v))
            for m, v in w.pinned[7].items()}
    assert wl.pin_problems(w, 7, good) == []
    bad = {m: dict(c) for m, c in good.items()}
    bad["ml_cw_u"]["iterations"] -= 1
    assert len(wl.pin_problems(w, 7, bad)) == 1
    assert wl.pin_problems(w, 8, bad) == []


def _tracer_with(rows):
    tracer = spans.Tracer()
    for name, start, end, parent in rows:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    return tracer


def test_self_time_subtracts_merged_clipped_children():
    t = _tracer_with([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),    # overlaps a: the union [1, 6] is covered once
        ("c", 8.0, 12.0, 0),   # runs past the root's end: clipped to [8, 10]
    ])
    assert spans.self_times(t.starts, t.ends, t.parents) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_attack_fixed_cost_and_call_counts_from_a_hand_built_attack():
    t = _tracer_with([
        ("attack.tkmia_attack", 0.0, 10.0, -1),
        ("attack.run_attack_loop", 1.0, 9.0, 0),
        ("model.score", 2.0, 2.5, 1),
        ("attack.tkmia_objective", 2.5, 3.5, 1),
        ("model.score", 2.6, 2.9, 3),
        ("model.input_gradient", 3.0, 3.4, 3),
        ("model.score", 6.0, 6.5, 1),
        ("model.score", 20.0, 21.0, -1),   # outside any attack
    ])
    summary = spans.summarize(t)
    assert summary["fixed_s"] == pytest.approx(10.0 - (6.0 - 2.0))
    assert summary["attacks_with_loop"] == 1
    assert summary["attack_calls"] == {"model.score": 3, "model.input_gradient": 1}
    loop = summary["by_name"]["attack.run_attack_loop"]
    assert loop["self_s"] == pytest.approx(8.0 - 0.5 - 1.0 - 0.5)


def test_tracer_patches_every_namespace_and_restores_them():
    from tkmia import attack, baselines, core, harness, metrics, model

    originals = (core.top_k_indices, harness.tkmia_attack, model.Scorer.score)
    with spans.Tracer():
        for mod in (core, attack, baselines, metrics):
            assert mod.top_k_indices.__wrapped__ is originals[0]
        for name in ("tkmia_attack", "run_baseline", "evaluate_instance", "gen_synthetic",
                     "train_bce"):
            assert hasattr(getattr(harness, name), "__wrapped__")
        assert tkmia.tkmia_attack is harness.tkmia_attack
        assert model.Scorer.score.__wrapped__ is originals[2]
    assert (core.top_k_indices, harness.tkmia_attack, model.Scorer.score) == originals
    assert attack.top_k_indices is originals[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "efficacy-affine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_sampler_separates_its_own_time_from_the_work():
    import time

    sampler = speed.SpeedSampler()
    with sampler:
        start = sampler.mark()
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.2:
            sum(range(1000))
        total = time.thread_time() - t0
        work = sampler.work_s(start)
        slowdown = sampler.slowdown(start)
    assert sampler.samples - start.samples >= 5
    assert 0.0 < sampler.spent - start.spent < total
    assert work == pytest.approx(total - (sampler.spent - start.spent), abs=1e-3)
    assert slowdown > 0.0
