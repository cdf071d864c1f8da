import dataclasses
import gc
import json
import math
import re
import time
import weakref
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from tkmia.attack import (
    METHODS,
    RECORD_KEYS,
    AttackConfig,
    AttackOutcome,
    GlobalScheme,
    RandomScheme,
    ineligible,
    select_global,
    select_random,
)
from tkmia.core import Dataset, Instance
from tkmia.harness import (
    FEATURE_NOISE,
    ExperimentConfig,
    OutcomeLines,
    SyntheticSpec,
    VictimSpec,
    _cell_selection,
    _evaluate_cell,
    _sliding_extremes,
    _victim_spec,
    gen_synthetic,
    load_dataset,
    run_experiment,
    save_dataset,
    train_victim,
)
from tkmia.metrics import MEASURES, MetricsRecord, delta_report, write_report_csv
from tkmia.model import Scorer, make_affine, save_scorer

from support import BAD_DATASET_FILES, built_views, dumped, measure_set, read_jsonl


def parent_gen_synthetic(spec):
    """The generator as a loop over instances: a frozen copy of the former
    ``gen_synthetic``, the oracle of the block generator."""
    rng = np.random.default_rng(spec.seed)
    prototypes = rng.uniform(-1.0, 1.0, size=(spec.c, spec.d))
    threshold = NormalDist().inv_cdf(spec.mean_relevant / spec.c)
    common_w = np.sqrt(spec.label_correlation)
    indiv_w = np.sqrt(1.0 - spec.label_correlation)
    instances = []
    for _ in range(spec.n):
        while True:
            common = rng.standard_normal()
            latent = common_w * common + indiv_w * rng.standard_normal(spec.c)
            y = (latent < threshold).astype(np.int64)
            if 0 < y.sum() < spec.c:
                break
        base = prototypes[y == 1].mean(axis=0)
        x = np.tanh(base + FEATURE_NOISE * rng.standard_normal(spec.d))
        instances.append(Instance(x=x, y=y))
    return instances


class TestGenSynthetic:
    # (n, d, c, mean_relevant, label_correlation, seed): the benchmark's sets,
    # c = 2, d = 1, n = 1, n not a multiple of the block size, several blocks,
    # long runs of redrawn labels (few relevant labels, high correlation), a d
    # large enough to widen the window of attempt offsets, and the paper's
    # widest shape (d = 2048, c = 80) over several blocks.
    @pytest.mark.bitwise
    @pytest.mark.parametrize("spec", [
        (2000, 32, 10, 3.5, 0.5, 7), (10000, 32, 10, 3.5, 0.5, 7), (500, 32, 10, 3.5, 0.5, 3),
        (300, 8, 6, 3, 0.3, 5), (50, 3, 2, 1, 0.9, 1), (1, 1, 2, 1, 0, 0),
        (3000, 5, 7, 0.3, 0.95, 2), (1500, 40, 3, 2.9, 0, 4), (40, 300, 12, 2, 0.5, 6),
        (300, 2048, 80, 3.5, 0.5, 7),
    ])
    def test_equals_the_per_instance_loop_bit_for_bit(self, spec):
        spec = SyntheticSpec(*spec)
        got, want = gen_synthetic(spec), parent_gen_synthetic(spec)
        assert len(got) == spec.n
        assert np.stack([i.x for i in got]).tobytes() == np.stack([i.x for i in want]).tobytes()
        # The loop's labels by value, one byte each.
        labels = np.stack([i.y for i in want])
        assert np.array_equal(np.stack([i.y for i in got]), labels)
        assert all(i.y.dtype == np.int8 and not i.y.flags.writeable for i in got)
        # One pair of arrays, whose rows the instances view.
        assert type(got) is Dataset and got[-1].x.base is got.X and got[-1].y.base is got.Y
        assert got.X.tobytes() == np.stack([i.x for i in want]).tobytes()
        assert np.array_equal(got.Y, labels)
        assert got.Y.dtype == np.int8 and not got.Y.flags.writeable

    def test_instances_are_equal_and_hashed_by_identity(self):
        data = gen_synthetic(SyntheticSpec(n=20, d=3, c=4, mean_relevant=2.0, seed=1))
        inst = data[7]
        assert inst == inst and hash(inst) == hash(inst) and len(set(data)) == 20
        # Each read of a row builds a fresh view of it, another instance.
        for twin in (data[7], Instance(inst.x, inst.y)):
            assert twin != inst and not twin == inst and hash(twin) != hash(inst)
            assert twin.x.tobytes() == inst.x.tobytes() and twin.y.tobytes() == inst.y.tobytes()

    def test_deterministic_and_byte_identical(self, tmp_path):
        spec = SyntheticSpec(n=50, d=8, c=6, mean_relevant=2.0, seed=9)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia.x, ib.x)
            np.testing.assert_array_equal(ia.y, ib.y)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        save_dataset(a, str(pa))
        save_dataset(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = gen_synthetic(SyntheticSpec(n=20, d=4, c=4, mean_relevant=1.5, seed=0))
        b = gen_synthetic(SyntheticSpec(n=20, d=4, c=4, mean_relevant=1.5, seed=1))
        assert any(not np.array_equal(ia.x, ib.x) for ia, ib in zip(a, b))

    def test_features_inside_unit_box(self):
        data = gen_synthetic(SyntheticSpec(n=100, d=6, c=5, mean_relevant=2.0, seed=2))
        for inst in data:
            assert np.all(np.abs(inst.x) < 1.0)

    def test_every_instance_has_both_label_kinds(self):
        data = gen_synthetic(SyntheticSpec(n=300, d=4, c=5, mean_relevant=2.5,
                                           label_correlation=0.7, seed=3))
        for inst in data:
            assert 0 < inst.y.sum() < inst.n_classes

    def test_mean_relevant_close_to_configured(self):
        spec = SyntheticSpec(n=5000, d=4, c=10, mean_relevant=3.0, seed=4)
        data = gen_synthetic(spec)
        mean = np.mean([inst.y.sum() for inst in data])
        assert abs(mean - spec.mean_relevant) / spec.mean_relevant <= 0.05

    def test_zero_correlation_labels_independent(self):
        spec = SyntheticSpec(n=6000, d=4, c=8, mean_relevant=2.8,
                             label_correlation=0.0, seed=5)
        labels = np.stack([inst.y for inst in gen_synthetic(spec)]).astype(float)
        cov = np.cov(labels.T)
        off = cov[~np.eye(8, dtype=bool)]
        # 3 sigma for a sample covariance of independent Bernoullis
        p = spec.mean_relevant / spec.c
        sigma = p * (1 - p) / np.sqrt(spec.n)
        assert np.all(np.abs(off) <= 3.5 * sigma)

    def test_positive_correlation_raises_cooccurrence(self):
        base = dict(n=4000, d=4, c=8, mean_relevant=2.8, seed=6)
        indep = np.stack([i.y for i in gen_synthetic(SyntheticSpec(**base, label_correlation=0.0))])
        corr = np.stack([i.y for i in gen_synthetic(SyntheticSpec(**base, label_correlation=0.8))])
        assert np.cov(corr.T)[~np.eye(8, dtype=bool)].mean() > np.cov(indep.T)[~np.eye(8, dtype=bool)].mean()

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 7, 8, 9, 10, 16, 17, 31])
    def test_sliding_extremes_are_the_runs_min_and_max(self, width):
        z = np.random.default_rng(width).standard_normal(100)
        runs = np.lib.stride_tricks.sliding_window_view(z, width)
        lo, hi = _sliding_extremes(z, width)
        assert lo.tobytes() == runs.min(axis=1).tobytes()
        assert hi.tobytes() == runs.max(axis=1).tobytes()

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=4, c=5, mean_relevant=5.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=4, c=5, mean_relevant=2.0, label_correlation=1.5)
        # At 1 every label draw is all 0 or all 1, so the generator would redraw forever.
        with pytest.raises(ValueError, match=r"^label_correlation must lie in \[0, 1\)$"):
            SyntheticSpec(n=1, d=2, c=3, mean_relevant=1.0, label_correlation=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n=0, d=4, c=5, mean_relevant=2.0)

    @pytest.mark.parametrize("c, mean_relevant, correlation", [
        (2, 1e-12, 0.0), (2, 2.0 - 1e-9, 0.0), (80, 1e-7, 0.5), (10, 3.5, 1.0 - 1e-13)])
    def test_spec_that_would_redraw_forever_rejected_in_one_line(self, c, mean_relevant,
                                                                   correlation):
        # Almost no label draw has some but not all labels relevant; the first spec
        # made gen_synthetic redraw forever. The spec itself now raises, so a
        # regression fails here instead of hanging in the generator.
        start = time.monotonic()
        with pytest.raises(ValueError) as raised:
            SyntheticSpec(n=1, d=2, c=c, mean_relevant=mean_relevant,
                          label_correlation=correlation)
        assert time.monotonic() - start < 1.0
        message = str(raised.value)
        assert "\n" not in message
        assert message.startswith(f"mean_relevant {mean_relevant!r} and label_correlation "
                                  f"{correlation!r} give a label draw ")

    @pytest.mark.parametrize("correlation, mean_relevant, kept", [
        # At c = 2 a draw is kept with probability 2p(1 - p) at correlation 0, and at
        # p = 1/2 with 1/2 - arcsin(rho) / pi, about sqrt(2 (1 - rho)) / pi near 1.
        (0.0, 1.02e-6, 1.02e-6 * (1 - 0.51e-6)),
        (0.0, 0.98e-6, 0.98e-6 * (1 - 0.49e-6)),
        (1.0 - 8e-12, 1.0, math.sqrt(2 * 8e-12) / math.pi),
        (1.0 - 4e-12, 1.0, math.sqrt(2 * 4e-12) / math.pi),
    ])
    def test_spec_rejected_below_the_kept_probability_floor(self, correlation, mean_relevant,
                                                            kept):
        spec = dict(n=1, d=2, c=2, mean_relevant=mean_relevant, label_correlation=correlation)
        if kept > 1e-6:
            SyntheticSpec(**spec)
            return
        with pytest.raises(ValueError) as raised:
            SyntheticSpec(**spec)
        read = float(re.search(r"probability (\S+) <", str(raised.value)).group(1))
        assert read == pytest.approx(kept, rel=1e-2)

    @pytest.mark.parametrize("c, mean_relevant, correlation, draws", [
        (10, 3.5, 0.5, 400_000),
        (2, 0.1, 0.9, 2_000_000),
        (80, 2.9, 0.3, 100_000),
        # At a low correlation the common factor's window reaches deep into its tails,
        # so a wrong bound shows: either bound multiplied by sqrt(rho) where it is
        # divided moves the estimate by about 0.014 here.
        (5, 1.0, 0.05, 400_000),
    ])
    def test_kept_probability_matches_a_monte_carlo_draw(self, monkeypatch, c, mean_relevant,
                                                         correlation, draws):
        # The share of the label model's draws that have some but not all labels
        # relevant, drawn as gen_synthetic draws them; the spec's estimate must lie
        # within 4 standard errors of it, read by setting the floor just above and
        # just below.
        from tkmia import harness

        rng = np.random.default_rng(0)
        threshold = NormalDist().inv_cdf(mean_relevant / c)
        kept = 0
        for start in range(0, draws, 20_000):
            n = min(20_000, draws - start)
            latent = (math.sqrt(correlation) * rng.standard_normal((n, 1))
                      + math.sqrt(1.0 - correlation) * rng.standard_normal((n, c)))
            relevant = np.count_nonzero(latent < threshold, axis=1)
            kept += np.count_nonzero((relevant > 0) & (relevant < c))
        share = kept / draws
        tolerance = 4 * math.sqrt(share * (1 - share) / draws)
        spec = dict(n=1, d=2, c=c, mean_relevant=mean_relevant, label_correlation=correlation)
        monkeypatch.setattr(harness, "MIN_KEPT_PROBABILITY", share - tolerance)
        SyntheticSpec(**spec)
        monkeypatch.setattr(harness, "MIN_KEPT_PROBABILITY", share + tolerance)
        with pytest.raises(ValueError, match="give a label draw with some but not all"):
            SyntheticSpec(**spec)

    def test_high_correlation_spec_generates(self):
        # The kept draws have the common factor in a narrow window, which fixed
        # Gauss-Hermite nodes over it miss: they read 1.6e-9 here for about 0.036.
        data = gen_synthetic(SyntheticSpec(n=50, d=3, c=10, mean_relevant=3.5,
                                           label_correlation=0.999, seed=1))
        assert len(data) == 50 and all(0 < sum(inst.y) < 10 for inst in data)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 5.0, "n must be an integer, got 5.0"),
        ("n", True, "n must be an integer, got True"),
        ("d", 3.5, "d must be an integer, got 3.5"),
        ("c", 4.0, "c must be an integer, got 4.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ])
    def test_counts_and_seed_take_the_integer_rule(self, field, value, message):
        with pytest.raises(ValueError) as raised:
            SyntheticSpec(**{"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0, field: value})
        assert str(raised.value) == message

    def test_victim_hidden_size_takes_the_integer_rule(self):
        with pytest.raises(ValueError, match="^hidden size must be an integer, got 7.5$"):
            VictimSpec(arch="mlp", hidden=7.5)


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        data = gen_synthetic(SyntheticSpec(n=30, d=5, c=4, mean_relevant=1.5, seed=7))
        path = tmp_path / "data.npz"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        assert len(loaded) == len(data)
        for a, b in zip(data, loaded):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
        assert type(loaded) is Dataset
        assert loaded.X.tobytes() == data.X.tobytes() and loaded.X.shape == data.X.shape
        assert loaded.Y.tobytes() == data.Y.tobytes() and loaded.Y.dtype == np.int8

    def test_archive_holds_the_stacked_arrays(self, tmp_path, monkeypatch):
        path = tmp_path / "data.npz"
        data = gen_synthetic(SyntheticSpec(n=40, d=5, c=4, mean_relevant=1.5, seed=3))
        built = built_views(monkeypatch)
        save_dataset(data, str(path))
        assert built == []  # written from the arrays: no instance was built
        odd = [Instance(x=[-0.0, 5e-324, 1e308, 0.1, 1 / 3], y=[1, 0, 0, 1]),
               Instance(x=np.float32([0.1, -2.5, 7.0, 1e-40, 3.0]), y=np.int8([0, 1, 1, 0]))]
        for instances in (data, list(data) + odd, odd):
            save_dataset(instances, str(path))
            with np.load(path, allow_pickle=False) as archive:
                assert archive.files == ["X", "Y"]
                X, Y = archive["X"], archive["Y"]
            assert (X.dtype, Y.dtype) == (np.float64, np.int64)
            assert X.tobytes() == np.stack([inst.x for inst in instances]).tobytes()
            labels = np.stack([inst.y for inst in instances])
            assert Y.tobytes() == labels.astype(np.int64).tobytes()

    def test_reads_and_rewrites_an_int64_archive(self, tmp_path):
        # An archive as np.savez writes int64 labels: one byte a label in memory, and
        # written back with the file's bytes.
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 1.0, (12, 5))
        Y = (rng.uniform(size=(12, 4)) < 0.5).astype(np.int64)
        path, again = tmp_path / "data.npz", tmp_path / "again.npz"
        np.savez(path, X=X, Y=Y)
        loaded = load_dataset(str(path))
        assert loaded.Y.dtype == np.int8 and not loaded.Y.flags.writeable
        assert np.array_equal(loaded.Y, Y) and loaded.X.tobytes() == X.tobytes()
        save_dataset(load_dataset(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_writes_exactly_the_path_and_the_same_bytes_at_any_time(self, tmp_path,
                                                                    monkeypatch):
        data = gen_synthetic(SyntheticSpec(n=20, d=3, c=4, mean_relevant=1.5, seed=5))
        save_dataset(data, str(tmp_path / "data"))
        # A zip entry may carry its write time: the second save runs a day later.
        later = time.time() + 86400
        monkeypatch.setattr(time, "time", lambda: later)
        save_dataset(data, str(tmp_path / "data.jsonl"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "data.jsonl"]
        assert (tmp_path / "data").read_bytes() == (tmp_path / "data.jsonl").read_bytes()

    def test_empty_dataset_not_written(self, tmp_path):
        path = tmp_path / "data.npz"
        with pytest.raises(ValueError, match="^empty dataset$"):
            save_dataset([], str(path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", BAD_DATASET_FILES)
    def test_bad_file_named_in_one_line(self, tmp_path, case):
        content, message = BAD_DATASET_FILES[case]
        path = tmp_path / "data.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}: {message}"


def small_config(tmp_path, scheme=None, methods=("tkmia", "ml_cw_u"), k_grid=(2,),
                 max_iter=60, max_instances=40):
    return ExperimentConfig(
        seed=11,
        dataset={"n": 250, "d": 12, "c": 8, "mean_relevant": 3.0,
                 "label_correlation": 0.4, "seed": 11},
        victim={"arch": "affine", "epochs": 60, "learning_rate": 0.5,
                "batch_size": 64, "seed": 11},
        k_grid=k_grid,
        scheme=scheme or RandomScheme(1),
        methods=methods,
        attack={"eta": 0.05, "alpha": 1e-4, "max_iter": max_iter},
        out_csv=str(tmp_path / "report.csv"),
        out_outcomes=str(tmp_path / "outcomes.jsonl"),
        max_instances=max_instances,
    )


def read_csv_rows(path):
    import csv

    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestRunExperiment:
    def test_report_and_outcomes_consistent(self, tmp_path):
        config = small_config(tmp_path)
        rows = run_experiment(config)
        csv_rows = read_csv_rows(config.out_csv)
        assert [r["method"] for r in csv_rows] == ["tkmia", "ml_cw_u"]
        records = read_jsonl(config.out_outcomes)
        # recompute each delta column from the per-instance records
        for row in csv_rows:
            method = row["method"]
            mine = [r for r in records if r["method"] == method and r["k"] == int(row["k"])]
            assert len(mine) == int(row["n"])
            for col, key in (("delta_p_at_k", "p_at_k"), ("delta_tk_acc", "tk_acc"),
                             ("delta_map_at_k", "ap_at_k"), ("delta_ndcg_at_k", "ndcg_at_k")):
                clean = np.mean([r["clean_metrics"][key] for r in mine])
                pert = np.mean([r["perturbed_metrics"][key] for r in mine])
                assert float(row[col]) == pytest.approx(clean - pert, abs=1e-12)
            expelled = np.mean([len(r["specified"]) - len(r["residual"]) for r in mine])
            assert float(row["delta_l"]) == pytest.approx(expelled, abs=1e-12)

    def test_clean_metrics_identical_across_methods(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        records = read_jsonl(config.out_outcomes)
        by_method = {}
        for r in records:
            by_method.setdefault(r["method"], []).append((r["instance"], r["clean_metrics"]))
        a, b = by_method["tkmia"], by_method["ml_cw_u"]
        assert a == b

    def test_record_metric_keys_are_the_measures_in_order(self, tmp_path):
        config = small_config(tmp_path, max_instances=5)
        run_experiment(config)
        records = read_jsonl(config.out_outcomes)
        assert records
        for r in records:
            assert tuple(r["clean_metrics"]) == MEASURES
            assert tuple(r["perturbed_metrics"]) == MEASURES

    def test_methods_share_instances_and_specified_sets(self, tmp_path):
        config = small_config(tmp_path, scheme=RandomScheme(2), k_grid=(3,))
        run_experiment(config)
        records = read_jsonl(config.out_outcomes)
        by_method = {}
        for r in records:
            by_method.setdefault(r["method"], []).append((r["instance"], tuple(r["specified"])))
        assert by_method["tkmia"] == by_method["ml_cw_u"]

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(tmp_path, max_instances=20)
        run_experiment(config)
        csv_once = (tmp_path / "report.csv").read_bytes()
        out_once = (tmp_path / "outcomes.jsonl").read_bytes()
        run_experiment(config)
        assert (tmp_path / "report.csv").read_bytes() == csv_once
        assert (tmp_path / "outcomes.jsonl").read_bytes() == out_once

    def test_record_metrics_are_the_per_instance_evaluation(self, tmp_path):
        from tkmia.metrics import evaluate_instance

        config = small_config(tmp_path, k_grid=(1, 3))
        run_experiment(config)
        dataset = gen_synthetic(SyntheticSpec(**config.dataset))
        records = read_jsonl(config.out_outcomes)
        assert records
        for r in records:
            y = dataset[r["instance"]].y
            for side, scores in (("clean_metrics", r["scores_before"]),
                                 ("perturbed_metrics", r["scores_after"])):
                record = dataclasses.asdict(evaluate_instance(scores, y, r["k"]))
                assert r[side] == {name: record[name] for name in MEASURES}

    def test_each_attack_is_the_public_call(self, tmp_path, monkeypatch):
        from tkmia import harness
        from tkmia.metrics import evaluate_instance

        config = small_config(tmp_path, methods=METHODS, k_grid=(1, 3), max_instances=15)
        calls = []

        def recorded(real):
            def entry(model, instance, specified, spec):
                outcome = real(model, instance, specified, spec)
                calls.append((real, model, instance, specified, spec, outcome))
                return outcome
            return entry

        for name in ("tkmia_attack", "run_baseline"):
            monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
        run_experiment(config)
        lines = Path(config.out_outcomes).read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        assert {(r["method"], r["k"]) for r in records} == {
            (method, k) for method in METHODS for k in (1, 3)}
        assert len(calls) == len(lines)
        dataset = gen_synthetic(SyntheticSpec(**config.dataset))
        writer = OutcomeLines(dataset.X.shape[1])
        for (real, model, instance, specified, spec, outcome), line, record in zip(
                calls, lines, records):
            index, k = record["instance"], record["k"]
            assert instance.x.tobytes() == dataset.X[index].tobytes()
            direct = real(model, instance, specified, spec)
            assert line == writer.line(direct, direct.epsilon_norm, index, k,
                                       *(measure_set(evaluate_instance(scores, instance.y, k))
                                         for scores in (direct.scores_before,
                                                        direct.scores_after)))
            assert (outcome.forward_passes, outcome.pullbacks, outcome.stop) == (
                direct.forward_passes, direct.pullbacks, direct.stop)
            assert outcome.forward_passes >= 1

    def test_cap_above_sys_maxsize_is_the_dataset_size(self, tmp_path):
        # islice takes no stop above sys.maxsize, and no cell holds more pairs than rows.
        outputs = []
        for cap in (250, 10**30):
            config = small_config(tmp_path, max_instances=cap)
            assert config.dataset["n"] == 250
            run_experiment(config)
            outputs.append([Path(path).read_bytes()
                            for path in (config.out_csv, config.out_outcomes)])
        assert outputs[0] == outputs[1]

    def test_random_scheme_draws_stop_at_the_cap(self, tmp_path, monkeypatch):
        from tkmia import harness

        seeds = []

        def counting(instance, m, seed):
            seeds.append(seed)
            return select_random(instance, m, seed)

        monkeypatch.setattr(harness, "select_random", counting)
        config = small_config(tmp_path, k_grid=(1, 2), max_instances=3)
        config.dataset["n"] = 40
        rows = run_experiment(config)
        assert [r["n"] for r in rows] == [3] * 4
        assert [seed[1] for seed in seeds] == [1] * 3 + [2] * 3

    def test_empty_cell_emits_zero_marker(self, tmp_path):
        # k + m exceeds every instance's relevant count
        config = small_config(tmp_path, scheme=RandomScheme(1), k_grid=(7,))
        run_experiment(config)
        rows = read_csv_rows(config.out_csv)
        assert all(r["n"] == "0" for r in rows)
        assert all(r["delta_p_at_k"] == "nan" for r in rows)

    def test_all_empty_cells_write_an_empty_outcome_file(self, tmp_path):
        config = small_config(tmp_path, scheme=RandomScheme(1), k_grid=(7,))
        rows = run_experiment(config)
        assert rows and all(r["n"] == 0 for r in rows)
        assert (tmp_path / "outcomes.jsonl").read_bytes() == b""

    def test_global_scheme_s_column_is_mean_size(self, tmp_path):
        config = small_config(tmp_path, scheme=GlobalScheme((0, 1)), k_grid=(2,))
        rows = run_experiment(config)
        assert rows[0]["n"] > 0
        assert 1.0 <= rows[0]["s_size"] <= 2.0

    def test_missing_victim_leaves_no_outputs(self, tmp_path):
        config = small_config(tmp_path)
        config.victim = {"path": str(tmp_path / "missing.jsonl")}
        with pytest.raises(OSError):
            run_experiment(config)
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "outcomes.jsonl").exists()

    def test_victim_with_other_sizes_rejected_before_evaluation(self, tmp_path):
        config = small_config(tmp_path)
        data_path = tmp_path / "data.jsonl"
        save_dataset(gen_synthetic(SyntheticSpec(**config.dataset)), str(data_path))
        config.dataset = {"path": str(data_path)}
        for d, c in ((12, 9), (11, 8)):
            victim_path = tmp_path / f"victim{d}x{c}.npz"
            save_scorer(make_affine(d, c, seed=3), str(victim_path))
            config.victim = {"path": str(victim_path)}
            message = (f"victim has in_dim={d}, out_dim={c}, "
                       f"but the dataset has d=12, c=8")
            with pytest.raises(ValueError, match=message):
                run_experiment(config)
        # The check runs in the set-up, before the outcome file's block opens a temp file.
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "outcomes.jsonl").exists()
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("k_grid, categories, message", [
        ((8,), (0,), "k_grid: k=8 must be smaller than c=8"),
        ((2,), (0, 99), r"scheme.categories: 99 outside \[0, 8\)"),
        ((2,), (-1,), r"scheme.categories: -1 outside \[0, 8\)"),
    ])
    def test_dataset_file_grid_checked_before_training(self, tmp_path, k_grid, categories,
                                                       message):
        inline = small_config(tmp_path)
        data_path = tmp_path / "data.jsonl"
        save_dataset(gen_synthetic(SyntheticSpec(**inline.dataset)), str(data_path))
        # a missing victim file would fail at the victim step, after the check
        config = dataclasses.replace(
            inline, dataset={"path": str(data_path)},
            victim={"path": str(tmp_path / "missing.jsonl")},
            scheme=GlobalScheme(categories), k_grid=k_grid)
        with pytest.raises(ValueError, match=message):
            run_experiment(config)

    def test_category_without_instances_gets_zero_marker(self, tmp_path):
        rng = np.random.default_rng(5)
        data = [Instance(x=rng.uniform(-1, 1, 4), y=[1, 1, 1, 0, 0, 0]) for _ in range(20)]
        data_path = tmp_path / "data.jsonl"
        save_dataset(data, str(data_path))
        config = small_config(tmp_path, scheme=GlobalScheme((5,)), k_grid=(1,))
        config.dataset = {"path": str(data_path)}
        config.victim = {"arch": "affine", "epochs": 2}
        rows = run_experiment(config)
        assert [(row["method"], row["n"], row["delta_p_at_k"]) for row in rows] == [
            ("tkmia", 0, None), ("ml_cw_u", 0, None)]
        assert rows[0]["s_size"] == 0

    def test_attack_overrides_take_effect(self, tmp_path):
        plain_dir, override_dir = tmp_path / "plain", tmp_path / "override"
        plain_dir.mkdir()
        override_dir.mkdir()
        run_experiment(small_config(plain_dir, max_instances=15))
        config = small_config(override_dir, max_instances=15)
        config.attack_overrides = {"ml_cw_u": {"max_iter": 0}}
        run_experiment(config)
        assert config.attack_config("tkmia", 2).max_iter == 60
        assert config.attack_config("ml_cw_u", 2).max_iter == 0

        def lines(directory, method):
            text = (directory / "outcomes.jsonl").read_text()
            return [line for line in text.splitlines() if json.loads(line)["method"] == method]

        ml_cw_u = [json.loads(line) for line in lines(override_dir, "ml_cw_u")]
        assert len(ml_cw_u) == 15
        assert all(r["iterations_used"] == 0 for r in ml_cw_u)
        assert any(json.loads(line)["iterations_used"] > 0 for line in lines(plain_dir, "ml_cw_u"))
        assert lines(override_dir, "tkmia") == lines(plain_dir, "tkmia")

    def test_raw_victim_file_is_reported_on_its_logits(self, tmp_path):
        # A victim file with "sigmoid_output": false is attacked on its logits. The
        # measures only rank, so its clean measures are those of the sigmoid copy.
        from tkmia.cli import main

        victim = make_affine(12, 8, seed=3)
        records = {}
        for sigmoid in (True, False):
            base = tmp_path / ("sigmoid" if sigmoid else "raw")
            base.mkdir()
            save_scorer(Scorer(victim.weights, victim.biases, sigmoid_output=sigmoid),
                        str(base / "victim.npz"))
            config = {**dataclasses.asdict(small_config(base)),
                      "victim": {"path": str(base / "victim.npz")},
                      "scheme": {"type": "random", "m": 1}}
            (base / "config.json").write_text(json.dumps(config))
            assert main(["report", "--config", str(base / "config.json")]) == 0
            records[sigmoid] = read_jsonl(base / "outcomes.jsonl")
        assert len(records[False]) == len(records[True]) > 0
        assert any(not 0.0 <= v <= 1.0 for rec in records[False] for v in rec["scores_before"])
        for raw_rec, sig_rec in zip(records[False], records[True]):
            keys = ("method", "k", "instance", "specified", "clean_metrics")
            assert [raw_rec[key] for key in keys] == [sig_rec[key] for key in keys]

    def test_victim_from_path(self, tmp_path):
        config = small_config(tmp_path, max_instances=10)
        data_path = tmp_path / "data.jsonl"
        save_dataset(gen_synthetic(SyntheticSpec(**config.dataset)), str(data_path))
        victim_path = tmp_path / "victim.npz"
        save_scorer(make_affine(12, 8, seed=3), str(victim_path))
        config.dataset = {"path": str(data_path)}
        config.victim = {"path": str(victim_path)}
        rows = run_experiment(config)
        assert rows


class TestCellBlocks:
    """A report attacks, evaluates and writes each (k, method) cell in blocks of
    ``_CELL_BLOCK`` pairs, and frees each block's outcomes once they are written."""

    def config(self, tmp_path, mode="c1_only"):
        config = small_config(tmp_path, methods=METHODS, k_grid=(1, 3), max_instances=23)
        config.attack = {**config.attack, "success_mode": mode}
        return config

    @pytest.mark.bitwise
    @pytest.mark.parametrize("mode", ["c1_only", "strict"])
    def test_block_boundaries_change_no_byte(self, tmp_path, monkeypatch, capsys, mode):
        from tkmia import harness
        from tkmia.cli import main

        config = self.config(tmp_path, mode)
        paths = [Path(config.out_csv), Path(config.out_outcomes)]
        assert [row["n"] for row in run_experiment(config)] == [23] * 6
        expected = [path.read_bytes() for path in paths]
        for block in (1, 2, 7):
            monkeypatch.setattr(harness, "_CELL_BLOCK", block)
            run_experiment(config)
            assert [path.read_bytes() for path in paths] == expected
        # tkmia attack on the k = 1 cell's 22nd instance, in its fourth block of 7.
        lines = expected[1].decode().splitlines(keepends=True)
        index = json.loads(lines[21])["instance"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**dataclasses.asdict(config),
                                    "scheme": {"type": "random", "m": 1}}))
        assert main(["attack", "--config", str(path), "--index", str(index)]) == 0
        assert capsys.readouterr().out == "".join(
            line for line in lines if json.loads(line)["instance"] == index)

    def test_a_report_holds_one_block_of_outcomes(self, tmp_path, monkeypatch):
        from tkmia import attack, harness

        made, alive = [], []
        loop, line = attack.run_attack_loop, OutcomeLines.line

        def recorded(*args, **kwargs):
            outcome = loop(*args, **kwargs)
            made.append(weakref.ref(outcome))
            return outcome

        def counted(self, *args):
            alive.append(sum(ref() is not None for ref in made))
            return line(self, *args)

        monkeypatch.setattr(attack, "run_attack_loop", recorded)
        monkeypatch.setattr(OutcomeLines, "line", counted)
        monkeypatch.setattr(harness, "_CELL_BLOCK", 5)
        rows = run_experiment(self.config(tmp_path))
        assert len(alive) == len(made) == sum(row["n"] for row in rows) == 6 * 23
        assert max(alive) <= 5

    def test_a_report_keeps_no_row_instance(self, tmp_path, monkeypatch):
        from tkmia import harness

        views, datasets, resolve = built_views(monkeypatch), [], harness._resolve

        def kept(config):  # the dataset outlives the report, as a caller's would
            dataset, model = resolve(config)
            datasets.append(dataset)
            return dataset, model

        monkeypatch.setattr(harness, "_resolve", kept)
        rows = run_experiment(self.config(tmp_path))
        gc.collect()
        assert len(datasets) == 1 and len(views) >= sum(row["n"] for row in rows) == 6 * 23
        assert [ref for ref in views if ref() is not None] == []

    def test_a_report_builds_no_record_and_delta_report_gives_its_row(self, tmp_path,
                                                                       monkeypatch):
        # A report keeps its per-row measures as arrays and builds no record.
        # delta_report, on arrays rebuilt here from the report's own outcome lines,
        # gives the report's CSV bytes.
        config, built, init = self.config(tmp_path), [], MetricsRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(MetricsRecord, "__init__", counted)
            rows = run_experiment(config)
        assert built == [] and sum(row["n"] for row in rows) == 6 * 23
        lines = read_jsonl(config.out_outcomes)
        rebuilt = []
        for row in rows:
            cell = [r for r in lines if (r["k"], r["method"]) == (row["k"], row["method"])]
            clean, perturbed = ([np.array([r[side][name] for r in cell]) for name in MEASURES]
                                for side in ("clean_metrics", "perturbed_metrics"))
            expelled = np.array([len(r["specified"]) - len(r["residual"]) for r in cell])
            success, norms = (np.array([r[key] for r in cell])
                              for key in ("success", "epsilon_norm"))
            report = delta_report(clean, perturbed, expelled, success, norms)
            rebuilt.append({**row, **dataclasses.asdict(report)})
        # Both kinds of outcome in some cell, so that APer averages a strict subset.
        assert {r["success"] for r in lines} == {True, False}
        write_report_csv(str(tmp_path / "rebuilt.csv"), rebuilt)
        assert (tmp_path / "rebuilt.csv").read_bytes() == Path(config.out_csv).read_bytes()


class TestEvaluateCell:
    def test_an_error_of_finite_scores_passes_through_unprefixed(self):
        # Only a non-finite row of scores names the cell and an instance. A cell
        # admits rows with |Yp| >= 2, so a label row without relevant labels meets
        # only a direct call, and its error is the measures' own.
        scores = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        with pytest.raises(ValueError) as raised:
            _evaluate_cell(scores, np.array([[1, 0, 0], [0, 0, 0]]), 2, [4, 9],
                           "clean scores (k=2)")
        assert str(raised.value) == "AP@k undefined without relevant labels"


def hand_outcome(**fields):
    base = dict(method="tkmia", epsilon=np.array([0.25, -0.5, 0.125]), iterations_used=4,
                success=True, specified=(1,), residual=(), lambda1=0.3125, lambda2=1.0,
                scores_before=np.array([0.9, 0.8, 0.1, 0.4]),
                scores_after=np.array([0.9, 0.3, 0.1, 0.4]))
    return AttackOutcome(**{**base, **fields})


class TestOutcomeLines:
    def test_record_keys_are_pinned(self):
        # The outcome format: a change to these keys or their order is a change
        # of every report's outcome bytes, and must show here.
        assert RECORD_KEYS == ("method", "success", "iterations_used", "specified", "residual",
                               "lambda1", "lambda2", "epsilon_norm", "epsilon", "scores_before",
                               "scores_after")
        outcome, values = hand_outcome(), (1, 0.5, 1.0, 1.0)
        line = OutcomeLines(3).line(outcome, outcome.epsilon_norm, 7, 2, values, values)
        assert tuple(json.loads(line)) == (*RECORD_KEYS, "instance", "k", "clean_metrics",
                                           "perturbed_metrics")

    @pytest.mark.parametrize("output", ["sigmoid", "logits"])
    @pytest.mark.parametrize("mode", ["c1_only", "strict"])
    def test_every_report_line_is_its_record_dumped(self, tmp_path, monkeypatch, mode, output):
        config = small_config(tmp_path, methods=METHODS, k_grid=(1, 3), max_instances=25)
        config.attack = {**config.attack, "success_mode": mode}
        if output == "logits":
            # The same victim on its raw logits: negative scores, which can be -0.0.
            victim = train_victim(gen_synthetic(SyntheticSpec(**config.dataset)),
                                  **{"seed": config.seed, **config.victim})
            path = tmp_path / "raw.npz"
            save_scorer(Scorer(victim.weights, victim.biases, sigmoid_output=False), str(path))
            config.victim = {"path": str(path)}
        expected = []
        line = OutcomeLines.line

        def spy(self, outcome, norm, instance, k, clean, perturbed):
            assert norm.hex() == outcome.epsilon_norm.hex()
            expected.append(dumped(outcome, instance, k, clean, perturbed))
            return line(self, outcome, norm, instance, k, clean, perturbed)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        monkeypatch.setattr(OutcomeLines, "line", spy)
        run_experiment(config)
        text = (tmp_path / "outcomes.jsonl").read_text()
        assert text == "".join(expected)
        records = [json.loads(row, parse_constant=reject) for row in text.splitlines()]
        assert {(r["method"], r["k"]) for r in records} == {
            (m, k) for m in METHODS for k in (1, 3)}
        # Both kinds of outcome, and lines whose epsilon and scores are reused and not.
        assert {r["success"] for r in records} == {True, False}
        assert {r["iterations_used"] == 0 for r in records} == {True, False}
        assert {r["scores_after"] == r["scores_before"] for r in records} == {True, False}
        if output == "logits":
            assert min(min(r["scores_before"]) for r in records) < 0

    def test_hand_built_outcomes_are_their_records_dumped(self):
        # Outcomes and measure sets of a report's types, every float finite.
        lines = OutcomeLines(3)
        zeros, row = np.zeros(3), np.array([0.9, 0.8, 0.1, 0.4])
        cases = [
            hand_outcome(),
            # -0.0 in epsilon, in the scores and as the only epsilon entry
            hand_outcome(epsilon=np.array([0.0, -0.0, 0.5])),
            hand_outcome(epsilon=np.array([-0.0, -0.0, -0.0])),
            hand_outcome(scores_before=np.array([-0.0, 0.5, 0.25, 0.0]),
                         scores_after=np.array([-0.0, 0.5, 0.25, 0.0])),
            # equal values in other bytes: 0.0 after -0.0
            hand_outcome(scores_before=np.array([0.5, -0.0, 0.25, 0.75]),
                         scores_after=np.array([0.5, 0.0, 0.25, 0.75])),
            # a zero-iteration success, whose scores are one array, and a zero
            # epsilon of another d
            hand_outcome(epsilon=zeros, iterations_used=0, lambda1=0.0, lambda2=0.0,
                         scores_before=row, scores_after=row),
            hand_outcome(epsilon=np.zeros(5), success=False, residual=(1,), method="ml_cw_u",
                         specified=(0, 1), lambda1=0.0, lambda2=0.0),
            # extreme finite floats
            hand_outcome(lambda1=5e-324, lambda2=1e16, epsilon=np.array([1e-300, -2e22, 3.0]),
                         scores_before=np.array([-1.7976931348623157e308, 2.5e-308, 0.1, 1e300])),
        ]
        # Report measure sets: an int tk_acc and non-negative floats.
        sets = [(1, 0.0, 1.0, 1.0), (0, 0.5, 0.75, 0.6131471927654584), (2, 1.0, 1.0, 1.0)]
        # Twice, so that reused text meets each case again; each case is its own
        # instance, since the writer keys a clean row's text by the instance index.
        for index, outcome in [*enumerate(cases)] * 2:
            norm = outcome.epsilon_norm
            for clean in sets:
                for pert in sets:
                    assert (lines.line(outcome, norm, index, 2, clean, pert)
                            == dumped(outcome, index, 2, clean, pert))

    @pytest.mark.bitwise
    def test_clean_text_is_reused_across_cells(self):
        # One writer, as a report keeps it, fed the lines of three cells in turn. A
        # logit victim's clean rows, instance i's row met again as another array of
        # the same bytes in every cell; two differ only in a signed zero.
        rows = [np.array([-0.0, 1.5, -2.25, 0.125]), np.array([0.0, 1.5, -2.25, 0.125]),
                np.array([-3.0, -0.0, 0.0, 7.5e-300])]
        cells = [(1, "tkmia"), (2, "ml_cw_u"), (2, "tkml_ap_u")]
        values = (1, 0.5, 1.0, 1.0)
        lines, listed = OutcomeLines(3), []

        class Row(np.ndarray):  # a score row that counts the writer's reads of its text
            def tolist(self):
                listed.append(self)
                return super().tolist()

        for turn in range(4):
            for i, row in enumerate(rows):
                for k, method in cells:
                    before = row.copy().view(Row)
                    after = [
                        before,  # an attack that ends at iteration 0: the one array
                        before + 1.0,
                        before.copy(),  # equal bytes, another array
                        rows[1 - i].view(Row) if i < 2 else -before,  # signed-zero twin, or -row
                    ][turn]
                    outcome = hand_outcome(method=method, scores_before=before,
                                           scores_after=after, iterations_used=turn)
                    listed.clear()
                    line = lines.line(outcome, outcome.epsilon_norm, i, k, values, values)
                    # The clean row's text is made once per instance, and scores_after's
                    # is reused exactly when it is scores_before's array.
                    first = turn == 0 and k == 1
                    assert [a is before for a in listed] == [True] * first + [False] * (turn > 0)
                    assert line == dumped(outcome, i, k, values, values)
        # One kept str per instance, keyed by its index: no row bytes are kept.
        assert list(lines._rows) == [0, 1, 2]
        assert all(type(text) is str for text in lines._rows.values())


class TestCellSelection:
    """A report attacks, in every cell, the (instance, S) pairs of a brute-force
    selection: each instance's S under the scheme, kept if :func:`ineligible`
    accepts it for every method, then the first ``max_instances``."""

    CATEGORIES = (0, 1, 2)

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # Instances 0 and 7 have every label relevant: only ml_cw_u refuses them.
        data = list(gen_synthetic(SyntheticSpec(n=80, d=4, c=8, mean_relevant=4.5, seed=3)))
        for i in (0, 7):
            data[i] = Instance(x=data[i].x, y=[1] * 8)
        base = tmp_path_factory.mktemp("selection")
        save_dataset(data, str(base / "data.jsonl"))
        save_scorer(make_affine(4, 8, seed=3), str(base / "victim.npz"))
        return base, data

    def brute_force(self, config, data, k):
        pairs = []
        for i, inst in enumerate(data):
            if isinstance(config.scheme, GlobalScheme):
                s = tuple(sorted(set(config.scheme.categories) & set(inst.relevant)))
            elif len(inst.relevant) >= config.scheme.m:
                m = config.scheme.m
                s = select_random(inst, m, seed=[config.seed, k, m, i])
            else:
                continue
            if s and all(ineligible(inst, len(s), k, method,
                                    config.attack_config(method, k).delta_threshold) is None
                         for method in config.methods):
                pairs.append((i, s))
        return pairs

    @pytest.mark.parametrize("scheme", [GlobalScheme(CATEGORIES), RandomScheme(2)],
                             ids=["global", "random"])
    @pytest.mark.parametrize("methods", [("tkmia", "tkml_ap_u"), ("tkmia", "ml_cw_u")])
    @pytest.mark.parametrize("delta, max_instances", [(None, 1000), (2, 1000), (None, 12)],
                             ids=["plain", "delta", "capped"])
    def test_cells_attack_the_brute_force_selection(self, files, tmp_path, scheme, methods,
                                                    delta, max_instances):
        base, data = files
        config = ExperimentConfig(
            seed=5, dataset={"path": str(base / "data.jsonl")},
            victim={"path": str(base / "victim.npz")}, k_grid=(2, 3), scheme=scheme,
            methods=methods, attack={"eta": 0.05, "max_iter": 3, "delta_threshold": delta},
            out_csv=str(tmp_path / "report.csv"), out_outcomes=str(tmp_path / "outcomes.jsonl"),
            max_instances=max_instances)
        run_experiment(config)
        records = read_jsonl(config.out_outcomes)
        for k in config.k_grid:
            want = self.brute_force(config, data, k)
            assert len(want) > 12 and (delta is None or min(map(len, dict(want).values())) >= 2)
            # The all-relevant instances are admitted unless ml_cw_u is configured.
            assert ({0, 7} <= dict(want).keys()) == ("ml_cw_u" not in methods)
            for method in methods:
                got = [(r["instance"], tuple(r["specified"])) for r in records
                       if (r["k"], r["method"]) == (k, method)]
                assert got == want[:max_instances]

    C = 6

    @classmethod
    def random_dataset(cls, seed, n=120):
        """Labels of a random density per instance, six instances with all relevant."""
        rng = np.random.default_rng(seed)
        Y = rng.random((n, cls.C)) < rng.uniform(0.1, 0.9, size=(n, 1))
        Y[rng.choice(n, 6, replace=False)] = True
        return Dataset(rng.uniform(-1, 1, (n, 3)), Y.astype(int))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_select_global_is_the_per_row_definition(self, seed):
        data = self.random_dataset(seed)
        for categories in [(0,), (4, 1, 1, 4), (0, 0, 2, 11, -1, 5), (7, -2), tuple(range(6))]:
            got = select_global(data, categories)
            assert got == [(i, s) for i, inst in enumerate(data)
                           if (s := tuple(sorted(set(categories) & set(inst.relevant))))]
            # Each distinct S is one tuple.
            assert len({id(s) for _, s in got}) == len({s for _, s in got})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme", [GlobalScheme((0, 0, 2, 11, -1, 4)), GlobalScheme((3,)),
                                        RandomScheme(1), RandomScheme(2)],
                             ids=["global-many", "global-one", "random-1", "random-2"])
    def test_selection_is_the_brute_force_on_random_datasets(self, tmp_path, seed, scheme):
        # _cell_selection runs the rule once per (|Yp|, |S|) pair of a cell.
        data = self.random_dataset(seed)
        max_s = scheme.m if isinstance(scheme, RandomScheme) else len(set(scheme.categories))
        capped = all_relevant = 0
        for methods in [("tkmia",), ("tkmia", "ml_cw_u"), ("ml_cw_u", "tkml_ap_u")]:
            for delta in (None, 1, 2)[:max_s + 1]:
                for max_instances in (1000, 9):
                    config = ExperimentConfig(
                        seed=seed, dataset={"path": "data.jsonl"}, victim={"path": "v.npz"},
                        k_grid=tuple(range(getattr(scheme, "m", 1), 4)), scheme=scheme,
                        methods=methods, attack={"eta": 0.05, "delta_threshold": delta},
                        out_csv=str(tmp_path / "r.csv"), out_outcomes=str(tmp_path / "o.jsonl"),
                        max_instances=max_instances)
                    for k in config.k_grid:
                        want = self.brute_force(config, data, k)
                        assert _cell_selection(config, data, k) == want[:max_instances]
                        capped += len(want) > max_instances
                        relevant = [len(data[i].relevant) for i, _ in want]
                        # ml_cw_u refuses the all-relevant instances; the others admit some.
                        if "ml_cw_u" in methods:
                            assert max(relevant, default=0) < self.C
                        else:
                            all_relevant += self.C in relevant
        assert capped and all_relevant


def without(*path):
    """A config edit that deletes the key at ``path``."""
    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        del raw[path[-1]]
    return edit


VALID_FIELDS = dict(
    dataset={"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0}, victim={"arch": "affine"},
    k_grid=(1,), scheme=GlobalScheme((0,)), methods=("tkmia",), attack={"eta": 0.01},
    out_csv="r.csv", out_outcomes="o.jsonl")


def report_error(tmp_path, capsys, edit):
    """stderr of ``tkmia report`` on a valid config changed by ``edit``.

    ``edit`` changes the config in place, or returns a replacement for it.
    The run must exit 1 without writing the report.
    """
    from tkmia.cli import main

    raw = {
        "seed": 0,
        "dataset": {"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0},
        "victim": {"arch": "affine", "epochs": 1},
        "k_grid": [1],
        "scheme": {"type": "global", "categories": [0]},
        "methods": ["tkmia"],
        "attack": {"eta": 0.01, "max_iter": 5},
        "attack_overrides": {"tkmia": {"alpha": 0.0}},
        "out_csv": str(tmp_path / "r.csv"),
        "out_outcomes": str(tmp_path / "o.jsonl"),
    }
    ExperimentConfig.from_dict(json.loads(json.dumps(raw)))  # valid before the edit
    replaced = edit(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw if replaced is None else replaced))
    assert main(["report", "--config", str(path)]) == 1
    assert not (tmp_path / "r.csv").exists()
    return capsys.readouterr().err


class TestExperimentConfig:
    def test_from_json_roundtrip(self, tmp_path):
        raw = {
            "seed": 3,
            "dataset": {"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0, "seed": 3},
            "victim": {"arch": "affine", "epochs": 5},
            "k_grid": [2, 3],
            "scheme": {"type": "random", "m": 1},
            "methods": ["tkmia"],
            "attack": {"eta": 0.05},
            "out_csv": str(tmp_path / "r.csv"),
            "out_outcomes": str(tmp_path / "o.jsonl"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = ExperimentConfig.from_json(str(path))
        assert config.k_grid == (2, 3)
        assert config.scheme == RandomScheme(1)

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Experiment config", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        config = ExperimentConfig.from_dict(json.loads(example))
        assert config.methods == ("tkmia", "ml_cw_u", "tkml_ap_u")

    def test_global_scheme_parse(self):
        raw = {
            "seed": 0,
            "dataset": {"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0},
            "victim": {"arch": "affine"},
            "k_grid": [1],
            "scheme": {"type": "global", "categories": [0, 2]},
            "methods": ["tkmia"],
            "attack": {"eta": 0.01},
            "out_csv": "r.csv",
            "out_outcomes": "o.jsonl",
        }
        assert ExperimentConfig.from_dict(raw).scheme == GlobalScheme((0, 2))

    def test_validation(self, tmp_path):
        base = dict(
            seed=0, dataset={"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0},
            victim={"arch": "affine"}, scheme=RandomScheme(1),
            attack={"eta": 0.01}, out_csv="r.csv", out_outcomes="o.jsonl",
        )
        with pytest.raises(ValueError):
            ExperimentConfig(k_grid=(), methods=("tkmia",), **base)
        with pytest.raises(ValueError):
            ExperimentConfig(k_grid=(2,), methods=("deepfool",), **base)
        with pytest.raises(ValueError, match="unknown method 'kfool'"):
            ExperimentConfig(k_grid=(2,), methods=("tkmia", "kfool"), **base)
        with pytest.raises(ValueError):
            ExperimentConfig(k_grid=(2,), methods=("tkmia",), max_instances=0, **base)
        # an inline dataset's class count bounds k and the categories at load
        with pytest.raises(ValueError, match="k_grid: k=5 must be smaller than c=5"):
            ExperimentConfig(k_grid=(5,), methods=("tkmia",), **base)
        with pytest.raises(ValueError, match=r"scheme.categories: 5 outside \[0, 5\)"):
            ExperimentConfig(k_grid=(2,), methods=("tkmia",),
                             **{**base, "scheme": GlobalScheme((5,))})

    @pytest.mark.parametrize("level, key, edit", [
        ("config", "max_instance", lambda raw: raw.update(max_instance=5)),
        ("dataset", "nn", lambda raw: raw["dataset"].update(nn=5)),
        ("dataset", "n", lambda raw: raw.update(dataset={"path": "d.jsonl", "n": 5})),
        ("victim", "epoch", lambda raw: raw["victim"].update(epoch=5)),
        ("victim", "arch", lambda raw: raw.update(victim={"path": "v.npz", "arch": "mlp"})),
        ("scheme", "m", lambda raw: raw["scheme"].update(m=1)),
        ("attack", "max_iters", lambda raw: raw["attack"].update(max_iters=1)),
        ("attack", "succes_mode", lambda raw: raw["attack"].update(succes_mode="strict")),
        ("attack_overrides", "tkmai", lambda raw: raw["attack_overrides"].update(tkmai={})),
        ("attack_overrides.tkmia", "max_iters",
         lambda raw: raw["attack_overrides"]["tkmia"].update(max_iters=1)),
    ])
    def test_unknown_key_rejected_with_level_and_key(self, tmp_path, capsys, level, key, edit):
        assert report_error(tmp_path, capsys, edit) == f"error: {level}: unknown key {key!r}\n"

    @pytest.mark.parametrize("message, edit", [
        ("config: expected an object, got list", lambda raw: []),
        ("k_grid: expected a list, got int", lambda raw: raw.update(k_grid=3)),
        ("methods: expected a list, got str", lambda raw: raw.update(methods="tkmia")),
        ("dataset: expected an object, got int", lambda raw: raw.update(dataset=3)),
        ("out_csv: expected a string, got int", lambda raw: raw.update(out_csv=3)),
        ("attack_overrides: expected an object, got list",
         lambda raw: raw.update(attack_overrides=[])),
        ("attack_overrides.tkmia: expected an object, got int",
         lambda raw: raw["attack_overrides"].update(tkmia=3)),
        ("scheme: missing key 'type'", without("scheme", "type")),
        ("scheme: missing key 'categories'", without("scheme", "categories")),
        ("attack: missing key 'eta'", without("attack", "eta")),
        ("scheme.categories: expected a list, got int",
         lambda raw: raw["scheme"].update(categories=3)),
        ("scheme.categories[0]: expected an integer, got str",
         lambda raw: raw["scheme"].update(categories=["0"])),
        ("scheme.m: expected an integer, got float",
         lambda raw: raw.update(scheme={"type": "random", "m": 1.5})),
        ("seed: expected an integer, got list", lambda raw: raw.update(seed=[])),
        ("max_instances: expected an integer, got bool",
         lambda raw: raw.update(max_instances=True)),
        ("k_grid[0]: expected an integer, got list", lambda raw: raw.update(k_grid=[[1]])),
        ("k_grid: 1 is repeated", lambda raw: raw.update(k_grid=[1, 2, 1])),
        ("k_grid: 1 is repeated",
         lambda raw: raw.update(k_grid=[1, 1], methods=["tkmia", "tkmia"])),
        ("methods: 'tkmia' is repeated",
         lambda raw: raw.update(methods=["tkmia", "ml_cw_u", "tkmia"])),
        ("attack.eta: expected a number, got list",
         lambda raw: raw["attack"].update(eta=[0.05])),
        ("attack.delta_threshold: expected an integer or null, got float",
         lambda raw: raw["attack"].update(delta_threshold=1.5)),
        ("attack_overrides.tkmia.alpha: expected a number, got str",
         lambda raw: raw["attack_overrides"]["tkmia"].update(alpha="0")),
        ("victim.epochs: expected an integer, got str",
         lambda raw: raw["victim"].update(epochs="x")),
        ("victim.path: expected a string, got int", lambda raw: raw.update(victim={"path": 3})),
        ("dataset.n: expected an integer, got float",
         lambda raw: raw["dataset"].update(n=10.0)),
        ("dataset: n, d positive and c >= 2 required", lambda raw: raw["dataset"].update(n=0)),
        ("dataset: seed must be non-negative, got -1",
         lambda raw: raw["dataset"].update(seed=-1)),
        ("seed must be non-negative, got -1", lambda raw: raw.update(seed=-1)),
        ("dataset: mean_relevant must lie strictly between 0 and c",
         lambda raw: raw["dataset"].update(mean_relevant=5.0)),
        ("dataset: label_correlation must lie in [0, 1)",
         lambda raw: raw["dataset"].update(label_correlation=1.0)),
        ("k_grid: k=5 must be smaller than c=5", lambda raw: raw.update(k_grid=[1, 5])),
        ("scheme.categories: 99 outside [0, 5)",
         lambda raw: raw["scheme"].update(categories=[0, 99])),
        ("scheme.categories: -1 outside [0, 5)",
         lambda raw: raw["scheme"].update(categories=[-1])),
        ("scheme.categories: category set must be non-empty",
         lambda raw: raw["scheme"].update(categories=[])),
        ("scheme.m: m must be positive",
         lambda raw: raw.update(scheme={"type": "random", "m": 0})),
        ("methods[0]: expected a string, got int", lambda raw: raw.update(methods=[1])),
        ("method list must be non-empty", lambda raw: raw.update(methods=[])),
        ("unknown scheme type 'grid'", lambda raw: raw["scheme"].update(type="grid")),
    ] + [
        (f"dataset: missing key {key!r}", without("dataset", key))
        for key in ("n", "d", "c", "mean_relevant")
    ] + [
        (f"config: missing key {key!r}", without(key))
        for key in ("scheme", "dataset", "victim", "k_grid", "methods", "attack",
                    "out_csv", "out_outcomes")
    ] + [
        ("victim: expected an object, got int", lambda raw: raw.update(victim=3)),
        # A dict edit is the keyword arguments of a config built directly,
        # which must fail with the line a loaded config gives.
        ("victim: expected an object, got int", {"victim": 3}),
        ("dataset: expected an object, got int", {"dataset": 3}),
        ("k_grid: expected a list, got int", {"k_grid": 3}),
        ("methods: expected a list, got str", {"methods": "tkmia"}),
        ("k_grid[1]: expected an integer, got str", {"k_grid": (1, "2")}),
        ("max_instances: expected an integer, got bool", {"max_instances": True}),
        ("seed must be non-negative, got -1", {"seed": -1}),
        ("scheme: expected a GlobalScheme or RandomScheme, got dict",
         {"scheme": {"type": "random", "m": 1}}),
    ])
    def test_malformed_config_rejected_in_one_line(self, tmp_path, capsys, message, edit):
        if isinstance(edit, dict):
            with pytest.raises(ValueError) as info:
                ExperimentConfig(**{**VALID_FIELDS, **edit})
            assert str(info.value) == message
        else:
            assert report_error(tmp_path, capsys, edit) == f"error: {message}\n"

    @pytest.mark.parametrize("message, edit", [
        ("attack (tkmia, k=1): unknown success mode 'bogus'",
         lambda raw: raw["attack"].update(success_mode="bogus")),
        ("attack (tkmia, k=0): k must be positive", lambda raw: raw.update(k_grid=[0])),
        ("attack (tkmia, k=1): clip domain must satisfy lo < hi",
         lambda raw: raw["attack"].update(clip_lo=1.0, clip_hi=-1.0)),
        ("attack (tkmia, k=1): random scheme requires m <= k",
         lambda raw: raw.update(scheme={"type": "random", "m": 2})),
        ("attack (ml_cw_u, k=1): max_iter must be >= 0",
         lambda raw: raw.update(methods=["tkmia", "ml_cw_u"],
                                attack_overrides={"ml_cw_u": {"max_iter": -1}})),
        ("attack (tkmia, k=1): eta must be positive",
         lambda raw: raw["attack_overrides"]["tkmia"].update(eta=0)),
        ("attack (tkmia, k=1): alpha must be non-negative",
         lambda raw: raw["attack_overrides"]["tkmia"].update(alpha=-0.1)),
        ("attack (tkmia, k=1): delta threshold must be positive",
         lambda raw: raw["attack"].update(delta_threshold=0)),
        # json.load reads NaN and Infinity; json.dumps writes them.
        ("attack (tkmia, k=1): alpha must be finite, got nan",
         lambda raw: raw.update(attack={"eta": 0.05, "alpha": float("nan")},
                                attack_overrides=None)),
        ("attack (tkmia, k=1): eta must be finite, got inf",
         lambda raw: raw["attack_overrides"]["tkmia"].update(eta=float("inf"))),
        ("attack (tkmia, k=1): clip domain must be finite, got (-1.0, inf)",
         lambda raw: raw["attack"].update(clip_hi=float("inf"))),
        ("attack (tkmia, k=1): delta threshold 2 exceeds |S|=1",
         lambda raw: raw.update(scheme={"type": "random", "m": 1},
                                methods=["tkmia", "ml_cw_u"],
                                attack={"eta": 0.01, "delta_threshold": 2})),
        ("attack (tkml_ap_u, k=2): delta threshold 3 exceeds |S|=2",
         lambda raw: raw.update(scheme={"type": "random", "m": 2}, k_grid=[2],
                                methods=["tkml_ap_u"],
                                attack_overrides={"tkml_ap_u": {"delta_threshold": 3}})),
        ("attack (tkmia, k=1): delta threshold 3 exceeds max |S|=2",
         lambda raw: raw.update(scheme={"type": "global", "categories": [0, 1, 1]},
                                methods=["tkmia", "ml_cw_u"],
                                attack={"eta": 0.01, "delta_threshold": 3})),
        ("victim: unknown arch 'afine'", lambda raw: raw["victim"].update(arch="afine")),
        ("victim: hidden size must be >= 1, got 0",
         lambda raw: raw["victim"].update(arch="mlp", hidden=0)),
        ("victim: batch size must be positive",
         lambda raw: raw["victim"].update(batch_size=0)),
        ("victim: epochs must be >= 0", lambda raw: raw["victim"].update(epochs=-1)),
        ("victim: seed must be non-negative, got -1", lambda raw: raw["victim"].update(seed=-1)),
        ("victim: learning rate must be positive",
         lambda raw: raw["victim"].update(learning_rate=-1)),
        ("victim: learning rate must be finite, got nan",
         lambda raw: raw["victim"].update(learning_rate=float("nan"))),
        ("victim: learning rate must be finite, got inf",
         lambda raw: raw["victim"].update(learning_rate=float("inf"))),
        ("victim: momentum must be in [0, 1)", lambda raw: raw["victim"].update(momentum=1)),
        ("victim: unknown activation 'sigmoid'",
         lambda raw: raw["victim"].update(arch="mlp", activation="sigmoid")),
        ("attack_overrides: unknown key 'ml_cw_u'",
         lambda raw: raw["attack_overrides"].update(
             ml_cw_u={"max_iter": -5, "success_mode": "bogus"})),
    ])
    def test_attack_value_rejected_before_dataset_is_read(self, tmp_path, capsys, message,
                                                          edit):
        def edit_with_missing_dataset(raw):
            raw["dataset"] = {"path": str(tmp_path / "missing.jsonl")}
            edit(raw)

        assert report_error(tmp_path, capsys, edit_with_missing_dataset) == (
            f"error: {message}\n")

    @pytest.mark.parametrize("key", ["out_csv", "out_outcomes"])
    def test_missing_output_directory_rejected_before_dataset_is_read(self, tmp_path, capsys,
                                                                       key):
        def edit(raw):
            raw["dataset"] = {"path": str(tmp_path / "missing.jsonl")}
            raw[key] = str(tmp_path / "nodir" / "out")

        assert report_error(tmp_path, capsys, edit) == (
            f"error: {key}: directory {tmp_path / 'nodir'} does not exist\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_outcomes_over_the_csv_rejected_before_dataset_is_read(self, tmp_path, capsys):
        def edit(raw):
            raw["dataset"] = {"path": str(tmp_path / "missing.jsonl")}
            raw["out_outcomes"] = f"{tmp_path}/./r.csv"

        assert report_error(tmp_path, capsys, edit) == (
            "error: out_outcomes: same file as out_csv\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        from tkmia.cli import main

        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,,}')
        assert main(["report", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: Expecting property name enclosed in double quotes: "
            "line 1 column 12 (char 11)\n")

    def test_global_delta_threshold_up_to_the_category_count_loads(self):
        raw = {
            "dataset": {"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0},
            "victim": {"arch": "affine"},
            "k_grid": [1],
            "scheme": {"type": "global", "categories": [0, 1]},
            "methods": ["ml_cw_u"],
            "attack": {"eta": 0.01, "delta_threshold": 2},
            "out_csv": "r.csv",
            "out_outcomes": "o.jsonl",
        }
        assert ExperimentConfig.from_dict(raw).attack_config("ml_cw_u", 1).delta_threshold == 2

    @pytest.mark.parametrize("message, victim, attack", [
        ("attack (tkmia, k=1): delta threshold 2 exceeds |S|=1",
         {"arch": "affine", "epochs": 2}, {"eta": 0.05, "delta_threshold": 2}),
        ("victim: unknown key 'activation'",
         {"arch": "affine", "activation": "sigmoid", "epochs": 2}, {"eta": 0.05}),
        ("victim: unknown key 'hidden'", {"hidden": 0, "epochs": 2}, {"eta": 0.05}),
    ], ids=["tkmia-delta", "affine-activation", "default-arch-hidden"])
    def test_settings_once_ignored_rejected_at_load(self, message, victim, attack):
        """delta_threshold binds tkmia too; hidden and activation are MLP keys."""
        raw = {
            "dataset": {"n": 40, "d": 4, "c": 6, "mean_relevant": 3.0},
            "victim": victim,
            "k_grid": [1],
            "scheme": {"type": "random", "m": 1},
            "methods": ["tkmia"],
            "attack": attack,
            "out_csv": "r.csv",
            "out_outcomes": "o.jsonl",
        }
        with pytest.raises(ValueError) as raised:
            ExperimentConfig.from_dict(raw)
        assert str(raised.value) == message


# For every key of the dataset, victim and attack blocks: a valid value, a
# value of the wrong JSON kind, and the kind that the error then names.
KEY_CASES = {
    "dataset": {
        "n": (12, 10.0, "an integer, got float"),
        "d": (3, "4", "an integer, got str"),
        "c": (6, [5], "an integer, got list"),
        "mean_relevant": (2.5, "2", "a number, got str"),
        "label_correlation": (0.3, None, "a number, got NoneType"),
        "seed": (3, True, "an integer, got bool"),
    },
    "victim": {
        "arch": ("affine", 1, "a string, got int"),
        "epochs": (2, 2.0, "an integer, got float"),
        "learning_rate": (0.1, "0.1", "a number, got str"),
        "momentum": (0.5, [0.5], "a number, got list"),
        "batch_size": (8, 8.5, "an integer, got float"),
        "seed": (1, None, "an integer, got NoneType"),
    },
    "attack": {
        "eta": (0.02, "0.02", "a number, got str"),
        "alpha": (0.1, [], "a number, got list"),
        "momentum": (0.8, {}, "a number, got dict"),
        "max_iter": (10, 10.5, "an integer, got float"),
        "success_mode": ("strict", 1, "a string, got int"),
        "delta_threshold": (1, 1.5, "an integer or null, got float"),
        "clip_lo": (-0.5, "x", "a number, got str"),
        "clip_hi": (0.5, True, "a number, got bool"),
    },
}
KEY_CASES["victim-mlp"] = {
    **KEY_CASES["victim"],
    "arch": ("mlp", 1, "a string, got int"),
    "hidden": (4, "4", "an integer, got str"),
    "activation": ("relu", None, "a string, got NoneType"),
}
KEY_CASES["attack_overrides.tkmia"] = KEY_CASES["attack"]


def names(cls, *skip):
    return {field.name for field in dataclasses.fields(cls)} - set(skip)


class TestOneSchemaPerBlock:
    """Each block's keys are the fields of its dataclass (the attack block's
    clip domain as clip_lo and clip_hi), each value of its field's kind."""

    def test_the_cases_cover_every_field(self):
        assert set(KEY_CASES["dataset"]) == names(SyntheticSpec)
        assert set(KEY_CASES["victim"]) == names(VictimSpec, "hidden", "activation")
        assert set(KEY_CASES["victim-mlp"]) == names(VictimSpec)
        attack = names(AttackConfig, "k", "clip_domain", "scheme") | {"clip_lo", "clip_hi"}
        assert set(KEY_CASES["attack"]) == attack

    @pytest.mark.parametrize("block, key, valid, wrong, kind", [
        pytest.param(block, key, *case, id=f"{block}.{key}")
        for block, cases in KEY_CASES.items() for key, case in cases.items()
    ])
    def test_every_key_loads_and_rejects_a_wrong_kind(self, block, key, valid, wrong, kind):
        raw = {
            "dataset": {"n": 10, "d": 4, "c": 5, "mean_relevant": 2.0},
            "victim": {"arch": "mlp" if block == "victim-mlp" else "affine"},
            "k_grid": [1],
            "scheme": {"type": "global", "categories": [0]},
            "methods": ["tkmia"],
            "attack": {"eta": 0.01},
            "attack_overrides": {"tkmia": {}},
            "out_csv": "r.csv",
            "out_outcomes": "o.jsonl",
        }
        level = block.split("-")[0]
        target = raw[level] if level in raw else raw["attack_overrides"]["tkmia"]
        target[key] = valid
        config = ExperimentConfig.from_dict(raw)
        if level == "dataset":
            assert getattr(SyntheticSpec(**config.dataset), key) == valid
        elif level == "victim":
            assert getattr(_victim_spec(config.victim), key) == valid
        else:
            cfg = config.attack_config("tkmia", 1)
            clip = {"clip_lo": cfg.clip_domain[0], "clip_hi": cfg.clip_domain[1]}
            assert clip.get(key, getattr(cfg, key, None)) == valid
        target[key] = wrong
        with pytest.raises(ValueError) as raised:
            ExperimentConfig.from_dict(raw)
        assert str(raised.value) == f"{level}.{key}: expected {kind}"

    @pytest.mark.parametrize("route", ["load", "report", "train_victim"])
    def test_an_mlp_key_on_an_affine_victim_fails_on_every_route(self, tmp_path, route):
        victim = {"arch": "affine", "hidden": 7, "epochs": 1}
        config = small_config(tmp_path)
        with pytest.raises(ValueError) as raised:
            if route == "load":
                config.victim = victim
                ExperimentConfig(**vars(config))
            elif route == "report":
                config.victim = victim  # assigned after the load checks ran
                run_experiment(config)
            else:
                train_victim(gen_synthetic(SyntheticSpec(**config.dataset)), **victim)
        assert str(raised.value) == "victim: unknown key 'hidden'"
        assert not (tmp_path / "report.csv").exists()


class TestTrainVictim:
    @pytest.mark.parametrize("arch", ["affine", "mlp"])
    def test_empty_dataset_rejected_for_every_arch(self, arch):
        with pytest.raises(ValueError) as raised:
            train_victim([], arch=arch)
        assert str(raised.value) == "empty dataset"
