import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tkmia import attack, checks, cli, core, harness, metrics, model
from tkmia.cli import main
from tkmia.model import make_affine, save_scorer

from support import attack as library_attack
from support import dumped, read_jsonl


def run_cli(argv):
    return main(argv)


class TestGenData:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["gen-data", "--n", "40", "--d", "6", "--c", "5",
                "--mean-relevant", "2.0", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        code = run_cli(["gen-data", "--n", "10", "--d", "4", "--c", "5",
                        "--mean-relevant", "9.0", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_correlation_one_rejected_in_one_line(self, tmp_path, capsys):
        code = run_cli(["gen-data", "--n", "1", "--d", "2", "--c", "3", "--mean-relevant", "1.0",
                        "--correlation", "1", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == "error: label_correlation must lie in [0, 1)\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_directory_rejected_before_generating(self, tmp_path, capsys):
        # The spec is bad too: the directory check must come first.
        code = run_cli(["gen-data", "--n", "10", "--d", "4", "--c", "5",
                        "--mean-relevant", "9.0",
                        "--out", str(tmp_path / "nodir" / "x.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --out: directory {tmp_path / 'nodir'} does not exist\n")
        assert list(tmp_path.iterdir()) == []


class TestTrainAndAttack:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        path = tmp_path / "data.jsonl"
        run_cli(["gen-data", "--n", "150", "--d", "10", "--c", "6",
                 "--mean-relevant", "3.0", "--seed", "1", "--out", str(path)])
        return path

    def test_train_then_attack_prints_outcome_json(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.jsonl"
        assert run_cli(["train", "--dataset", str(dataset_path), "--epochs", "40",
                        "--seed", "1", "--out", str(victim)]) == 0
        assert capsys.readouterr().out == f"wrote trained affine scorer to {victim}\n"
        # flags left out take train_victim's defaults
        expected = tmp_path / "expected.jsonl"
        save_scorer(harness.train_victim(harness.load_dataset(str(dataset_path)), epochs=40,
                                         seed=1), str(expected))
        assert victim.read_bytes() == expected.read_bytes()

        data = read_jsonl(dataset_path)
        index = next(i for i, rec in enumerate(data) if sum(rec["y"]) >= 3)
        code = run_cli(["attack", "--dataset", str(dataset_path),
                        "--victim", str(victim), "--index", str(index),
                        "--k", "2", "--m", "1", "--seed", "3"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "tkmia"
        assert set(record) >= {"success", "epsilon", "iterations_used", "residual",
                               "clean_metrics", "perturbed_metrics"}

    def test_attack_prints_the_outcome_record_dumped(self, dataset_path, tmp_path, capsys):
        """The printed line is the record of the library's attack dumped with the instance,
        k and the measures of its clean and perturbed scores."""
        victim = tmp_path / "victim.jsonl"
        assert run_cli(["train", "--dataset", str(dataset_path), "--epochs", "20",
                        "--out", str(victim)]) == 0
        capsys.readouterr()
        data, scorer = harness.load_dataset(str(dataset_path)), model.load_scorer(str(victim))
        index = next(i for i, inst in enumerate(data) if len(inst.relevant) >= 3)
        specified = data[index].relevant[:1]
        config = attack.AttackConfig(k=2, eta=0.05, alpha=1e-4)
        for method in attack.METHODS:
            assert run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                            "--index", str(index), "--k", "2", "--method", method,
                            "--specified", str(specified[0])]) == 0
            outcome = library_attack(method, scorer, data[index], specified, config)
            clean, perturbed = (metrics.evaluate_instance(scores, data[index].y, 2)
                                for scores in (outcome.scores_before, outcome.scores_after))
            assert capsys.readouterr().out == dumped(outcome, index, 2, clean, perturbed)

    @pytest.mark.parametrize("index", [150, -1])
    def test_index_outside_the_dataset_exits_one(self, dataset_path, tmp_path, capsys, index):
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(10, 6), str(victim))
        assert run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                        "--index", str(index), "--k", "1", "--m", "1"]) == 1
        assert capsys.readouterr().err == f"error: index {index} outside dataset of size 150\n"

    @pytest.mark.parametrize("method", attack.METHODS)
    def test_attack_with_m_reruns_a_report_attack(self, dataset_path, tmp_path, capsys,
                                                  method):
        """``--m`` draws S as a report's random scheme does, from (seed, k, m, index), and
        ``--specified`` names a global scheme's S: either way the attack runs a report cell's
        code on that one instance and prints the report's line for it, byte for byte."""
        victim = tmp_path / "victim.jsonl"
        assert run_cli(["train", "--dataset", str(dataset_path), "--epochs", "20",
                        "--out", str(victim)]) == 0
        attack_args = ["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                       "--k", "2", "--method", method]

        def report_lines(scheme):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "seed": 3, "dataset": {"path": str(dataset_path)},
                "victim": {"path": str(victim)}, "k_grid": [2], "scheme": scheme,
                "methods": [method], "attack": {"eta": 0.05, "alpha": 1e-4},
                "max_instances": 8, "out_csv": str(tmp_path / "report.csv"),
                "out_outcomes": str(tmp_path / "outcomes.jsonl"),
            }))
            assert run_cli(["report", "--config", str(config)]) == 0
            capsys.readouterr()
            return (tmp_path / "outcomes.jsonl").read_text().splitlines(keepends=True)

        lines = report_lines({"type": "random", "m": 1})
        assert len(lines) == 8
        for line in lines:
            index = json.loads(line)["instance"]
            assert run_cli([*attack_args, "--index", str(index), "--m", "1", "--seed", "3"]) == 0
            assert capsys.readouterr().out == line
        line = report_lines({"type": "global", "categories": [0]})[0]
        assert json.loads(line)["specified"] == [0]
        index = json.loads(line)["instance"]
        assert run_cli([*attack_args, "--index", str(index), "--specified", "0"]) == 0
        assert capsys.readouterr().out == line

    def test_train_rejects_missing_out_directory_before_reading(self, tmp_path, capsys):
        code = run_cli(["train", "--dataset", str(tmp_path / "missing.jsonl"),
                        "--out", str(tmp_path / "nodir" / "v.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --out: directory {tmp_path / 'nodir'} does not exist\n")
        assert list(tmp_path.iterdir()) == []

    def test_train_rejects_mlp_without_hidden_units(self, dataset_path, tmp_path, capsys):
        code = run_cli(["train", "--dataset", str(dataset_path), "--arch", "mlp",
                        "--hidden", "0", "--out", str(tmp_path / "v.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == "error: victim: hidden size must be >= 1, got 0\n"
        assert not (tmp_path / "v.jsonl").exists()

    def test_train_accepts_every_activation(self, dataset_path, tmp_path, capsys):
        from tkmia.model import ACTIVATIONS, load_scorer

        for activation in ACTIVATIONS:
            out = tmp_path / f"{activation}.jsonl"
            assert run_cli(["train", "--dataset", str(dataset_path), "--arch", "mlp",
                            "--hidden", "4", "--activation", activation, "--epochs", "2",
                            "--out", str(out)]) == 0
            assert load_scorer(str(out)).activation == activation

    @pytest.mark.parametrize("flags, key", [
        (["--hidden", "7", "--activation", "relu"], "hidden"),
        (["--activation", "relu"], "activation"),
        (["--arch", "affine", "--hidden", "7"], "hidden"),
    ], ids=["default-arch-both", "default-arch-activation", "affine-hidden"])
    def test_train_rejects_mlp_flags_on_an_affine_victim(self, dataset_path, tmp_path, capsys,
                                                         flags, key):
        """hidden and activation shape an MLP only, as in a report's victim block."""
        out = tmp_path / "v.jsonl"
        code = run_cli(["train", "--dataset", str(dataset_path), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: victim: unknown key {key!r}\n"
        assert not out.exists()

    def test_report_victim_and_train_write_the_same_scorer(self, tmp_path, capsys):
        """One recipe, one scorer: a report's inline MLP victim and ``tkmia
        train`` with the same arch, hidden, activation, epochs and seed."""
        spec = {"n": 60, "d": 5, "c": 4, "mean_relevant": 2.0, "seed": 4}
        config = harness.ExperimentConfig.from_dict({
            "seed": 2,  # the victim's seed, as its block sets none
            "dataset": spec,
            "victim": {"arch": "mlp", "hidden": 3, "activation": "relu", "epochs": 4},
            "k_grid": [1], "scheme": {"type": "random", "m": 1}, "methods": ["tkmia"],
            "attack": {"eta": 0.05},
            "out_csv": str(tmp_path / "r.csv"), "out_outcomes": str(tmp_path / "o.jsonl"),
        })
        dataset = harness.gen_synthetic(harness.SyntheticSpec(**spec))
        report_victim = tmp_path / "report_victim.jsonl"
        save_scorer(harness._resolve_victim(config, dataset), str(report_victim))
        data_path, trained = tmp_path / "data.jsonl", tmp_path / "trained.jsonl"
        harness.save_dataset(dataset, str(data_path))
        assert run_cli(["train", "--dataset", str(data_path), "--arch", "mlp",
                        "--hidden", "3", "--activation", "relu", "--epochs", "4",
                        "--seed", "2", "--out", str(trained)]) == 0
        assert trained.read_bytes() == report_victim.read_bytes()

    def test_attack_with_explicit_specified_set(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.jsonl"
        run_cli(["train", "--dataset", str(dataset_path), "--epochs", "40",
                 "--seed", "1", "--out", str(victim)])
        capsys.readouterr()
        data = read_jsonl(dataset_path)
        index, label = next((i, rec["y"].index(1)) for i, rec in enumerate(data)
                            if sum(rec["y"]) >= 3)
        code = run_cli(["attack", "--dataset", str(dataset_path),
                        "--victim", str(victim), "--index", str(index),
                        "--k", "2", "--specified", str(label),
                        "--method", "tkml_ap_u"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "tkml_ap_u"
        assert record["specified"] == [label]

    def test_attack_filter_violation_exits_one(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.jsonl"
        run_cli(["train", "--dataset", str(dataset_path), "--epochs", "5",
                 "--seed", "1", "--out", str(victim)])
        data = read_jsonl(dataset_path)
        index = next(i for i, rec in enumerate(data) if sum(rec["y"]) == 1)
        code = run_cli(["attack", "--dataset", str(dataset_path),
                        "--victim", str(victim), "--index", str(index),
                        "--k", "3", "--m", "1"])
        assert code == 1

    def test_attack_rejects_repeated_specified_label(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        data = read_jsonl(dataset_path)
        index = next(i for i, rec in enumerate(data) if rec["y"][0] and sum(rec["y"]) >= 3)
        code = run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                        "--index", str(index), "--k", "1", "--specified", "0,0"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: attack (tkmia, k=1) instance {index}: specified set [0, 0] repeats a label\n")

    @pytest.mark.parametrize("flags, message", [
        (["--m", "2", "--k", "1"], "random scheme requires m <= k"),
        (["--specified", "0,,1", "--k", "1"],
         "--specified: expected comma-separated class indices, got '0,,1'"),
        (["--m", "1", "--k", "1", "--eta", "nan"], "eta must be finite, got nan"),
        (["--m", "1", "--k", "1", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["--m", "1", "--k", "7"], "k=7 out of range [1, 6]"),
    ], ids=["m-above-k", "empty-specified-entry", "nan-eta", "inf-alpha", "k-above-c"])
    def test_attack_rejects_bad_selection_in_one_line(self, dataset_path, tmp_path, capsys,
                                                      flags, message):
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        data = read_jsonl(dataset_path)
        index = next(i for i, rec in enumerate(data) if sum(rec["y"]) >= 4)
        code = run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                        "--index", str(index), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_attack_rejects_x_outside_the_clip_domain(self, tmp_path, capsys):
        dataset = tmp_path / "wide.jsonl"
        harness.save_dataset([core.Instance(x=[0.5, 1.5], y=[1, 1, 0])], str(dataset))
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(2, 3, seed=1), str(victim))
        code = run_cli(["attack", "--dataset", str(dataset), "--victim", str(victim),
                        "--index", "0", "--k", "1", "--specified", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: attack (tkmia, k=1) instance 0: x lies outside the clip domain [-1.0, 1.0]\n")

    def test_attack_takes_the_clip_domain_flags(self, tmp_path, capsys):
        dataset = tmp_path / "wide.jsonl"
        harness.save_dataset([core.Instance(x=[0.5, 1.5], y=[1, 1, 0])], str(dataset))
        victim = tmp_path / "victim.jsonl"
        model = make_affine(2, 3, seed=1)
        save_scorer(model, str(victim))
        code = run_cli(["attack", "--dataset", str(dataset), "--victim", str(victim),
                        "--index", "0", "--k", "1", "--specified", "0", "--clip-hi", "2"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scores_before"] == model.score([0.5, 1.5]).tolist()
        x_adv = np.add([0.5, 1.5], record["epsilon"])
        assert np.all((x_adv >= -1.0) & (x_adv <= 2.0))

    def test_attack_rejects_victim_with_other_class_count(self, dataset_path, tmp_path,
                                                          capsys):
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(10, 7, seed=1), str(victim))
        capsys.readouterr()
        code = run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                        "--index", "0", "--k", "1", "--m", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: victim has in_dim=10, out_dim=7, but the dataset has d=10, c=6\n")

    @pytest.mark.parametrize("method", attack.METHODS)
    def test_attack_rejects_a_victim_of_other_sizes_as_a_report_does(self, dataset_path,
                                                                     tmp_path, capsys, method):
        """A victim whose in_dim or out_dim is not the dataset's d or c ends ``tkmia
        attack`` with the report's error, before any attack, and nothing is printed."""
        victim, config = tmp_path / "victim.jsonl", tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(dataset_path)}, "victim": {"path": str(victim)},
            "k_grid": [1], "scheme": {"type": "random", "m": 1}, "methods": [method],
            "attack": {"eta": 0.05}, "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"),
        }))
        for d, c in ((11, 6), (10, 7)):
            save_scorer(make_affine(d, c, seed=1), str(victim))
            message = f"error: victim has in_dim={d}, out_dim={c}, but the dataset has d=10, c=6\n"
            assert run_cli(["report", "--config", str(config)]) == 1
            assert capsys.readouterr() == ("", message)
            assert run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                            "--index", "0", "--k", "1", "--m", "1", "--method", method]) == 1
            assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("method", attack.METHODS)
    @pytest.mark.parametrize("index, k, specified, message", [
        (0, 1, "0", "x lies outside the clip domain [-1.0, 1.0]"),
        (1, 2, "0", "instance filter violated: |Yp|=2 < k+|S|=3"),
        (1, 1, "3", "specified set must be a subset of the relevant labels"),
        (1, 1, "0,0", "specified set [0, 0] repeats a label"),
    ], ids=["clip-domain", "filter", "not-a-subset", "repeated-label"])
    def test_attack_entry_errors_carry_the_report_prefix(self, tmp_path, capsys, method, index,
                                                         k, specified, message):
        """Each entry error of the attack loop names the cell and the instance, as a
        report names it."""
        dataset = tmp_path / "data.jsonl"
        harness.save_dataset([core.Instance(x=[0.5, 1.5], y=[1, 1, 1, 0]),
                              core.Instance(x=[0.1, -0.2], y=[1, 1, 0, 0])], str(dataset))
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(2, 4, seed=1), str(victim))
        code = run_cli(["attack", "--dataset", str(dataset), "--victim", str(victim),
                        "--index", str(index), "--k", str(k), "--specified", specified,
                        "--method", method])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: attack ({method}, k={k}) instance {index}: {message}\n")

    def test_attack_runs_on_a_raw_scorer(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "raw.jsonl"
        save_scorer(make_affine(10, 6, seed=1, sigmoid_output=False), str(victim))
        data = read_jsonl(dataset_path)
        index = next(i for i, rec in enumerate(data) if sum(rec["y"]) >= 3)
        for method in ("tkmia", "ml_cw_u", "tkml_ap_u"):
            assert run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                            "--index", str(index), "--k", "2", "--m", "1",
                            "--method", method]) == 0
            assert json.loads(capsys.readouterr().out)["method"] == method


class TestEmptyFeatures:
    """A dataset line with no features is named at load, before any training."""

    @pytest.fixture
    def dataset_path(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"x": [0.5], "y": [1, 0, 1]}\n{"x": [], "y": [0, 1, 1]}\n')
        return path

    def test_train_exits_one(self, dataset_path, tmp_path, capsys):
        assert run_cli(["train", "--dataset", str(dataset_path),
                        "--out", str(tmp_path / "v.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {dataset_path} line 2: x must be 1-D and non-empty\n")
        assert not (tmp_path / "v.jsonl").exists()

    def test_report_exits_one(self, dataset_path, tmp_path, capsys):
        config = {
            "dataset": {"path": str(dataset_path)},
            "victim": {"arch": "affine"},
            "k_grid": [1],
            "scheme": {"type": "random", "m": 1},
            "methods": ["tkmia"],
            "attack": {"eta": 0.05},
            "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["report", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dataset_path} line 2: x must be 1-D and non-empty\n")
        assert not (tmp_path / "report.csv").exists()


class TestEmptyLabels:
    def test_train_exits_one(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text('{"x": [0.5], "y": []}\n{"x": [0.2], "y": []}\n')
        assert run_cli(["train", "--dataset", str(path),
                        "--out", str(tmp_path / "v.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {path} line 1: y must be non-empty\n"
        assert not (tmp_path / "v.jsonl").exists()


class TestReportOnAnAllRelevantInstance:
    """Instance 2 of the dataset file has every label relevant."""

    LABELS = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]] * 4

    def report(self, tmp_path, methods, scheme, attack=None, labels=LABELS, **extra):
        rng = np.random.default_rng(2)
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps({"x": rng.uniform(-1, 1, 3).tolist(), "y": y}) + "\n"
                                for y in labels))
        config = {
            "dataset": {"path": str(data)},
            "victim": {"arch": "affine", "epochs": 20},
            "k_grid": [1],
            "scheme": scheme,
            "methods": methods,
            "attack": {"eta": 0.05, "max_iter": 30, **(attack or {})},
            "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"),
            **extra,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return run_cli(["report", "--config", str(path)])

    def attacked(self, tmp_path):
        """The attacked instance indices of each method, in record order."""
        by_method = {}
        for record in read_jsonl(tmp_path / "outcomes.jsonl"):
            by_method.setdefault(record["method"], []).append(record["instance"])
        return by_method

    def test_tkmia_and_tkml_ap_u_run(self, tmp_path, capsys):
        assert self.report(tmp_path, ["tkmia", "tkml_ap_u"], {"type": "random", "m": 1}) == 0
        attacked = self.attacked(tmp_path)
        assert 2 in attacked["tkmia"] and 2 in attacked["tkml_ap_u"]

    def test_ml_cw_u_drops_the_instance_for_every_method(self, tmp_path, capsys):
        # ml_cw_u's margin reads Yn, so no method attacks an instance without one.
        assert self.report(tmp_path, ["tkmia", "ml_cw_u"], {"type": "random", "m": 1}) == 0
        attacked = self.attacked(tmp_path)
        assert attacked["tkmia"] == attacked["ml_cw_u"]
        assert 1 in attacked["tkmia"] and 2 not in attacked["tkmia"]

    def test_failed_report_leaves_no_output_and_no_temp_file(self, tmp_path, capsys,
                                                             monkeypatch):
        # tkmia's records stream into the temp file before tkml_ap_u fails on instance 2.
        real = harness.run_baseline

        def fails_on_all_relevant(model, instance, specified, spec, *, clean_scores=None):
            if len(instance.relevant) == instance.n_classes:
                raise FloatingPointError("non-finite gradient at iteration 0")
            return real(model, instance, specified, spec, clean_scores=clean_scores)

        monkeypatch.setattr(harness, "run_baseline", fails_on_all_relevant)
        assert self.report(tmp_path, ["tkmia", "tkml_ap_u"], {"type": "random", "m": 1}) == 1
        assert capsys.readouterr().err == (
            "error: attack (tkml_ap_u, k=1) instance 2: non-finite gradient at iteration 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.jsonl"]

    def test_delta_threshold_above_s_drops_the_instance(self, tmp_path, capsys):
        # instance 0 has S = {0} under the categories {0, 2}; instance 2 has S = {0, 2}
        assert self.report(tmp_path, ["tkmia", "tkml_ap_u"],
                           {"type": "global", "categories": [0, 2]},
                           {"delta_threshold": 2}) == 0
        attacked = self.attacked(tmp_path)
        assert attacked["tkmia"] == attacked["tkml_ap_u"]
        assert 2 in attacked["tkmia"] and 0 not in attacked["tkmia"]

    def test_cap_applies_to_the_admitted_instances(self, tmp_path, capsys):
        # Instances 0 and 1 have every label relevant, and so has instance 4:
        # ml_cw_u cannot attack them, so the first three admitted are 2, 3 and 5.
        labels = [[1, 1, 1, 1]] * 2 + self.LABELS
        assert self.report(tmp_path, ["tkmia", "ml_cw_u"], {"type": "random", "m": 1},
                           labels=labels, max_instances=3) == 0
        assert self.attacked(tmp_path) == {"tkmia": [2, 3, 5], "ml_cw_u": [2, 3, 5]}
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in rows[1:]] == ["3", "3"]


def drop_shapes(lines):
    header = json.loads(lines[0])
    del header["shapes"]
    return [json.dumps(header)] + lines[1:]


def edit_header(**changes):
    return lambda lines: [json.dumps({**json.loads(lines[0]), **changes})] + lines[1:]


def layers(count, **changes):
    """An edit to ``count`` copies of the first layer, under a header that lists them."""
    def edit(lines):
        header = json.loads(lines[0])
        header.update(shapes=header["shapes"] * count, **changes)
        return [json.dumps(header)] + lines[1:2] * count
    return edit


def short_weight(lines):
    layer = json.loads(lines[1])
    layer["weight"] = layer["weight"][:-1]
    return [lines[0], json.dumps(layer)]


class TestMalformedScorer:
    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["[]"], "header: expected an object"),
        (drop_shapes, "header: missing key 'shapes'"),
        (short_weight, "layer 1: 23 weights do not fit shape [6, 4]"),
        (lambda lines: [lines[0], "[1]"],
         'layer 1: expected an object with "weight" and "bias"'),
        (lambda lines: lines[:1], "layer count does not match header"),
        (lambda lines: [], "empty scorer file"),
        # Each below once loaded a scorer that the file does not hold.
        (edit_header(sigmoid_output="false"),
         "header: sigmoid_output must be true or false, got 'false'"),
        (edit_header(arch="mlp"), "header: arch 'mlp' does not match the layer count 1"),
        (edit_header(activation="relu"), "affine scorer: activation must be 'tanh', got 'relu'"),
        (edit_header(activation="sigmoid"), "unknown activation 'sigmoid'"),
        (layers(3), "expected 1 (affine) or 2 (mlp) weight/bias layers"),
        (layers(2, arch="mlp"), "hidden dimensions do not chain"),
    ], ids=["list-header", "no-shapes", "short-weight", "list-layer", "no-layer", "empty",
            "string-sigmoid-output", "wrong-arch", "affine-activation", "unknown-activation",
            "three-layers", "unchained-layers"])
    def test_attack_rejects_file_in_one_line(self, tmp_path, capsys, edit, message):
        dataset = tmp_path / "data.jsonl"
        victim = tmp_path / "victim.jsonl"
        assert run_cli(["gen-data", "--n", "20", "--d", "4", "--c", "6",
                        "--mean-relevant", "3.0", "--out", str(dataset)]) == 0
        assert run_cli(["train", "--dataset", str(dataset), "--epochs", "1",
                        "--out", str(victim)]) == 0
        lines = edit(victim.read_text().splitlines())
        victim.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert run_cli(["attack", "--dataset", str(dataset), "--victim", str(victim),
                        "--index", "0", "--k", "1", "--m", "1"]) == 1
        assert capsys.readouterr().err == f"error: {victim}: {message}\n"


class ClassThreeInfinite(model.Scorer):
    """A scorer double whose own forward passes score class 3 at +inf; the
    clean scores, from ``_scores``, are the victim's."""

    def _vjp(self, x):
        scores, pullback = super()._vjp(x)
        scores[3] = np.inf
        return scores, pullback


class ClassThreeInfiniteAfterAStep(model.Scorer):
    """A scorer double whose forward passes score class 3 at +inf at any input but
    the first one that it scores."""

    def _vjp(self, x):
        scores, pullback = super()._vjp(x)
        if getattr(self, "stepped", False):
            scores[3] = np.inf
        self.stepped = True
        return scores, pullback


class TestNonFiniteScores:
    """A score is a finite vector: an attack or report that meets another fails in
    one line, writes nothing, and a report names the cell and the instance."""

    # Instance 0 has too few relevant labels for S = {0} and k = 1, so a report
    # attacks instances 1, 2 and 3 as its rows 0, 1 and 2.
    ROWS = [([0.0, 0.0], [1, 0, 0, 0]), ([0.1, 0.2], [1, 1, 0, 0]),
            ([0.8, -0.5], [1, 1, 0, 0]), ([-0.3, 0.1], [1, 1, 1, 0])]
    WEIGHTS = [[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2], [0.0, 0.0]]

    @pytest.fixture
    def files(self, tmp_path):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("".join(json.dumps({"x": x, "y": y}) + "\n" for x, y in self.ROWS))
        # Class 3's logit, 1.7e308 * x[0] + 1e308, overflows at instance 2 only.
        weights = self.WEIGHTS[:3] + [[1.7e308, 0.0]]
        overflow = tmp_path / "overflow.jsonl"
        save_scorer(model.Scorer([weights], [[0.0, 0.1, -0.1, 1e308]], sigmoid_output=False),
                    str(overflow))
        return dataset, overflow

    def report(self, tmp_path, dataset, victim):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(dataset)}, "victim": {"path": str(victim)}, "k_grid": [1],
            "scheme": {"type": "global", "categories": [0]}, "methods": ["tkmia"],
            "attack": {"eta": 0.05, "max_iter": 20},
            "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl")}))
        return run_cli(["report", "--config", str(config)])

    def test_attack_on_overflowing_logits_exits_one(self, files, capsys):
        # S = {0} is out of the top 1 at iteration 0, behind class 3's +inf: the
        # attack succeeds, and its scores have no JSON text. numpy's overflow
        # warning, an error under this suite's warning filter, is not raised.
        dataset, overflow = files
        code = run_cli(["attack", "--dataset", str(dataset), "--victim", str(overflow),
                        "--index", "2", "--k", "1", "--specified", "0"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: clean scores (k=1) instance 2: "
                                           "score vector contains non-finite entries\n")

    def test_attack_names_the_instance_of_non_finite_perturbed_scores(self, files, capsys,
                                                                       monkeypatch):
        # Instance 2's clean scores rank class 0 first, so the attack steps once;
        # at x + eps class 3 scores +inf and pushes S = {0} out of the top 1.
        dataset, _ = files
        victim = ClassThreeInfiniteAfterAStep([self.WEIGHTS], [[0.0, 0.1, -0.1, -1.0]],
                                              sigmoid_output=False)
        monkeypatch.setattr(cli, "load_scorer", lambda path: victim)
        code = run_cli(["attack", "--dataset", str(dataset), "--victim", "unread.jsonl",
                        "--index", "2", "--k", "1", "--specified", "0"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: attack (tkmia, k=1) instance 2: "
                                           "score vector contains non-finite entries\n")

    def test_overflow_error_is_the_only_stderr_line(self, files):
        # A process of its own, under numpy's and Python's default warning handling.
        dataset, overflow = files
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "tkmia.cli", "attack", "--dataset", str(dataset), "--victim",
             str(overflow), "--index", "2", "--k", "1", "--specified", "0"],
            env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: clean scores (k=1) instance 2: "
                   "score vector contains non-finite entries\n")

    def test_report_names_the_instance_of_a_non_finite_clean_row(self, files, tmp_path,
                                                                  capsys):
        dataset, overflow = files
        code = self.report(tmp_path, dataset, overflow)
        assert code == 1
        assert capsys.readouterr().err == ("error: clean scores (k=1) instance 2: "
                                           "score vector contains non-finite entries\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "data.jsonl", "overflow.jsonl"]

    def test_report_names_the_instance_of_a_non_finite_perturbed_row(self, files, tmp_path,
                                                                      capsys, monkeypatch):
        # Clean, instance 1 ranks class 1 first and instance 2 class 0: instance 1's
        # attack ends at iteration 0 on its clean row, instance 2's runs on.
        dataset, _ = files
        victim = ClassThreeInfinite([self.WEIGHTS], [[0.0, 0.1, -0.1, -1.0]],
                                    sigmoid_output=False)
        # The report gets the double in place of the victim file, which it never reads.
        monkeypatch.setattr(harness, "_resolve_victim", lambda config, data: victim)
        assert self.report(tmp_path, dataset, tmp_path / "unread.jsonl") == 1
        assert capsys.readouterr().err == ("error: attack (tkmia, k=1) instance 2: "
                                           "score vector contains non-finite entries\n")
        assert not (tmp_path / "outcomes.jsonl").exists()


class TestReport:
    def test_missing_config_exits_one_no_partial_csv(self, tmp_path, capsys):
        assert run_cli(["report", "--config", str(tmp_path / "nope.json")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_small_report_runs(self, tmp_path, capsys):
        config = {
            "seed": 5,
            "dataset": {"n": 120, "d": 8, "c": 6, "mean_relevant": 2.5,
                        "label_correlation": 0.3, "seed": 5},
            "victim": {"arch": "affine", "epochs": 40},
            "k_grid": [2],
            "scheme": {"type": "random", "m": 1},
            "methods": ["tkmia", "tkml_ap_u"],
            "attack": {"eta": 0.05, "alpha": 1e-4, "max_iter": 50},
            "max_instances": 15,
            "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["report", "--config", str(path)]) == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "outcomes.jsonl").exists()


    def test_instance_outside_the_clip_domain_exits_one(self, tmp_path, capsys):
        # Synthetic features fill (-1, 1), so some lie outside [-0.2, 0.2].
        dataset = {"n": 300, "d": 8, "c": 6, "mean_relevant": 3.0, "seed": 1}
        config = {
            "dataset": dataset, "victim": {"arch": "affine", "epochs": 20}, "k_grid": [2],
            "scheme": {"type": "global", "categories": [0]}, "methods": ["tkmia"],
            "attack": {"eta": 0.05, "max_iter": 50, "clip_lo": -0.2, "clip_hi": 0.2},
            "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        first = next(i for i, inst in enumerate(harness.gen_synthetic(
            harness.SyntheticSpec(**dataset))) if 0 in inst.relevant and len(inst.relevant) >= 3)
        assert run_cli(["report", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: attack (tkmia, k=2) instance {first}: "
                                           "x lies outside the clip domain [-0.2, 0.2]\n")
        assert list(tmp_path.iterdir()) == [path]


def off_by(fn, nudge):
    """``fn`` with ``nudge`` applied to its result."""
    return lambda *args: nudge(fn(*args))


class TestCheck:
    # At seed 7 a gradient suite that drew points near hinge kinks failed: a
    # central difference on the MLP victim straddled one.
    def test_check_passes_on_fresh_build(self, capsys):
        assert run_cli(["check", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.endswith("5/5 suites passed\n")

    @pytest.mark.parametrize("module, name, nudge, suite", [
        (core, "variational_top_k_sum", lambda value: value + 1e-10, "variational-top-k"),
        (core, "hinge", lambda value: value * (1.0 + 1e-9), "hinge-identity"),
        (attack, "_tkmia_terms", lambda terms: (terms[0], terms[1] + 1e-3, terms[2]),
         "objective-gradients"),
        (attack, "_hinge_cot", lambda cot: None if cot is None else 1.01 * cot,
         "objective-gradients"),
        (metrics, "_measure_rows",
         lambda rows: {**rows, "ndcg_at_k": rows["ndcg_at_k"] + 1e-10}, "metric-oracles"),
        (model.Scorer, "input_gradient", lambda grad: grad + 1e-3, "model-gradients"),
    ], ids=["variational", "hinge", "tkmia-terms", "baseline-hinge", "measure-rows",
            "input-gradient"])
    def test_check_fails_on_a_slightly_wrong_library(self, capsys, monkeypatch, module, name,
                                                     nudge, suite):
        monkeypatch.setattr(module, name, off_by(getattr(module, name), nudge))
        assert run_cli(["check"]) == 1
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == [suite]
        assert out.endswith("4/5 suites passed\n")

    def test_no_kink_free_point_is_one_line_error(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "_KINK_MARGIN", 10.0)
        assert run_cli(["check", "--seed", "3"]) == 1
        assert capsys.readouterr().err == ("error: objective-gradients: no point 10 from every "
                                           "hinge kink in 1000 draws at seed 3\n")

    @pytest.mark.parametrize("command", [
        ["gen-data", "--n", "10", "--d", "4", "--c", "5", "--mean-relevant", "2.0",
         "--out", "x.jsonl"],
        ["train", "--dataset", "missing.jsonl", "--out", "v.jsonl"],
        ["attack", "--dataset", "missing.jsonl", "--victim", "missing.jsonl", "--index", "0",
         "--k", "1", "--m", "1"],
        ["check"],
    ], ids=["gen-data", "train", "attack", "check"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["gen-data", "--frobnicate", "1"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            run_cli([])
        assert info.value.code == 2
