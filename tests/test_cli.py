import json

import pytest

from tkmia.cli import main
from tkmia.model import make_affine, save_scorer


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
        capsys.readouterr()

        data = [json.loads(line) for line in dataset_path.read_text().splitlines()]
        index = next(i for i, rec in enumerate(data) if sum(rec["y"]) >= 3)
        code = run_cli(["attack", "--dataset", str(dataset_path),
                        "--victim", str(victim), "--index", str(index),
                        "--k", "2", "--m", "1", "--seed", "3"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "tkmia"
        assert set(record) >= {"success", "epsilon", "iterations_used", "residual"}

    def test_attack_with_explicit_specified_set(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.jsonl"
        run_cli(["train", "--dataset", str(dataset_path), "--epochs", "40",
                 "--seed", "1", "--out", str(victim)])
        capsys.readouterr()
        data = [json.loads(line) for line in dataset_path.read_text().splitlines()]
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
        data = [json.loads(line) for line in dataset_path.read_text().splitlines()]
        index = next(i for i, rec in enumerate(data) if sum(rec["y"]) == 1)
        code = run_cli(["attack", "--dataset", str(dataset_path),
                        "--victim", str(victim), "--index", str(index),
                        "--k", "3", "--m", "1"])
        assert code == 1

    def test_attack_rejects_repeated_specified_label(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        data = [json.loads(line) for line in dataset_path.read_text().splitlines()]
        index = next(i for i, rec in enumerate(data) if rec["y"][0] and sum(rec["y"]) >= 3)
        code = run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                        "--index", str(index), "--k", "1", "--specified", "0,0"])
        assert code == 1
        assert capsys.readouterr().err == "error: specified set [0, 0] repeats a label\n"

    def test_attack_rejects_victim_with_other_class_count(self, dataset_path, tmp_path,
                                                          capsys):
        victim = tmp_path / "victim.jsonl"
        save_scorer(make_affine(10, 7, seed=1), str(victim))
        capsys.readouterr()
        code = run_cli(["attack", "--dataset", str(dataset_path), "--victim", str(victim),
                        "--index", "0", "--k", "1", "--m", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: instance has 6 classes, but the victim scores 7\n")


def drop_shapes(lines):
    header = json.loads(lines[0])
    del header["shapes"]
    return [json.dumps(header)] + lines[1:]


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
    ], ids=["list-header", "no-shapes", "short-weight", "list-layer", "no-layer", "empty"])
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


class TestCheck:
    def test_check_passes_on_fresh_build(self, capsys):
        assert run_cli(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestUsage:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["gen-data", "--frobnicate", "1"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            run_cli([])
        assert info.value.code == 2
