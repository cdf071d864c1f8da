import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tkmia import attack, checks, core, harness, metrics, model
from tkmia.cli import main
from tkmia.model import make_affine, save_scorer

from support import attack as library_attack
from support import BAD_DATASET_FILES, BAD_SCORER_FILES, dumped, read_jsonl


def run_cli(argv):
    return main(argv)


def write_config(path, **fields):
    """Write the config ``fields`` as JSON to ``path``, and return ``path``."""
    path.write_text(json.dumps(fields))
    return path


def run_command(command, config, index=None, out=None):
    """``tkmia report`` on the config file, ``tkmia attack`` on its instance ``index``,
    or ``tkmia gen-data`` or ``tkmia train`` writing ``out``."""
    if command == "report":
        return run_cli(["report", "--config", str(config)])
    if command == "attack":
        return run_cli(["attack", "--config", str(config), "--index", str(index)])
    return run_cli([command, "--config", str(config), "--out", str(out)])


# The two commands that run a config's cells, whose errors are the same lines.
COMMANDS = pytest.mark.parametrize("command", ["report", "attack"])
# The two commands that write a config's dataset or victim.
EXPORTS = pytest.mark.parametrize("command", ["gen-data", "train"])


def base_config(tmp_path, **fields):
    """A small config's fields, updated by ``fields``: its dataset and victim blocks are
    left to the caller, and its report files are under ``tmp_path``."""
    return {"k_grid": [1], "scheme": {"type": "random", "m": 1}, "methods": ["tkmia"],
            "attack": {"eta": 0.05}, "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"), **fields}


class TestGenData:
    def gen_data(self, tmp_path, out, **dataset):
        """``tkmia gen-data`` on a config of the inline ``dataset`` block."""
        config = write_config(tmp_path / "config.json",
                              **base_config(tmp_path, dataset=dataset, victim={}))
        return run_command("gen-data", config, out=out)

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        spec = {"n": 40, "d": 6, "c": 5, "mean_relevant": 2.0, "seed": 7}
        assert self.gen_data(tmp_path, a, **spec) == 0
        assert self.gen_data(tmp_path, b, **spec) == 0
        assert capsys.readouterr().out == f"wrote 40 instances to {a}\nwrote 40 instances to {b}\n"
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        code = self.gen_data(tmp_path, tmp_path / "x.npz", n=10, d=4, c=5, mean_relevant=9.0)
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: dataset: mean_relevant must lie strictly between 0 and c\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_correlation_one_rejected_in_one_line(self, tmp_path, capsys):
        code = self.gen_data(tmp_path, tmp_path / "x.npz", n=1, d=2, c=3, mean_relevant=1.0,
                             label_correlation=1)
        assert code == 1
        assert capsys.readouterr().err == "error: dataset: label_correlation must lie in [0, 1)\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @EXPORTS
    def test_missing_out_directory_rejected_before_set_up(self, tmp_path, capsys, command):
        # The config is missing too: the directory check must come first.
        code = run_command(command, tmp_path / "config.json", out=tmp_path / "nodir" / "x.npz")
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: --out: directory {tmp_path / 'nodir'} does not exist\n")
        assert list(tmp_path.iterdir()) == []


class TestOutputPaths:
    """An output path that is a directory, or a file that the config reads, is
    rejected in one line before any work, and nothing is written."""

    DATASET = {"n": 40, "d": 4, "c": 5, "mean_relevant": 2.0, "seed": 1}

    @pytest.mark.parametrize("command, key", [("gen-data", "--out"), ("train", "--out"),
                                              ("report", "out_csv"), ("report", "out_outcomes")])
    def test_a_directory_is_rejected_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command, key):
        monkeypatch.setattr(harness, "gen_synthetic", None)  # any set-up would fail
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        fields = base_config(tmp_path, dataset=self.DATASET, victim={"epochs": 1})
        if key != "--out":
            fields[key] = str(outdir)
        config = write_config(tmp_path / "config.json", **fields)
        assert run_command(command, config, out=outdir) == 1
        assert capsys.readouterr() == ("", f"error: {key}: {outdir} is a directory\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "outdir"]

    @pytest.mark.parametrize("command, key, source", [
        ("report", "out_outcomes", "dataset"), ("report", "out_csv", "victim"),
        ("report", "out_csv", "dataset"), ("report", "out_outcomes", "victim"),
        ("train", "--out", "dataset"), ("gen-data", "--out", "victim")])
    def test_an_input_file_is_rejected_before_any_work(self, tmp_path, capsys, command, key,
                                                       source):
        files = {"dataset": tmp_path / "data.npz", "victim": tmp_path / "victim.npz"}
        harness.save_dataset(harness.gen_synthetic(harness.SyntheticSpec(**self.DATASET)),
                             str(files["dataset"]))
        save_scorer(make_affine(4, 5, seed=1), str(files["victim"]))
        before = {name: path.read_bytes() for name, path in files.items()}
        target = f"{tmp_path}/./{files[source].name}"  # the same file by another name
        fields = base_config(tmp_path, dataset={"path": str(files["dataset"])},
                             victim={"path": str(files["victim"])})
        if key != "--out":
            fields[key] = target
        config = write_config(tmp_path / "config.json", **fields)
        assert run_command(command, config, out=target) == 1
        assert capsys.readouterr() == ("", f"error: {key}: same file as {source}.path\n")
        assert {name: path.read_bytes() for name, path in files.items()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "data.npz", "victim.npz"]


def error_of(read, value):
    """The message of the error that ``read(value)`` raises."""
    with pytest.raises((ValueError, RecursionError)) as info:
        read(value)
    return str(info.value)


# The errors that a JSON text nested past the recursion limit and a byte that is not
# UTF-8 give on this interpreter.
RECURSION = error_of(json.loads, "[" * 100_000)
UNDECODABLE = error_of(bytes.decode, b"\xff")


class TestTrainAndAttack:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        path = tmp_path / "data.npz"
        harness.save_dataset(harness.gen_synthetic(harness.SyntheticSpec(
            n=150, d=10, c=6, mean_relevant=3.0, seed=1)), str(path))
        return path

    def config(self, tmp_path, dataset_path, victim, **fields):
        """A report config on the dataset file and the victim, a file path or an
        inline block; ``fields`` replace its keys."""
        if not isinstance(victim, dict):
            victim = {"path": str(victim)}
        return write_config(tmp_path / "config.json", **{
            "seed": 3, "dataset": {"path": str(dataset_path)}, "victim": victim,
            "k_grid": [2], "scheme": {"type": "random", "m": 1}, "methods": list(attack.METHODS),
            "attack": {"eta": 0.05, "alpha": 1e-4}, "max_instances": 8,
            "out_csv": str(tmp_path / "report.csv"),
            "out_outcomes": str(tmp_path / "outcomes.jsonl"), **fields})

    def train(self, tmp_path, dataset_path, victim, out):
        """``tkmia train`` on a config of the dataset file and the inline ``victim``."""
        return run_command("train", self.config(tmp_path, dataset_path, victim), out=out)

    def test_train_then_attack_prints_outcome_json(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "victim.npz"
        assert self.train(tmp_path, dataset_path, {"epochs": 40, "seed": 1}, victim) == 0
        assert capsys.readouterr().out == f"wrote affine scorer to {victim}\n"
        # keys left out take train_victim's defaults
        expected = tmp_path / "expected.npz"
        save_scorer(harness.train_victim(harness.load_dataset(str(dataset_path)), epochs=40,
                                         seed=1), str(expected))
        assert victim.read_bytes() == expected.read_bytes()

        relevant = harness.load_dataset(str(dataset_path)).Y.sum(axis=1)
        index = next(i for i, count in enumerate(relevant) if 3 <= count < 6)
        config = self.config(tmp_path, dataset_path, victim)
        assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [record["method"] for record in records] == list(attack.METHODS)
        for record in records:
            assert set(record) >= {"success", "epsilon", "iterations_used", "residual",
                                   "instance", "k", "clean_metrics", "perturbed_metrics"}

    def test_empty_victim_block_fits_the_report_victim(self, dataset_path, tmp_path, capsys):
        """An empty victim block takes VictimSpec's defaults, epochs included, and the
        config's seed 3, as the victim of a report on that config does."""
        victim, expected = tmp_path / "victim.npz", tmp_path / "expected.npz"
        assert self.train(tmp_path, dataset_path, {}, victim) == 0
        save_scorer(harness.train_victim(harness.load_dataset(str(dataset_path)), seed=3),
                    str(expected))
        assert victim.read_bytes() == expected.read_bytes()

    def test_attack_prints_the_outcome_record_dumped(self, dataset_path, tmp_path, capsys):
        """Each printed line is the record of the library's attack dumped with the
        instance, k and the measures of its clean and perturbed scores."""
        victim = tmp_path / "victim.npz"
        assert self.train(tmp_path, dataset_path, {"epochs": 20}, victim) == 0
        capsys.readouterr()
        data, scorer = harness.load_dataset(str(dataset_path)), model.load_scorer(str(victim))
        # The first instance that the cell admits under the categories {0}.
        index = next(i for i, inst in enumerate(data)
                     if 0 in inst.relevant and 3 <= len(inst.relevant) < 6)
        config = self.config(tmp_path, dataset_path, victim,
                             scheme={"type": "global", "categories": [0]})
        assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 0
        expected = ""
        for method in attack.METHODS:
            outcome = library_attack(method, scorer, data[index], (0,),
                                     attack.AttackConfig(k=2, eta=0.05, alpha=1e-4))
            clean, perturbed = (metrics.evaluate_instance(scores, data[index].y, 2)
                                for scores in (outcome.scores_before, outcome.scores_after))
            expected += dumped(outcome, index, 2, clean, perturbed)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("case", ["outside", "negative", "filtered", "past-cap"])
    def test_index_in_no_cell_exits_one(self, dataset_path, tmp_path, capsys, case):
        """An index that no cell of the report attacks prints nothing and one line."""
        victim = tmp_path / "victim.npz"
        save_scorer(make_affine(10, 6), str(victim))
        config = self.config(tmp_path, dataset_path, victim)
        data = harness.load_dataset(str(dataset_path))
        # The cell's selection under a cap of 9: its ninth instance is past the cap of 8.
        uncapped = dataclasses.replace(harness.ExperimentConfig.from_json(str(config)),
                                       max_instances=9)
        index = {"outside": 150, "negative": -1,
                 "filtered": next(i for i, inst in enumerate(data) if len(inst.relevant) < 3),
                 "past-cap": harness._cell_selection(uncapped, data, 2)[8][0]}[case]
        assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 1
        assert capsys.readouterr() == (
            "", f"error: --index: instance {index} is in no cell of the report\n")

    @pytest.mark.parametrize("victim, fields", [
        ({"arch": "affine", "epochs": 20},
         {"k_grid": [2, 3], "scheme": {"type": "global", "categories": [0, 1]}}),
        ({"arch": "mlp", "hidden": 4, "epochs": 20},
         {"k_grid": [1, 2], "attack_overrides": {"ml_cw_u": {"max_iter": 40, "eta": 0.02}}}),
    ], ids=["global-affine", "random-mlp-overrides"])
    def test_attack_prints_the_report_lines_of_its_instance(self, dataset_path, tmp_path,
                                                             capsys, victim, fields):
        """``tkmia attack`` prints the lines of the report's outcome file for its
        instance, byte for byte, at the first and last instance of each cell, and
        writes no report file."""
        config = self.config(tmp_path, dataset_path, victim, **fields)
        assert run_cli(["report", "--config", str(config)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "outcomes.jsonl").read_text().splitlines(keepends=True)
        for path in (tmp_path / "report.csv", tmp_path / "outcomes.jsonl"):
            path.unlink()
        cells = {}
        for line in lines:
            record = json.loads(line)
            cells.setdefault(record["k"], []).append(record["instance"])
        assert sorted(cells) == fields["k_grid"]
        for instances in cells.values():
            for index in (instances[0], instances[-1]):
                assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 0
                assert capsys.readouterr().out == "".join(
                    line for line in lines if json.loads(line)["instance"] == index)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.npz"]

    def attack_and_report_lines(self, config, index, capsys):
        """``tkmia attack``'s stdout on ``index``, and the report's outcome lines."""
        assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert run_cli(["report", "--config", str(config)]) == 0
        capsys.readouterr()
        path = harness.ExperimentConfig.from_json(str(config)).out_outcomes
        return out, Path(path).read_text().splitlines(keepends=True)

    def test_attack_prints_only_the_cells_that_hold_its_instance(self, dataset_path, tmp_path,
                                                                 capsys):
        """An instance with three relevant labels is in the k=2 cell of an m=1 report
        but fails the filter |Yp| >= k + |S| at k=3: only its k=2 lines are printed."""
        victim = tmp_path / "victim.npz"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        config = self.config(tmp_path, dataset_path, victim, k_grid=[2, 3], max_instances=150)
        data = harness.load_dataset(str(dataset_path))
        index = next(i for i, inst in enumerate(data) if len(inst.relevant) == 3)
        out, lines = self.attack_and_report_lines(config, index, capsys)
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["k"], r["method"]) for r in records] == [(2, m) for m in attack.METHODS]
        assert out == "".join(line for line in lines if json.loads(line)["instance"] == index)

    def test_attack_prints_its_lines_in_the_order_of_the_report_file(self, dataset_path,
                                                                      tmp_path, capsys):
        """The lines follow the config's k grid and methods, not their sorted order."""
        victim = tmp_path / "victim.npz"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        methods = list(reversed(attack.METHODS))
        config = self.config(tmp_path, dataset_path, victim, k_grid=[3, 2], methods=methods,
                             scheme={"type": "global", "categories": [0]})
        index = harness._cell_selection(harness.ExperimentConfig.from_json(str(config)),
                                        harness.load_dataset(str(dataset_path)), 3)[0][0]
        out, lines = self.attack_and_report_lines(config, index, capsys)
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["k"], r["method"]) for r in records] == [
            (k, m) for k in (3, 2) for m in methods]
        assert out == "".join(line for line in lines if json.loads(line)["instance"] == index)

    def test_attack_needs_no_output_directory(self, dataset_path, tmp_path, capsys):
        """``tkmia attack`` writes no file, so a config whose output directories are
        missing runs, where a report on it exits 1 before any work."""
        victim = tmp_path / "victim.npz"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        nodir = tmp_path / "nodir"
        config = self.config(tmp_path, dataset_path, victim,
                             out_csv=str(nodir / "report.csv"),
                             out_outcomes=str(nodir / "outcomes.jsonl"))
        index = harness._cell_selection(harness.ExperimentConfig.from_json(str(config)),
                                        harness.load_dataset(str(dataset_path)), 2)[0][0]
        assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert [json.loads(line)["method"] for line in out.splitlines()] == list(attack.METHODS)
        assert run_cli(["report", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"error: out_csv: directory {nodir} does not exist\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "data.npz", "victim.npz"]

    # Integers beyond int64 in a float field, which numpy takes only as floats: 10**30 runs,
    # and 10**400, which no float holds, is not finite.
    HUGE = {"eta1e30": {"attack": {"eta": 10**30}}, "eta-1e30": {"attack": {"eta": -10**30}},
            "eta1e400": {"attack": {"eta": 10**400}},
            "lr1e30": {"victim": {"learning_rate": 10**30}},
            "lr-1e30": {"victim": {"learning_rate": -10**30}},
            "lr1e400": {"victim": {"learning_rate": 10**400}}}

    # Config files that json cannot read: arrays nested past the recursion limit, and a
    # byte that is not UTF-8.
    UNREADABLE = {"deep": (b"[" * 100_000, RECURSION), "not-utf-8": (b"\xff{}", UNDECODABLE)}

    @pytest.mark.parametrize("command", ["report", "attack", "gen-data", "train"])
    @pytest.mark.parametrize("case", ["missing-file", "negative-seed", "k-above-c", "nan-eta",
                                      *HUGE, *UNREADABLE])
    def test_malformed_config_rejected_in_one_line(self, dataset_path, tmp_path, capsys,
                                                   command, case):
        """A config that a report rejects, ``tkmia attack``, ``gen-data`` and ``train``
        reject with the same line, printing and writing nothing. A number in a float
        field is checked as the float it denotes: 10**30 runs in every command."""
        victim = tmp_path / "victim.npz"
        save_scorer(make_affine(10, 6, seed=1), str(victim))
        fields = dict({"negative-seed": {"seed": -1}, "k-above-c": {"k_grid": [6]},
                       # json.dumps writes NaN, and json.load reads it.
                       "nan-eta": {"attack": {"eta": float("nan")}}, **self.HUGE}.get(case, {}))
        config = self.config(tmp_path, dataset_path, fields.pop("victim", victim), **fields)
        if case == "missing-file":
            config.unlink()
        elif case in self.UNREADABLE:
            config.write_bytes(self.UNREADABLE[case][0])
        message = {"missing-file": f"[Errno 2] No such file or directory: '{config}'",
                   "negative-seed": "seed must be non-negative, got -1",
                   "k-above-c": "k_grid: k=6 must be smaller than c=6",
                   "nan-eta": "attack (tkmia, k=2): eta must be finite, got nan",
                   "eta-1e30": "attack (tkmia, k=2): eta must be positive",
                   "eta1e400": f"attack (tkmia, k=2): eta must be finite, got {10**400}",
                   "lr-1e30": "victim: learning rate must be positive",
                   "lr1e400": f"victim: learning rate must be finite, got {10**400}",
                   **{name: f"{config}: {error}" for name, (_, error) in self.UNREADABLE.items()},
                   }.get(case)
        out = tmp_path / "out.npz"
        if message is None:
            assert run_command(command, config, 0, out) == 0
            assert capsys.readouterr().err == ""
            return
        assert run_command(command, config, 0, out) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["data.npz", "victim.npz"] + ([] if case == "missing-file" else ["config.json"]))

    def test_train_rejects_mlp_without_hidden_units(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "v.npz"
        assert self.train(tmp_path, dataset_path, {"arch": "mlp", "hidden": 0}, out) == 1
        assert capsys.readouterr().err == "error: victim: hidden size must be >= 1, got 0\n"
        assert not out.exists()

    def test_train_accepts_every_activation(self, dataset_path, tmp_path, capsys):
        from tkmia.model import ACTIVATIONS, load_scorer

        for activation in ACTIVATIONS:
            out = tmp_path / f"{activation}.npz"
            victim = {"arch": "mlp", "hidden": 4, "activation": activation, "epochs": 2}
            assert self.train(tmp_path, dataset_path, victim, out) == 0
            assert load_scorer(str(out)).activation == activation

    @pytest.mark.parametrize("victim, key", [
        ({"hidden": 7, "activation": "relu"}, "hidden"),
        ({"activation": "relu"}, "activation"),
        ({"arch": "affine", "hidden": 7}, "hidden"),
    ], ids=["default-arch-both", "default-arch-activation", "affine-hidden"])
    def test_train_rejects_mlp_flags_on_an_affine_victim(self, dataset_path, tmp_path, capsys,
                                                         victim, key):
        """hidden and activation shape an MLP only, as in a report's victim block."""
        out = tmp_path / "v.npz"
        assert self.train(tmp_path, dataset_path, victim, out) == 1
        assert capsys.readouterr().err == f"error: victim: unknown key {key!r}\n"
        assert not out.exists()

    def test_attack_takes_the_clip_domain_of_the_config(self, tmp_path, capsys):
        dataset = tmp_path / "data.npz"
        harness.save_dataset([core.Instance(x=[0.5, 1.5], y=[1, 1, 0])], str(dataset))
        victim = tmp_path / "victim.npz"
        model = make_affine(2, 3, seed=1)
        save_scorer(model, str(victim))
        config = self.config(tmp_path, dataset, victim, k_grid=[1], methods=["tkmia"],
                             scheme={"type": "global", "categories": [0]},
                             attack={"eta": 0.05, "alpha": 1e-4, "clip_hi": 2.0})
        assert run_cli(["attack", "--config", str(config), "--index", "0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scores_before"] == model.score([0.5, 1.5]).tolist()
        x_adv = np.add([0.5, 1.5], record["epsilon"])
        assert np.all((x_adv >= -1.0) & (x_adv <= 2.0))

    @pytest.mark.parametrize("command", ["report", "attack", "train"])
    def test_victim_of_other_sizes_rejected_in_one_line(self, dataset_path, tmp_path, capsys,
                                                        command):
        """A victim whose in_dim or out_dim is not the dataset's d or c ends the run
        before any attack, and nothing is printed or written: ``train`` writes no
        victim that a report on its config would refuse."""
        victim = tmp_path / "victim.npz"
        config = self.config(tmp_path, dataset_path, victim)
        index = harness._cell_selection(harness.ExperimentConfig.from_json(str(config)),
                                        harness.load_dataset(str(dataset_path)), 2)[0][0]
        for d, c in ((11, 6), (10, 7)):
            save_scorer(make_affine(d, c, seed=1), str(victim))
            message = f"error: victim has in_dim={d}, out_dim={c}, but the dataset has d=10, c=6\n"
            assert run_command(command, config, index, out=tmp_path / "out.npz") == 1
            assert capsys.readouterr() == ("", message)
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "config.json", "data.npz", "victim.npz"]

    def test_attack_runs_on_a_raw_scorer(self, dataset_path, tmp_path, capsys):
        victim = tmp_path / "raw.npz"
        save_scorer(make_affine(10, 6, seed=1, sigmoid_output=False), str(victim))
        relevant = harness.load_dataset(str(dataset_path)).Y.sum(axis=1)
        index = next(i for i, count in enumerate(relevant) if 3 <= count < 6)
        config = self.config(tmp_path, dataset_path, victim)
        assert run_cli(["attack", "--config", str(config), "--index", str(index)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [record["method"] for record in records] == list(attack.METHODS)


class TestRoundTrip:
    """``gen-data`` and ``train`` write the dataset and the victim that a report on
    their config attacks."""

    def report(self, tmp_path, name, **fields):
        """The CSV and outcome bytes of a report on ``fields``, its config ``name``."""
        config = write_config(tmp_path / name, **fields)
        assert run_cli(["report", "--config", str(config)]) == 0
        return [Path(fields[key]).read_bytes() for key in ("out_csv", "out_outcomes")]

    @pytest.mark.parametrize("sigmoid_output", [True, False], ids=["sigmoid", "logit"])
    @pytest.mark.parametrize("victim", [
        {"arch": "affine", "epochs": 20},
        {"arch": "mlp", "hidden": 4, "activation": "relu", "epochs": 20},
    ], ids=["affine", "mlp"])
    def test_report_on_the_written_files_is_the_inline_report(self, tmp_path, capsys,
                                                               monkeypatch, victim,
                                                               sigmoid_output):
        if not sigmoid_output:
            fit = harness.train_victim

            def fit_logits(*args, **kwargs):
                # An inline victim is fitted with sigmoid outputs; this one scores its logits.
                fitted = fit(*args, **kwargs)
                return model.Scorer(fitted.weights, fitted.biases, fitted.activation,
                                    sigmoid_output=False)

            monkeypatch.setattr(harness, "train_victim", fit_logits)
        # The victim block sets no seed: it fits at the config's seed 3.
        inline = base_config(
            tmp_path, seed=3, k_grid=[2], methods=list(attack.METHODS), max_instances=10,
            dataset={"n": 120, "d": 8, "c": 6, "mean_relevant": 2.5, "seed": 5},
            victim=victim, attack={"eta": 0.05, "alpha": 1e-4, "max_iter": 50})
        expected = self.report(tmp_path, "inline.json", **inline)
        data, scorer = tmp_path / "data.npz", tmp_path / "victim.npz"
        assert run_command("gen-data", tmp_path / "inline.json", out=data) == 0
        assert run_command("train", tmp_path / "inline.json", out=scorer) == 0
        assert model.load_scorer(str(scorer)).sigmoid_output is sigmoid_output
        paths = {**inline, "dataset": {"path": str(data)}, "victim": {"path": str(scorer)}}
        assert self.report(tmp_path, "paths.json", **paths) == expected
        # From the inline config again, and from the config of path blocks, the two
        # commands write the same bytes.
        for config in ("inline.json", "paths.json"):
            for command, written in (("gen-data", data), ("train", scorer)):
                again = tmp_path / f"again-{written.name}"
                assert run_command(command, tmp_path / config, out=again) == 0
                assert again.read_bytes() == written.read_bytes()


class TestFileModes:
    """Every file that a command writes takes the mode that the umask gives a new
    file, as ``open(path, "w")`` would."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_outputs_follow_the_umask(self, tmp_path, capsys, umask, mode):
        config = write_config(tmp_path / "config.json", **base_config(
            tmp_path, dataset={"n": 20, "d": 2, "c": 3, "mean_relevant": 1.5},
            victim={"epochs": 1}))
        previous = os.umask(umask)
        try:
            assert run_command("gen-data", config, out=tmp_path / "data.npz") == 0
            assert run_command("train", config, out=tmp_path / "victim.npz") == 0
            assert run_command("report", config) == 0
        finally:
            os.umask(previous)
        written = ["data.npz", "outcomes.jsonl", "report.csv", "victim.npz"]
        assert {name: stat.S_IMODE((tmp_path / name).stat().st_mode)
                for name in written} == dict.fromkeys(written, mode)


class TestBadDatasetFile:
    """Every command that reads a dataset file rejects a bad one in one line that
    names it, and writes nothing."""

    @pytest.mark.parametrize("command", ["report", "attack", "gen-data", "train"])
    @pytest.mark.parametrize("case", BAD_DATASET_FILES)
    def test_rejected_in_one_line(self, tmp_path, capsys, command, case):
        content, message = BAD_DATASET_FILES[case]
        path = tmp_path / "data.npz"
        path.write_bytes(content)
        config = write_config(tmp_path / "config.json", **base_config(
            tmp_path, dataset={"path": str(path)}, victim={}))
        assert run_command(command, config, 0, tmp_path / "out.npz") == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.npz"]


class TestReportOnAnAllRelevantInstance:
    """Instance 2 of the dataset file has every label relevant."""

    LABELS = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]] * 4

    def report(self, tmp_path, methods, scheme, attack=None, labels=LABELS, command="report",
               index=None, **extra):
        rng = np.random.default_rng(2)
        data = tmp_path / "data.npz"
        harness.save_dataset([core.Instance(x=rng.uniform(-1, 1, 3), y=y) for y in labels],
                             str(data))
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
        return run_command(command, path, index)

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

    @COMMANDS
    def test_failed_report_leaves_no_output_and_no_temp_file(self, tmp_path, capsys,
                                                             monkeypatch, command):
        # tkmia's records stream into the temp file, or attack's tkmia line is made,
        # before tkml_ap_u's later cell fails on instance 2.
        real = harness.run_baseline

        def fails_on_all_relevant(model, instance, specified, spec):
            if len(instance.relevant) == instance.n_classes:
                raise FloatingPointError("non-finite gradient at iteration 0")
            return real(model, instance, specified, spec)

        monkeypatch.setattr(harness, "run_baseline", fails_on_all_relevant)
        assert self.report(tmp_path, ["tkmia", "tkml_ap_u"], {"type": "random", "m": 1},
                           command=command, index=2) == 1
        assert capsys.readouterr() == (
            "", "error: attack (tkml_ap_u, k=1) instance 2: non-finite gradient at iteration 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.npz"]

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


class TestBadScorerFile:
    """Every command that reads a scorer file rejects a bad one in one line that
    names it, and writes nothing."""

    @pytest.mark.parametrize("command", ["report", "attack", "train"])
    @pytest.mark.parametrize("case", BAD_SCORER_FILES)
    def test_rejected_in_one_line(self, tmp_path, capsys, command, case):
        content, message = BAD_SCORER_FILES[case]
        path = tmp_path / "victim.npz"
        path.write_bytes(content)
        config = write_config(tmp_path / "config.json", **base_config(
            tmp_path, dataset={"n": 20, "d": 2, "c": 3, "mean_relevant": 1.5},
            victim={"path": str(path)}))
        assert run_command(command, config, 0, tmp_path / "out.npz") == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "victim.npz"]


class ClassThreeInfinite(model.Scorer):
    """A scorer double whose own forward passes score class 3 at +inf at every input
    but the rows of ``clean``: the clean scores, from ``_scores``, and each attack's
    iteration 0, at its instance's x, are the victim's."""

    def __init__(self, clean, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clean = np.asarray(clean, dtype=np.float64)

    def _vjp(self, x):
        scores, pullback = super()._vjp(x)
        if not (self.clean == x).all(axis=1).any():
            scores[3] = np.inf
        return scores, pullback


class TestNonFiniteScores:
    """A score is a finite vector: a report or attack that meets another fails in
    one line, writes nothing, and names the cell and the instance."""

    # Instance 0 has too few relevant labels for S = {0} and k = 1, so a report
    # attacks instances 1, 2 and 3 as its rows 0, 1 and 2.
    ROWS = [([0.0, 0.0], [1, 0, 0, 0]), ([0.1, 0.2], [1, 1, 0, 0]),
            ([0.8, -0.5], [1, 1, 0, 0]), ([-0.3, 0.1], [1, 1, 1, 0])]
    WEIGHTS = [[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2], [0.0, 0.0]]

    @pytest.fixture
    def files(self, tmp_path):
        dataset = tmp_path / "data.npz"
        harness.save_dataset([core.Instance(x=x, y=y) for x, y in self.ROWS], str(dataset))
        # Class 3's logit, 1.7e308 * x[0] + 1e308, overflows at instance 2 only.
        weights = self.WEIGHTS[:3] + [[1.7e308, 0.0]]
        overflow = tmp_path / "overflow.npz"
        save_scorer(model.Scorer([weights], [[0.0, 0.1, -0.1, 1e308]], sigmoid_output=False),
                    str(overflow))
        return dataset, overflow

    def config(self, tmp_path, dataset, victim):
        return write_config(
            tmp_path / "config.json", dataset={"path": str(dataset)},
            victim={"path": str(victim)}, k_grid=[1],
            scheme={"type": "global", "categories": [0]}, methods=["tkmia"],
            attack={"eta": 0.05, "max_iter": 20}, out_csv=str(tmp_path / "report.csv"),
            out_outcomes=str(tmp_path / "outcomes.jsonl"))

    @COMMANDS
    def test_names_the_instance_of_a_non_finite_clean_row(self, files, tmp_path, capsys,
                                                          command):
        # S = {0} is out of the top 1 at instance 2's clean scores, behind class 3's
        # +inf, which has no JSON text. numpy's overflow warning, an error under this
        # suite's warning filter, is not raised.
        dataset, overflow = files
        assert run_command(command, self.config(tmp_path, dataset, overflow), 2) == 1
        assert capsys.readouterr() == ("", "error: clean scores (k=1) instance 2: "
                                           "score vector contains non-finite entries\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "data.npz", "overflow.npz"]

    @COMMANDS
    def test_overflow_error_is_the_only_stderr_line(self, files, tmp_path, command):
        # A process of its own, under numpy's and Python's default warning handling.
        dataset, overflow = files
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}
        config = self.config(tmp_path, dataset, overflow)
        result = subprocess.run(
            [sys.executable, "-m", "tkmia.cli", command, "--config", str(config),
             *(["--index", "2"] if command == "attack" else [])],
            env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: clean scores (k=1) instance 2: "
                   "score vector contains non-finite entries\n")

    @COMMANDS
    def test_names_the_instance_of_a_non_finite_perturbed_row(self, files, tmp_path, capsys,
                                                              monkeypatch, command):
        # Clean, instance 1 ranks class 1 first and instance 2 class 0: instance 1's
        # attack ends at iteration 0, at its x, and instance 2's runs on to an input
        # that differs from its x.
        dataset, _ = files
        victim = ClassThreeInfinite([x for x, _ in self.ROWS], [self.WEIGHTS],
                                    [[0.0, 0.1, -0.1, -1.0]], sigmoid_output=False)
        # The run gets the double in place of the victim file, which it never reads.
        monkeypatch.setattr(harness, "load_scorer", lambda path: victim)
        config = self.config(tmp_path, dataset, tmp_path / "unread.npz")
        assert run_command(command, config, 2) == 1
        assert capsys.readouterr() == ("", "error: attack (tkmia, k=1) instance 2: "
                                           "score vector contains non-finite entries\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.npz",
                                                              "overflow.npz"]


class TestImpossibleAllocation:
    """A config whose arrays cannot be allocated exits 1 with one line that states the
    array's shape, and writes nothing. 10^16 rows or hidden units of d = 8 float64
    entries are 568 PiB, above any x86-64 address space (128 PiB at 57-bit virtual
    addresses), so the allocation fails at once whatever the overcommit setting, and
    nothing is allocated."""

    DATASET = {"n": 40, "d": 8, "c": 5, "mean_relevant": 2.0}
    CONFIGS = {"rows": ({**DATASET, "n": 10**16}, {"arch": "affine"}),
               "hidden": (DATASET, {"arch": "mlp", "hidden": 10**16})}

    # gen-data reads no victim block, so only the dataset's rows fail it.
    @pytest.mark.parametrize("command, case", [
        ("gen-data", "rows"), ("train", "rows"), ("train", "hidden"), ("report", "rows"),
        ("report", "hidden"), ("attack", "rows"), ("attack", "hidden")])
    def test_exits_one_in_one_line(self, tmp_path, capsys, command, case):
        dataset, victim = self.CONFIGS[case]
        config = write_config(tmp_path / "config.json",
                              **base_config(tmp_path, dataset=dataset, victim=victim))
        assert run_command(command, config, 0, tmp_path / "out.npz") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        # The data matrix, or the first layer's weights, one row per hidden unit.
        assert "shape (10000000000000000, 8)" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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


    @COMMANDS
    def test_instance_outside_the_clip_domain_exits_one(self, tmp_path, capsys, command):
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
        assert run_command(command, path, first) == 1
        assert capsys.readouterr() == ("", f"error: attack (tkmia, k=2) instance {first}: "
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

    def test_negative_seed_names_the_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["check", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")
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

    def help_flags(self, command, capsys):
        """The flags that ``command``'s help names."""
        with pytest.raises(SystemExit) as info:
            run_cli([command, "--help"])
        assert info.value.code == 0
        return {word.strip("[],") for word in capsys.readouterr().out.split()
                if word.strip("[],").startswith("-")}

    def test_attack_help_lists_only_config_and_index(self, capsys):
        assert self.help_flags("attack", capsys) == {"-h", "--help", "--config", "--index"}

    @EXPORTS
    def test_export_help_lists_only_config_and_out(self, capsys, command):
        assert self.help_flags(command, capsys) == {"-h", "--help", "--config", "--out"}
