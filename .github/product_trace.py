"""Run the CLI's commands in this process and print the functions of src/tkmia
that they enter and those that they do not.

    PYTHONPATH=src python .github/product_trace.py    # Python 3.11 or later

The commands run in a temporary directory, on small inline configs:
``gen-data`` and ``train``; a report with an affine victim, the global scheme
and ``c1_only``; the same report on the dataset and victim files that
``gen-data`` and ``train`` wrote; a report with an MLP victim, the random
scheme, ``strict`` and a ``delta_threshold``; and ``attack`` on one instance of
the first report. Each must exit 0.

A profiler set with ``sys.setprofile`` records each code object that a call
enters. A function is one compiled function code object of a module, named by
its qualified name and keyed by its first line (its first decorator or its
``def``), the key the profiler records; lambdas, comprehensions and class
bodies are not listed. Functions that only tests call show as not entered: the
list reads what a user of the CLI runs. It does not gate: the exit status is 1
only if a command fails.
"""
import contextlib
import inspect
import io
import json
import os
import sys
import tempfile

from statement_trace import PACKAGE, code_objects


def functions(path: str) -> dict:
    """The first line of each function's code object in ``path`` -> its qualified name."""
    return {code.co_firstlineno: code.co_qualname for code in code_objects(path)
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")}


def configs() -> list:
    """The three report configs: affine, global, c1_only; the same on the files that
    ``gen-data`` and ``train`` write; MLP, random, strict, delta_threshold."""
    common = {"seed": 7, "dataset": {"n": 400, "d": 8, "c": 8, "mean_relevant": 3.5,
                                     "label_correlation": 0.5, "seed": 7},
              "methods": ["tkmia", "ml_cw_u", "tkml_ap_u"], "max_instances": 20}
    affine = dict(common, victim={"arch": "affine", "epochs": 20}, k_grid=[1, 2],
                  scheme={"type": "global", "categories": [0]},
                  attack={"eta": 0.05, "alpha": 1e-4, "success_mode": "c1_only"},
                  out_csv="affine.csv", out_outcomes="affine.jsonl")
    mlp = dict(common, victim={"arch": "mlp", "hidden": 8, "epochs": 20}, k_grid=[2],
               scheme={"type": "random", "m": 2},
               attack={"eta": 0.05, "alpha": 1e-4, "success_mode": "strict",
                       "delta_threshold": 1},
               out_csv="mlp.csv", out_outcomes="mlp.jsonl")
    files = dict(affine, dataset={"path": "data.npz"}, victim={"path": "victim.npz"},
                 out_csv="files.csv", out_outcomes="files.jsonl")
    return [affine, files, mlp]


def run_commands() -> list:
    """Run the commands; returns the failed ones."""
    from tkmia import cli

    affine, files, mlp = configs()
    for name, config in (("affine.json", affine), ("files.json", files), ("mlp.json", mlp)):
        with open(name, "w") as handle:
            json.dump(config, handle)
    commands = [["gen-data", "--config", "affine.json", "--out", "data.npz"],
                ["train", "--config", "affine.json", "--out", "victim.npz"],
                ["report", "--config", "affine.json"],
                ["report", "--config", "files.json"],
                ["report", "--config", "mlp.json"]]
    failed = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                failed.append(argv)
    with open("affine.jsonl") as handle:
        index = json.loads(handle.readline())["instance"]
    argv = ["attack", "--config", "affine.json", "--index", str(index)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            failed.append(argv)
    return failed


def main() -> int:
    entered = set()  # (file name, first line) of each code object entered under src/tkmia

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE + os.sep):
                entered.add((code.co_filename, code.co_firstlineno))

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        sys.setprofile(profile)
        try:
            failed = run_commands()
        finally:
            sys.setprofile(None)
            os.chdir(home)
    for argv in failed:
        print(f"failed: tkmia {' '.join(argv)}")

    entered = {(os.path.abspath(name), line) for name, line in entered}
    lists = {True: [], False: []}
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            path = os.path.join(PACKAGE, module)
            for line, name in sorted(functions(path).items()):
                lists[(path, line) in entered].append(f"{module}:{line} {name}")
    for was, label in ((True, "entered"), (False, "not entered")):
        print(f"{label} ({len(lists[was])}):", *lists[was], sep="\n  ")
    print(f"product trace: the CLI's commands enter {len(lists[True])} of "
          f"{len(lists[True]) + len(lists[False])} functions in src/tkmia")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
