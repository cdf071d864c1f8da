"""Command-line interface.

Subcommands:

  gen-data   write the dataset of a report config as an .npz archive of X and Y
  train      write the victim scorer of a report config, read or trained on its dataset,
             as an .npz archive of its layers, activation and sigmoid_output
  attack     re-run one instance of a report config and print its outcome lines
  report     run a full experiment config and write CSV + outcomes
  check      run the built-in verification suites

gen-data, train, attack and report read one experiment config and take every
seed from it; check takes --seed. Identical inputs give identical outputs. Exit
status is 0 on success, 1 on any error, and 2 on usage problems.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .checks import run_all_checks
from .core import _seed
from .harness import (
    ExperimentConfig,
    _check_output_directory,
    _resolve,
    _resolve_dataset,
    _run_cells,
    run_experiment,
    save_dataset,
)
from .model import save_scorer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkmia",
        description="Specified-label top-k attacks with ranking-measure reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the dataset of a report config")
    p.add_argument("--config", required=True, help="the report's config file")
    p.add_argument("--out", required=True, help="the dataset file to write")

    p = sub.add_parser("train", help="write the victim of a report config")
    p.add_argument("--config", required=True, help="the report's config file")
    p.add_argument("--out", required=True, help="the victim file to write")

    p = sub.add_parser("attack", help="re-run one instance of a report, print its outcome lines")
    p.add_argument("--config", required=True, help="the report's config file")
    p.add_argument("--index", type=int, required=True, help="the instance's dataset index")

    p = sub.add_parser("report", help="run an experiment config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("check", help="run the verification suites")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen_data(args) -> int:
    _check_output_directory("--out", args.out)
    config = ExperimentConfig.from_json(args.config)
    config.check_output("--out", args.out)
    dataset = _resolve_dataset(config)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} instances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_output_directory("--out", args.out)
    config = ExperimentConfig.from_json(args.config)
    config.check_output("--out", args.out)
    _, victim = _resolve(config)
    save_scorer(victim, args.out)
    print(f"wrote {victim.arch} scorer to {args.out}")
    return 0


# attack and report end a score that overflows with their one-line error, which
# numpy's RuntimeWarning would otherwise precede. check keeps numpy's defaults,
# so that ``python -W error -m tkmia.cli check`` still fails on any warning.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def _cmd_attack(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    # The report's cells cut to the instance: their errors and lines are the report's.
    text = []
    _run_cells(config, *_resolve(config), text.append, index=args.index)
    if not text:
        raise ValueError(f"--index: instance {args.index} is in no cell of the report")
    sys.stdout.write("".join(text))
    return 0


@_QUIET
def _cmd_report(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    rows = run_experiment(config)
    print(f"wrote {len(rows)} report rows to {config.out_csv}")
    return 0


def _cmd_check(args) -> int:
    results = run_all_checks(seed=_seed(args.seed, "--seed"))
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status} ({detail})")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "report": _cmd_report,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
