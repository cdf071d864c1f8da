"""Command-line interface.

Subcommands:

  gen-data   draw a synthetic dataset and write it as JSON lines
  train      fit a victim scorer on a dataset with BCE
  attack     re-run one instance of a report config and print its outcome lines
  report     run a full experiment config and write CSV + outcomes
  check      run the built-in verification suites

gen-data, train and check take --seed, and report and attack the config's
seed; identical seeds give identical outputs. Exit status is 0 on success,
1 on any error, and 2 on usage problems.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .checks import run_all_checks
from .core import _seed
from .harness import (
    VICTIM_ARCHS,
    ExperimentConfig,
    OutcomeLines,
    SyntheticSpec,
    _attack_cell,
    _cell_selection,
    _check_output_directory,
    _open_cell,
    _resolve,
    gen_synthetic,
    load_dataset,
    run_experiment,
    save_dataset,
    train_victim,
)
from .model import ACTIVATIONS, save_scorer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkmia",
        description="Specified-label top-k attacks with ranking-measure reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--mean-relevant", type=float, required=True)
    p.add_argument("--correlation", type=float, default=SyntheticSpec.label_correlation)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", required=True)

    # A flag left out is absent from the arguments, so that VictimSpec's default applies.
    p = sub.add_parser("train", help="train a victim scorer with BCE",
                       description="A flag left out takes the default of VictimSpec, the "
                                   "recipe of a report's inline victim.",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--dataset", required=True)
    p.add_argument("--arch", choices=VICTIM_ARCHS)
    p.add_argument("--hidden", type=int)
    p.add_argument("--activation", choices=ACTIVATIONS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

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
    spec = SyntheticSpec(n=args.n, d=args.d, c=args.c,
                         mean_relevant=args.mean_relevant,
                         label_correlation=args.correlation, seed=args.seed)
    save_dataset(gen_synthetic(spec), args.out)
    print(f"wrote {args.n} instances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_output_directory("--out", args.out)
    # Every other flag is a train_victim keyword; a suppressed one only when given.
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "dataset", "out")}
    victim = train_victim(load_dataset(args.dataset), **flags)
    save_scorer(victim, args.out)
    print(f"wrote trained {victim.arch} scorer to {args.out}")
    return 0


# attack and report end a score that overflows with their one-line error, which
# numpy's RuntimeWarning would otherwise precede. check keeps numpy's defaults,
# so that ``python -W error -m tkmia.cli check`` still fails on any warning.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def _cmd_attack(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    dataset, victim = _resolve(config)
    # The report's cells cut to the instance: their errors and lines are the report's.
    lines, text = OutcomeLines(dataset.X.shape[1]), []
    for k in config.k_grid:
        pairs = [pair for pair in _cell_selection(config, dataset, k) if pair[0] == args.index]
        clean_scores, clean = _open_cell(victim, dataset, pairs, k)
        for method in config.methods:
            outcomes, perturbed = _attack_cell(victim, dataset, pairs, clean_scores, method,
                                               config.attack_config(method, k))
            text += [lines.line(o, o.epsilon_norm, args.index, k, cl, pt)
                     for o, cl, pt in zip(outcomes, clean, perturbed)]
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
    results = run_all_checks(seed=args.seed)
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
        if "seed" in args:
            _seed(args.seed, "--seed")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
