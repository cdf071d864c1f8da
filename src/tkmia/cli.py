"""Command-line interface.

Subcommands:

  gen-data   draw a synthetic dataset and write it as JSON lines
  train      fit a victim scorer on a dataset with BCE
  attack     attack one instance and print a report's outcome line for it
  report     run a full experiment config and write CSV + outcomes
  check      run the built-in verification suites

Every command takes --seed where randomness is involved; identical seeds
give identical outputs. Exit status is 0 on success, 1 on any error, and
2 on usage problems.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .attack import SUCCESS_MODES, AttackConfig, RandomScheme, select_random
from .checks import run_all_checks
from .core import _seed
from .harness import (
    METHODS,
    VICTIM_ARCHS,
    ExperimentConfig,
    OutcomeLines,
    SyntheticSpec,
    _attack_cell,
    _check_output_directory,
    _open_cell,
    gen_synthetic,
    load_dataset,
    run_experiment,
    save_dataset,
    train_victim,
)
from .model import ACTIVATIONS, TrainConfig, load_scorer, save_scorer


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

    p = sub.add_parser("train", help="train a victim scorer with BCE")
    p.add_argument("--dataset", required=True)
    # Absent unless given, so that VictimSpec's defaults apply.
    p.add_argument("--arch", choices=VICTIM_ARCHS, default=argparse.SUPPRESS)
    p.add_argument("--hidden", type=int, default=argparse.SUPPRESS)
    p.add_argument("--activation", choices=ACTIVATIONS, default=argparse.SUPPRESS)
    p.add_argument("--epochs", type=int, default=200,
                   help=f"default %(default)s, unlike a report victim's {TrainConfig.epochs}")
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True)

    p = sub.add_parser("attack", help="attack one instance, print its outcome line")
    p.add_argument("--dataset", required=True)
    p.add_argument("--victim", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--specified", help="comma-separated class indices")
    group.add_argument("--m", type=int, help="draw this many relevant labels at random")
    p.add_argument("--method", choices=METHODS, default="tkmia")
    p.add_argument("--eta", type=float, default=0.05, help="a report must set its own eta")
    p.add_argument("--alpha", type=float, default=1e-4,
                   help=f"default %(default)s, unlike a report's {AttackConfig.alpha}")
    p.add_argument("--momentum", type=float, default=AttackConfig.momentum)
    p.add_argument("--max-iter", type=int, default=AttackConfig.max_iter)
    p.add_argument("--success-mode", choices=SUCCESS_MODES, default=AttackConfig.success_mode)
    p.add_argument("--delta", type=int, default=AttackConfig.delta_threshold)
    p.add_argument("--clip-lo", type=float, default=AttackConfig.clip_domain[0])
    p.add_argument("--clip-hi", type=float, default=AttackConfig.clip_domain[1])
    p.add_argument("--seed", type=int, default=0)

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
    dataset = load_dataset(args.dataset)
    victim = load_scorer(args.victim)
    if not 0 <= args.index < len(dataset):
        raise ValueError(f"index {args.index} outside dataset of size {len(dataset)}")
    instance = dataset[args.index]
    config = AttackConfig(k=args.k, eta=args.eta, alpha=args.alpha, momentum=args.momentum,
                          max_iter=args.max_iter, success_mode=args.success_mode,
                          delta_threshold=args.delta, clip_domain=(args.clip_lo, args.clip_hi),
                          scheme=None if args.m is None else RandomScheme(args.m))
    if args.m is not None:
        # The draw of a report's random scheme, so a report's attack can be re-run.
        specified = select_random(instance, args.m, seed=[args.seed, args.k, args.m, args.index])
    else:
        try:
            specified = tuple(int(i) for i in args.specified.split(","))
        except ValueError:
            raise ValueError(f"--specified: expected comma-separated class indices, "
                             f"got {args.specified!r}") from None
    # A report cell of one instance, whose errors and line are the report's.
    pairs = [(args.index, specified)]
    scores, (clean,) = _open_cell(victim, dataset, pairs, args.k)
    (outcome,), (perturbed,) = _attack_cell(victim, dataset, pairs, scores, args.method, config)
    sys.stdout.write(OutcomeLines(dataset.X.shape[1]).line(
        outcome, outcome.epsilon_norm, args.index, args.k, clean, perturbed))
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
