"""Synthetic datasets, experiment orchestration, and report emission.

A desk-scale stand-in for the image benchmarks: instances are noisy
mixtures of per-class prototype vectors squashed into [-1, 1], labels come
from an equicorrelated Gaussian-copula threshold model, and victims are
the small scorers from :mod:`tkmia.model`. Experiments sweep a grid of
(k, specified-set scheme, method) cells, attack the identical filtered
instance list with every method, and emit one CSV row per cell plus
line-delimited JSON outcome records. All randomness is seeded, so reports
are reproducible byte for byte.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .attack import (
    AttackConfig,
    GlobalScheme,
    RandomScheme,
    filter_instances,
    ineligible,
    select_global,
    select_random,
    tkmia_attack,
)
from .baselines import BASELINE_METHODS, BaselineSpec, run_baseline
from .core import Instance, atomic_write
from .metrics import MEASURES, REPORT_COLUMNS, delta_report, evaluate_rows, write_report_csv
# Unused here; perfbench's tracer test looks evaluate_instance up in this namespace.
from .metrics import evaluate_instance  # noqa: F401
from .model import ACTIVATIONS, Scorer, TrainConfig, load_scorer, make_affine, make_mlp, train_bce

__all__ = [
    "METHODS",
    "VICTIM_ARCHS",
    "SyntheticSpec",
    "ExperimentConfig",
    "gen_synthetic",
    "save_dataset",
    "load_dataset",
    "train_victim",
    "run_experiment",
]

# Feature noise around the prototype mixture, before the tanh squash.
# Calibrated so default victims land near 0.97 sample-mean AP@3: strong
# enough to count as well-trained, imperfect enough that attacks have
# irrelevant labels to collide with near position k.
FEATURE_NOISE = 0.28


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic multi-label generator."""

    n: int
    d: int
    c: int
    mean_relevant: float
    label_correlation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.c < 2:
            raise ValueError("n, d positive and c >= 2 required")
        if not 0.0 < self.mean_relevant < self.c:
            raise ValueError("mean_relevant must lie strictly between 0 and c")
        if not 0.0 <= self.label_correlation <= 1.0:
            raise ValueError("label_correlation must lie in [0, 1]")


def gen_synthetic(spec: SyntheticSpec) -> list[Instance]:
    """Draw a synthetic dataset, deterministic under the seed.

    Each class gets a prototype vector; an instance's features are the
    mean of its relevant-class prototypes plus Gaussian noise, squashed
    by tanh into (-1, 1). Labels share a single Gaussian factor with
    weight ``label_correlation``, so marginals stay Bernoulli with mean
    ``mean_relevant / c`` while co-occurrence rises with the correlation.
    Degenerate label vectors (no relevant or no irrelevant label) are
    redrawn, matching real annotation data where every instance carries
    some but not all labels.
    """
    rng = np.random.default_rng(spec.seed)
    prototypes = rng.uniform(-1.0, 1.0, size=(spec.c, spec.d))
    p = spec.mean_relevant / spec.c
    threshold = NormalDist().inv_cdf(p)
    rho = spec.label_correlation
    common_w = np.sqrt(rho)
    indiv_w = np.sqrt(1.0 - rho)

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


def save_dataset(instances: Sequence[Instance], path: str) -> None:
    """One instance per line: {"x": [...], "y": [...]}."""
    with atomic_write(path) as handle:
        for inst in instances:
            handle.write(json.dumps({"x": inst.x.tolist(), "y": inst.y.tolist()}) + "\n")


def load_dataset(path: str) -> list[Instance]:
    """Read :func:`save_dataset`'s format, skipping blank lines.

    Every instance must have the first one's ``len(x)`` and ``len(y)``.
    Errors name the 1-based line number of the offending line.
    """
    instances = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or not {"x", "y"} <= record.keys():
                    raise ValueError('expected an object with "x" and "y"')
                inst = Instance(x=record["x"], y=record["y"])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            if instances and (len(inst.x), len(inst.y)) != (len(instances[0].x),
                                                             len(instances[0].y)):
                raise ValueError(
                    f"{path} line {number}: len(x)={len(inst.x)}, len(y)={len(inst.y)}, "
                    f"but the first instance has {len(instances[0].x)}, {len(instances[0].y)}"
                )
            instances.append(inst)
    if not instances:
        raise ValueError(f"dataset file {path} is empty")
    return instances


def train_victim(dataset: Sequence[Instance], arch: str = "affine", hidden: int = 32,
                 activation: str = "tanh", **train) -> Scorer:
    """Initialize an affine or MLP scorer sized to the dataset, then fit it.

    The keyword arguments are the inline ``victim`` keys of an experiment
    config, and the flags of ``tkmia train``; ``train`` takes ``epochs``
    (default 100), ``learning_rate`` (0.5), ``momentum`` (0.9),
    ``batch_size`` (64) and ``seed`` (0), which also seeds the
    initialization.
    """
    config = TrainConfig(**train)
    d = dataset[0].x.shape[0]
    c = dataset[0].n_classes
    if arch == "affine":
        init = make_affine(d, c, seed=config.seed)
    elif arch == "mlp":
        init = make_mlp(d, int(hidden), c, seed=config.seed, activation=activation)
    else:
        raise ValueError(f"unknown victim arch {arch!r}")
    return train_bce(dataset, config, model=init)


METHODS = ("tkmia",) + BASELINE_METHODS
VICTIM_ARCHS = ("affine", "mlp")
_NUMBER = (int, float)
_LIST = (list, tuple)
_SCHEME = (GlobalScheme, RandomScheme)
# The keys each config block accepts, with the JSON type of each value; any
# other key is an error. The top level's kinds are those of the built config's
# fields, and its attack_overrides (None here) is checked with the other blocks.
_CONFIG_KEYS = {"seed": int, "dataset": dict, "victim": dict, "k_grid": _LIST,
                "scheme": _SCHEME, "methods": _LIST, "attack": dict, "out_csv": str,
                "out_outcomes": str, "max_instances": int, "attack_overrides": None}
_REQUIRED = ("scheme", "dataset", "victim", "k_grid", "methods", "attack", "out_csv",
             "out_outcomes")
_DATASET_KEYS = {"n": int, "d": int, "c": int, "mean_relevant": _NUMBER,
                 "label_correlation": _NUMBER, "seed": int}
_DATASET_REQUIRED = ("n", "d", "c", "mean_relevant")
_VICTIM_KEYS = {"arch": str, "epochs": int, "learning_rate": _NUMBER, "momentum": _NUMBER,
                "batch_size": int, "seed": int}
_MLP_KEYS = {**_VICTIM_KEYS, "hidden": int, "activation": str}
_ATTACK_KEYS = {"eta": _NUMBER, "alpha": _NUMBER, "momentum": _NUMBER, "max_iter": int,
                "success_mode": str, "delta_threshold": (int, type(None)),
                "clip_lo": _NUMBER, "clip_hi": _NUMBER}
_SCHEME_KEYS = {"type": str, "categories": _LIST, "m": int}
_SCHEME_TYPES = {"global": ("type", "categories"), "random": ("type", "m")}
_JSON_TYPES = {dict: "an object", _LIST: "a list", str: "a string", int: "an integer",
               _NUMBER: "a number", (int, type(None)): "an integer or null",
               _SCHEME: "a GlobalScheme or RandomScheme"}


def _expect(level: str, value, kind) -> None:
    # JSON true and false are no integers, though Python's bool is an int.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{level}: expected {_JSON_TYPES[kind]}, got {type(value).__name__}")


def _expect_items(level: str, values: list, kind) -> None:
    for i, value in enumerate(values):
        _expect(f"{level}[{i}]", value, kind)


def _check_keys(level: str, block, kinds: dict, required=()) -> None:
    """Check that ``block`` is an object whose keys are in ``kinds`` with
    values of their kind, and that it holds the ``required`` keys."""
    _expect(level, block, dict)
    for key, value in block.items():
        if key not in kinds:
            raise ValueError(f"{level}: unknown key {key!r}")
        if kinds[key] is not None:
            _expect(f"{level}.{key}", value, kinds[key])
    for key in required:
        if key not in block:
            raise ValueError(f"{level}: missing key {key!r}")


@dataclass
class ExperimentConfig:
    """Everything one report run needs, loadable from a JSON file.

    ``dataset`` and ``victim`` are either {"path": ...} or inline specs
    (generator parameters, or a victim training recipe applied to the
    dataset). ``attack`` holds the shared attack hyperparameters, which
    ``attack_overrides`` may adjust per listed method; :class:`AttackConfig` holds
    their defaults and ranges. Building the config checks every key, value
    type and (k, method) cell, and rejects a bad one with a one-line
    ValueError naming the block and the key, or the cell.
    """

    dataset: dict
    victim: dict
    k_grid: tuple[int, ...]
    scheme: GlobalScheme | RandomScheme
    methods: tuple[str, ...]
    attack: dict
    out_csv: str
    out_outcomes: str
    seed: int = 0
    max_instances: int = 1000
    attack_overrides: dict | None = None

    def __post_init__(self):
        for key, kind in _CONFIG_KEYS.items():
            if kind is not None:
                _expect(key, getattr(self, key), kind)
        _expect_items("k_grid", self.k_grid, int)
        _expect_items("methods", self.methods, str)
        self.k_grid, self.methods = tuple(self.k_grid), tuple(self.methods)
        if not self.k_grid:
            raise ValueError("k grid must be non-empty")
        if self.max_instances < 1:
            raise ValueError("max_instances must be positive")
        if not self.methods:
            raise ValueError("method list must be non-empty")
        for key, values in (("k_grid", self.k_grid), ("methods", self.methods)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{key}: {value!r} is repeated")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if os.path.realpath(self.out_outcomes) == os.path.realpath(self.out_csv):
            raise ValueError("out_outcomes: same file as out_csv")
        victim_keys = _MLP_KEYS if self.victim.get("arch") == "mlp" else _VICTIM_KEYS
        for level, block, allowed, required in (
                ("dataset", self.dataset, _DATASET_KEYS, _DATASET_REQUIRED),
                ("victim", self.victim, victim_keys, ())):
            if "path" in block:
                allowed, required = {"path": str}, ()
            _check_keys(level, block, allowed, required)
        _check_keys("attack", self.attack, _ATTACK_KEYS, ("eta",))
        overrides = {} if self.attack_overrides is None else self.attack_overrides
        _check_keys("attack_overrides", overrides, dict.fromkeys(self.methods, dict))
        for method, block in overrides.items():
            _check_keys(f"attack_overrides.{method}", block, _ATTACK_KEYS)
        # The largest specified set the scheme gives any instance.
        if isinstance(self.scheme, RandomScheme):
            max_s_name, max_s = "|S|", self.scheme.m
        else:
            max_s_name, max_s = "max |S|", len(set(self.scheme.categories))
        for k in self.k_grid:
            for method in self.methods:
                try:
                    cfg = self.attack_config(method, k)
                    if (cfg.delta_threshold or 0) > max_s:
                        raise ValueError(f"delta threshold {cfg.delta_threshold} exceeds "
                                         f"{max_s_name}={max_s}")
                except ValueError as exc:
                    raise ValueError(f"attack ({method}, k={k}): {exc}") from None
        if "path" not in self.dataset:
            try:
                spec = SyntheticSpec(**self.dataset)
            except ValueError as exc:
                raise ValueError(f"dataset: {exc}") from None
            self.check_classes(spec.c)
        if "path" not in self.victim:
            # A key left out takes train_victim's default, which is valid.
            arch, activation = self.victim.get("arch"), self.victim.get("activation")
            if arch not in (None, *VICTIM_ARCHS):
                raise ValueError(f"victim.arch: unknown arch {arch!r}")
            if activation not in (None, *ACTIVATIONS):
                raise ValueError(f"victim.activation: unknown activation {activation!r}")
            if self.victim.get("hidden", 1) < 1:
                raise ValueError(f"victim.hidden: hidden size must be >= 1, "
                                 f"got {self.victim['hidden']}")
            try:
                TrainConfig(**{key: value for key, value in self.victim.items()
                               if key not in ("arch", "hidden", "activation")})
            except ValueError as exc:
                raise ValueError(f"victim: {exc}") from None

    def attack_config(self, method: str, k: int) -> AttackConfig:
        """The (k, method) cell's ``attack``, updated by the method's
        ``attack_overrides`` entry; ``clip_lo``/``clip_hi`` form the clip domain."""
        params = {**self.attack, **(self.attack_overrides or {}).get(method, {})}
        lo, hi = AttackConfig.clip_domain
        clip = (params.pop("clip_lo", lo), params.pop("clip_hi", hi))
        return AttackConfig(k=k, clip_domain=clip, scheme=self.scheme, **params)

    def check_classes(self, c: int) -> None:
        """Reject a k or a global category that a c-class dataset cannot hold."""
        for k in self.k_grid:
            if k >= c:
                raise ValueError(f"k_grid: k={k} must be smaller than c={c}")
        if isinstance(self.scheme, GlobalScheme):
            for i in self.scheme.categories:
                if not 0 <= i < c:
                    raise ValueError(f"scheme.categories: {i} outside [0, {c})")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys("config", raw, dict.fromkeys(_CONFIG_KEYS), _REQUIRED)
        scheme_raw = raw["scheme"]
        _check_keys("scheme", scheme_raw, _SCHEME_KEYS, ("type",))
        kind = scheme_raw["type"]
        if kind not in _SCHEME_TYPES:
            raise ValueError(f"unknown scheme type {kind!r}")
        keys = _SCHEME_TYPES[kind]
        _check_keys("scheme", scheme_raw, {key: _SCHEME_KEYS[key] for key in keys}, keys)
        if kind == "global":
            _expect_items("scheme.categories", scheme_raw["categories"], int)
        try:
            scheme = (GlobalScheme(tuple(scheme_raw["categories"])) if kind == "global"
                      else RandomScheme(scheme_raw["m"]))
        except ValueError as exc:
            raise ValueError(f"scheme.{keys[1]}: {exc}") from None
        return cls(**{**raw, "scheme": scheme})

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        return cls.from_dict(raw)


def _resolve_dataset(config: ExperimentConfig) -> list[Instance]:
    if "path" in config.dataset:
        return load_dataset(config.dataset["path"])
    return gen_synthetic(SyntheticSpec(**config.dataset))


def _resolve_victim(config: ExperimentConfig, dataset: Sequence[Instance]) -> Scorer:
    if "path" in config.victim:
        return load_scorer(config.victim["path"])
    return train_victim(dataset, **{"seed": config.seed, **config.victim})


def _cell_selection(config: ExperimentConfig, dataset, k: int):
    """Instance indices and their specified sets for one grid cell.

    An instance is admitted only if :func:`ineligible` accepts it for every
    configured method, so every method sees this identical list; the cap
    applies to the admitted instances. Under the random scheme each
    instance's set is drawn from a seed derived from (seed, k, m, index),
    so reruns and methods agree.
    """
    if isinstance(config.scheme, GlobalScheme):
        pairs = select_global(dataset, config.scheme.categories)
    else:
        m = config.scheme.m
        pairs = [
            (idx, select_random(dataset[idx], m, seed=[config.seed, k, m, idx]))
            for idx in filter_instances(dataset, k, m)
        ]
    deltas = [(method, config.attack_config(method, k).delta_threshold)
              for method in config.methods]
    admitted = [(idx, s) for idx, s in pairs
                if not any(ineligible(dataset[idx], len(s), k, method, delta)
                           for method, delta in deltas)]
    return admitted[:config.max_instances]


def _run_method(method: str, model: Scorer, inst: Instance, s, cfg: AttackConfig):
    """One attack of ``inst`` by ``method``: the one dispatch of reports and ``tkmia attack``."""
    if method == "tkmia":
        return tkmia_attack(model, inst, s, cfg)
    return run_baseline(model, inst, s, BaselineSpec(method, cfg))


def _matrix(rows, width: int) -> np.ndarray:
    """``rows`` stacked as a (len(rows), width) array; no rows give (0, width)."""
    return np.array(rows).reshape(len(rows), width)


def _check_output_directory(name: str, path: str) -> None:
    """Reject an output path whose directory is missing, naming ``name``,
    before any work is done for it."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"{name}: directory {directory} does not exist")


def run_experiment(config: ExperimentConfig):
    """Run the full grid and write the CSV report plus outcome records.

    Returns the report rows. A cell that the selection empties gives rows
    with ``n = 0`` and no measures. An attack that fails names its cell
    and the instance's dataset index. Outcome records stream to a temp file
    as each cell is measured; after the last cell it replaces ``out_outcomes``
    and the CSV is written, so a failing run leaves no partial outputs.
    """
    for key in ("out_csv", "out_outcomes"):
        _check_output_directory(key, getattr(config, key))
    dataset = _resolve_dataset(config)
    d, c = dataset[0].x.shape[0], dataset[0].n_classes
    config.check_classes(c)
    model = _resolve_victim(config, dataset)
    if not model.sigmoid_output:  # only a victim file can be raw
        raise ValueError(f"victim {config.victim['path']}: sigmoid_output is false, "
                         "but the report measures need scores in [0, 1]")
    if (model.in_dim, model.out_dim) != (d, c):
        raise ValueError(f"victim has in_dim={model.in_dim}, out_dim={model.out_dim}, "
                         f"but the dataset has d={d}, c={c}")

    rows = []
    with atomic_write(config.out_outcomes) as outcome_file:
        for k in config.k_grid:
            pairs = _cell_selection(config, dataset, k)
            labels = _matrix([dataset[idx].y for idx, _ in pairs], c)
            clean = evaluate_rows(model.score(_matrix([dataset[idx].x for idx, _ in pairs], d)),
                                  labels, k)
            cell = {"k": k, "s_size": _scheme_s_size(config.scheme, pairs), "n": len(pairs)}
            for method in config.methods:
                cfg = config.attack_config(method, k)
                outcomes = []
                try:
                    for idx, s in pairs:
                        outcomes.append(_run_method(method, model, dataset[idx], s, cfg))
                except (ValueError, FloatingPointError) as exc:
                    raise type(exc)(f"attack ({method}, k={k}) instance {idx}: {exc}") from None
                perturbed = evaluate_rows(_matrix([o.scores_after for o in outcomes], c),
                                          labels, k)
                report = delta_report(clean, perturbed, outcomes) if pairs else None
                row = {**cell, "method": method}
                rows.append({col: row.get(col, getattr(report, col, None))
                             for col in REPORT_COLUMNS})
                for (idx, s), outcome, cl, pt in zip(pairs, outcomes, clean, perturbed):
                    outcome_file.write(json.dumps(outcome.to_record(
                        instance=idx, k=k,
                        clean_metrics={name: getattr(cl, name) for name in MEASURES},
                        perturbed_metrics={name: getattr(pt, name) for name in MEASURES},
                    )) + "\n")

    write_report_csv(config.out_csv, rows)
    return rows


def _scheme_s_size(scheme, pairs) -> float | int:
    if isinstance(scheme, RandomScheme):
        return scheme.m
    if not pairs:
        return 0
    return float(np.mean([len(s) for _, s in pairs]))
