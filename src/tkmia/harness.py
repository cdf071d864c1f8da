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
import tempfile
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .attack import (
    AttackConfig,
    GlobalScheme,
    RandomScheme,
    filter_instances,
    select_global,
    select_random,
    tkmia_attack,
)
from .baselines import BASELINE_METHODS, BaselineSpec, run_baseline
from .core import Instance
from .metrics import delta_report, evaluate_instance, write_report_csv
from .model import Scorer, TrainConfig, load_scorer, make_affine, make_mlp, train_bce

__all__ = [
    "SyntheticSpec",
    "ExperimentConfig",
    "gen_synthetic",
    "save_dataset",
    "load_dataset",
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


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(instances: Sequence[Instance], path: str) -> None:
    """One instance per line: {"x": [...], "y": [...]}."""
    lines = [
        json.dumps({"x": inst.x.tolist(), "y": inst.y.tolist()})
        for inst in instances
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def load_dataset(path: str) -> list[Instance]:
    instances = []
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            instances.append(Instance(x=record["x"], y=record["y"]))
    if not instances:
        raise ValueError(f"dataset file {path} is empty")
    return instances


@dataclass
class ExperimentConfig:
    """Everything one report run needs, loadable from a JSON file.

    ``dataset`` and ``victim`` are either {"path": ...} or inline specs
    (generator parameters, or a victim training recipe applied to the
    dataset). ``attack`` holds the shared attack hyperparameters;
    ``attack_overrides`` may adjust them per method.
    """

    seed: int
    dataset: dict
    victim: dict
    k_grid: tuple[int, ...]
    scheme: GlobalScheme | RandomScheme
    methods: tuple[str, ...]
    attack: dict
    out_csv: str
    out_outcomes: str
    max_instances: int = 1000
    attack_overrides: dict | None = None

    def __post_init__(self):
        if not self.k_grid:
            raise ValueError("k grid must be non-empty")
        if self.max_instances < 1:
            raise ValueError("max_instances must be positive")
        if not self.methods:
            raise ValueError("method list must be non-empty")
        for method in self.methods:
            if method not in ("tkmia", "kfool") + BASELINE_METHODS:
                raise ValueError(f"unknown method {method!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        scheme_raw = raw["scheme"]
        if scheme_raw["type"] == "global":
            scheme = GlobalScheme(tuple(scheme_raw["categories"]))
        elif scheme_raw["type"] == "random":
            scheme = RandomScheme(int(scheme_raw["m"]))
        else:
            raise ValueError(f"unknown scheme type {scheme_raw['type']!r}")
        return cls(
            seed=int(raw.get("seed", 0)),
            dataset=dict(raw["dataset"]),
            victim=dict(raw["victim"]),
            k_grid=tuple(int(k) for k in raw["k_grid"]),
            scheme=scheme,
            methods=tuple(raw["methods"]),
            attack=dict(raw["attack"]),
            out_csv=raw["out_csv"],
            out_outcomes=raw["out_outcomes"],
            max_instances=int(raw.get("max_instances", 1000)),
            attack_overrides=raw.get("attack_overrides"),
        )

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _resolve_dataset(config: ExperimentConfig) -> list[Instance]:
    if "path" in config.dataset:
        return load_dataset(config.dataset["path"])
    return gen_synthetic(SyntheticSpec(**config.dataset))


def _resolve_victim(config: ExperimentConfig, dataset: Sequence[Instance]) -> Scorer:
    spec = config.victim
    if "path" in spec:
        return load_scorer(spec["path"])
    d = dataset[0].x.shape[0]
    c = dataset[0].n_classes
    arch = spec.get("arch", "affine")
    seed = int(spec.get("seed", config.seed))
    if arch == "affine":
        init = make_affine(d, c, seed=seed)
    elif arch == "mlp":
        init = make_mlp(d, int(spec.get("hidden", 32)), c, seed=seed,
                        activation=spec.get("activation", "tanh"))
    else:
        raise ValueError(f"unknown victim arch {arch!r}")
    train = TrainConfig(
        epochs=int(spec.get("epochs", 100)),
        learning_rate=float(spec.get("learning_rate", 0.5)),
        momentum=float(spec.get("momentum", 0.9)),
        batch_size=int(spec.get("batch_size", 64)),
        seed=seed,
    )
    return train_bce(dataset, train, model=init)


def _attack_config(config: ExperimentConfig, method: str, k: int) -> AttackConfig:
    params = dict(config.attack)
    overrides = (config.attack_overrides or {}).get(method, {})
    params.update(overrides)
    clip = (float(params.pop("clip_lo", -1.0)), float(params.pop("clip_hi", 1.0)))
    delta = params.pop("delta_threshold", None)
    return AttackConfig(
        k=k,
        eta=float(params["eta"]),
        alpha=float(params.get("alpha", 0.0)),
        momentum=float(params.get("momentum", 0.9)),
        max_iter=int(params.get("max_iter", 300)),
        success_mode=params.get("success_mode", "c1_only"),
        delta_threshold=None if delta is None else int(delta),
        clip_domain=clip,
        scheme=config.scheme,
    )


def _cell_selection(config: ExperimentConfig, dataset, k: int):
    """Instance indices and their specified sets for one grid cell.

    The filter and cap run before any method does, and every method sees
    this identical list. Under the random scheme each instance's set is
    drawn from a seed derived from (seed, k, m, index), so reruns and
    methods agree.
    """
    if isinstance(config.scheme, GlobalScheme):
        pairs = [
            (idx, s)
            for idx, s in select_global(dataset, config.scheme.categories)
            if len(dataset[idx].relevant) >= k + len(s)
        ]
    else:
        m = config.scheme.m
        pairs = [
            (idx, select_random(dataset[idx], m, seed=[config.seed, k, m, idx]))
            for idx in filter_instances(dataset, k, m)
        ]
    return pairs[:config.max_instances]


def _run_method(method: str, model: Scorer, inst: Instance, s, cfg: AttackConfig):
    if method == "tkmia":
        return tkmia_attack(model, inst, s, cfg)
    return run_baseline(model, inst, s, BaselineSpec(method, cfg))


def _metrics_dict(record) -> dict:
    return {
        "tk_acc": record.tk_acc,
        "p_at_k": record.p_at_k,
        "ap_at_k": record.ap_at_k,
        "ndcg_at_k": record.ndcg_at_k,
    }


def run_experiment(config: ExperimentConfig):
    """Run the full grid and write the CSV report plus outcome records.

    Returns the report rows. Files are written atomically at the end, so
    a failing run leaves no partial outputs.
    """
    dataset = _resolve_dataset(config)
    model = _resolve_victim(config, dataset)

    rows = []
    outcome_lines = []
    for k in config.k_grid:
        pairs = _cell_selection(config, dataset, k)
        if not pairs:
            for method in config.methods:
                rows.append({
                    "k": k, "s_size": _scheme_s_size(config.scheme, pairs),
                    "method": method, "delta_tk_acc": None, "delta_p_at_k": None,
                    "delta_map_at_k": None, "delta_ndcg_at_k": None,
                    "delta_l": None, "aper": None, "n": 0,
                })
            continue
        clean = [
            evaluate_instance(model.score(dataset[idx].x), dataset[idx].y, k)
            for idx, _ in pairs
        ]
        for method in config.methods:
            if method == "kfool":
                # external comparator, not implemented here; keep its row so
                # tables stay comparable
                rows.append({
                    "k": k, "s_size": _scheme_s_size(config.scheme, pairs),
                    "method": method, "delta_tk_acc": "not_run",
                    "delta_p_at_k": "not_run", "delta_map_at_k": "not_run",
                    "delta_ndcg_at_k": "not_run", "delta_l": "not_run",
                    "aper": "not_run", "n": len(pairs),
                })
                continue
            cfg = _attack_config(config, method, k)
            outcomes = [
                _run_method(method, model, dataset[idx], s, cfg)
                for idx, s in pairs
            ]
            perturbed = [
                evaluate_instance(o.scores_after, dataset[idx].y, k)
                for o, (idx, _) in zip(outcomes, pairs)
            ]
            report = delta_report(clean, perturbed, outcomes)
            rows.append({
                "k": k,
                "s_size": _scheme_s_size(config.scheme, pairs),
                "method": method,
                "delta_tk_acc": report.delta_tk_acc,
                "delta_p_at_k": report.delta_p_at_k,
                "delta_map_at_k": report.delta_map_at_k,
                "delta_ndcg_at_k": report.delta_ndcg_at_k,
                "delta_l": report.delta_l,
                "aper": report.aper,
                "n": report.n,
            })
            for (idx, s), outcome, cl, pt in zip(pairs, outcomes, clean, perturbed):
                outcome_lines.append(json.dumps(outcome.to_record(
                    instance=idx,
                    k=k,
                    clean_metrics=_metrics_dict(cl),
                    perturbed_metrics=_metrics_dict(pt),
                )))

    write_report_csv(config.out_csv, rows)
    _atomic_write(config.out_outcomes, "\n".join(outcome_lines) + "\n")
    return rows


def _scheme_s_size(scheme, pairs) -> float | int:
    if isinstance(scheme, RandomScheme):
        return scheme.m
    if not pairs:
        return 0
    return float(np.mean([len(s) for _, s in pairs]))
