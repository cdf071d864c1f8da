"""Synthetic datasets, experiment orchestration, and report emission.

A desk-scale stand-in for the image benchmarks: instances are noisy
mixtures of per-class prototype vectors squashed into [-1, 1], labels come
from an equicorrelated Gaussian-copula threshold model, and victims are
the small scorers from :mod:`tkmia.model`. Experiments sweep a grid of
(k, specified-set scheme, method) cells, attack the identical filtered
instance list with every method, and emit one CSV row per cell plus
line-delimited JSON outcome records. A cell scores its clean rows once, a
block at a time, for their measures; each attack is one public
:func:`tkmia_attack` or :func:`run_baseline` call, which scores its own
iteration 0. All randomness is seeded, so reports are reproducible byte for
byte.
"""
from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from itertools import islice
from json.encoder import encode_basestring_ascii
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .attack import (
    METHODS,
    RECORD_KEYS,
    AttackConfig,
    BaselineSpec,
    GlobalScheme,
    RandomScheme,
    _admission,
    run_baseline,
    select_global,
    select_random,
    tkmia_attack,
)
from .core import Dataset, Instance, _integer, _seed, atomic_write, read_archive
from .metrics import (MEASURES, REPORT_COLUMNS, AggregateReport, _value_rows, delta_report,
                      evaluate_rows, write_report_csv)
# Unused here; perfbench's tracer test looks evaluate_instance up in this namespace.
from .metrics import evaluate_instance  # noqa: F401
from .model import ACTIVATIONS, Scorer, TrainConfig, load_scorer, make_mlp, train_bce

__all__ = [
    "METHODS",
    "VICTIM_ARCHS",
    "SyntheticSpec",
    "VictimSpec",
    "ExperimentConfig",
    "gen_synthetic",
    "save_dataset",
    "load_dataset",
    "train_victim",
    "OutcomeLines",
    "run_experiment",
]

# Feature noise around the prototype mixture, before the tanh squash.
# Calibrated so default victims land near 0.97 sample-mean AP@3: strong
# enough to count as well-trained, imperfect enough that attacks have
# irrelevant labels to collide with near position k.
FEATURE_NOISE = 0.28
# The generator's pass sizes: instances built and checked per block, and label
# attempt offsets tested per window of normals (more when d is large, so that
# a window holds several kept instances). Bounded, so that a large n never
# holds all of its draws at once.
_BLOCK = 128
_WINDOW = 2048
# The (index, S) pairs of a report cell scored clean, attacked, evaluated and written
# per pass, so that a report holds one block of scores and attack outcomes at a time.
_CELL_BLOCK = 256
# A spec whose label draws have both kinds of label with a lower probability is
# rejected: the generator would draw each instance's labels 1 / probability times.
MIN_KEPT_PROBABILITY = 1e-6


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
        for name in ("n", "d", "c"):
            value = _integer(getattr(self, name), f"{name} must be an integer, got")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.n < 1 or self.d < 1 or self.c < 2:
            raise ValueError("n, d positive and c >= 2 required")
        if not 0.0 < self.mean_relevant < self.c:
            raise ValueError("mean_relevant must lie strictly between 0 and c")
        # At 1 every label draw is all 0 or all 1, and would be redrawn forever.
        if not 0.0 <= self.label_correlation < 1.0:
            raise ValueError("label_correlation must lie in [0, 1)")
        # 1 - q^c - (1 - q)^c given the common factor u, q = P(relevant | u), averaged over
        # the window of u where q moves (narrow as rho nears 1) by a 128-point midpoint rule.
        c, rho = self.c, self.label_correlation
        t, a, b = NormalDist().inv_cdf(self.mean_relevant / c), np.sqrt(rho), np.sqrt(1.0 - rho)
        lo, hi = (max(-9.0, (t - 9 * b) / a), min(9.0, (t + 9 * b) / a)) if rho else (-9.0, 9.0)
        u = lo + (hi - lo) / 128 * (np.arange(128) + 0.5)
        q = np.array([NormalDist().cdf(z) for z in (t - a * u) / b])
        kept = np.exp(-u * u / 2) @ (1 - q**c - (1 - q)**c) * (hi - lo) / 128 / np.sqrt(2 * np.pi)
        if kept < MIN_KEPT_PROBABILITY:
            raise ValueError(f"mean_relevant {self.mean_relevant!r} and label_correlation {rho!r}"
                             f" give a label draw with some but not all labels relevant with "
                             f"probability {kept:.3g} < {MIN_KEPT_PROBABILITY:g}")


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a synthetic dataset, deterministic under the seed.

    Each class gets a prototype vector; an instance's features are the
    mean of its relevant-class prototypes plus Gaussian noise, squashed
    by tanh into (-1, 1). Labels share a single Gaussian factor with
    weight ``label_correlation``, so marginals stay Bernoulli with mean
    ``mean_relevant / c`` while co-occurrence rises with the correlation.
    Degenerate label vectors (no relevant or no irrelevant label) are
    redrawn, matching real annotation data where every instance carries
    some but not all labels.

    The normals are read in the order of one instance after another: each
    label attempt takes one common and c individual normals, and a kept one
    then takes d noise normals. They are drawn and tested a window at a
    time, and the rows are written a block at a time into one X and Y.
    """
    rng = np.random.default_rng(spec.seed)
    prototypes = rng.uniform(-1.0, 1.0, size=(spec.c, spec.d))
    p = spec.mean_relevant / spec.c
    threshold = NormalDist().inv_cdf(p)
    rho = spec.label_correlation
    common_w = np.sqrt(rho)
    indiv_w = np.sqrt(1.0 - rho)
    c, d = spec.c, spec.d
    attempt, stride = 1 + c, 1 + c + d  # the normals of a label attempt, of a kept instance
    label_at, noise_at = 1 + np.arange(c), attempt + np.arange(d)
    window = max(_WINDOW, 8 * stride)  # attempt offsets per window

    X, Y = np.empty((spec.n, d)), np.empty((spec.n, c), dtype=bool)
    done = 0  # rows written
    labels, noise = [], []  # the current block's kept instances, a piece per window
    z, o = np.empty(0), 0  # z[o:] is drawn but unread
    while done < spec.n:
        # A window of attempt offsets, each with room for a kept instance's noise.
        z = np.concatenate([z[o:], rng.standard_normal(window + stride - 1 - (len(z) - o))])
        # The attempt at offset o has latents common_w * z[o] + indiv_w * z[o+1:o+1+c],
        # each a non-decreasing function of its own normal, rounding included
        # (indiv_w > 0, as label_correlation < 1). So some latent is below the
        # threshold iff the smallest normal's is, and some is not iff the largest
        # normal's is not: every offset is tested with two sliding extremes.
        lo, hi = _sliding_extremes(z[1:window + c], c)
        common = common_w * z[:window]
        keep = (indiv_w * lo + common < threshold) & (indiv_w * hi + common >= threshold)
        starts, o = [], 0
        while o < window:
            if keep[o]:
                starts.append(o)
                o += stride
            else:
                o += attempt
        starts = np.array(starts, dtype=np.intp)
        labels.append(common_w * z[starts, None] + indiv_w * z[starts[:, None] + label_at]
                      < threshold)
        noise.append(z[starts[:, None] + noise_at])
        if sum(map(len, labels)) < min(_BLOCK, spec.n - done):
            continue
        y = np.concatenate(labels)[:spec.n - done]
        # The mean of the relevant prototypes, summed in class order from 0.0 as
        # ``prototypes[y == 1].mean(axis=0)`` sums them.
        base = np.zeros((len(y), d))
        for j in range(c):
            base[y[:, j]] += prototypes[j]
        base /= y.sum(axis=1, keepdims=True)
        # tanh(base + FEATURE_NOISE * noise), in place: float addition commutes.
        x = np.multiply(np.concatenate(noise)[:len(y)], FEATURE_NOISE, out=X[done:done + len(y)])
        np.tanh(np.add(x, base, out=x), out=x)
        Y[done:done + len(y)] = y
        done += len(y)
        labels, noise = [], []
    return Dataset(X, Y)


def _sliding_extremes(z: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The minimum and maximum of each run of ``width`` consecutive entries of ``z``,
    from runs of doubling length: about log2(width) passes over ``z``."""
    lo = hi = z
    run = 1
    while 2 * run <= width:
        lo, hi = np.minimum(lo[:-run], lo[run:]), np.maximum(hi[:-run], hi[run:])
        run *= 2
    # Two runs of length ``run``, ``width - run`` apart, cover a run of ``width``.
    shift = width - run
    return (np.minimum(lo[:len(lo) - shift], lo[shift:]),
            np.maximum(hi[:len(hi) - shift], hi[shift:]))


def save_dataset(instances: Sequence[Instance], path: str) -> None:
    """An uncompressed ``.npz`` archive at exactly ``path`` of :meth:`Dataset.of`'s
    float64 ``X`` and its int8 ``Y`` written as int64, the archive's label type, so a
    dataset builds no instance; an empty one is an error. numpy dates each entry
    1980-01-01, so equal datasets give equal bytes."""
    data = Dataset.of(instances)
    with atomic_write(path, binary=True) as handle:
        np.savez(handle, X=data.X, Y=data.Y.astype(np.int64))


def load_dataset(path: str) -> Dataset:
    """Read :func:`save_dataset`'s format: an archive of exactly the numeric 2-D arrays
    ``X`` and ``Y``, checked once by :class:`Dataset`. Any other file, or an empty
    dataset, raises one ValueError line that begins with ``path``."""
    return read_archive(path, "dataset", [{"X": (2, "numeric"), "Y": (2, "numeric")}],
                        lambda arrays: Dataset.of(Dataset(arrays["X"], arrays["Y"])))


@dataclass
class VictimSpec(TrainConfig):
    """An inline victim: its architecture and the :class:`TrainConfig` that fits it."""

    arch: str = "affine"
    hidden: int = 32
    activation: str = "tanh"

    def __post_init__(self):
        if self.arch not in VICTIM_ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.hidden = _integer(self.hidden, "hidden size must be an integer, got")
        if self.hidden < 1:
            raise ValueError(f"hidden size must be >= 1, got {self.hidden}")
        super().__post_init__()


def train_victim(dataset: Sequence[Instance], **victim) -> Scorer:
    """Initialize an affine or MLP scorer sized to the dataset, then fit it.

    The keyword arguments, an inline ``victim`` block, are the fields of
    :class:`VictimSpec`, whose defaults fill in a key left out; ``seed`` also
    seeds the initialization.
    """
    spec = _victim_spec(victim)
    data = Dataset.of(dataset)
    init = None  # train_bce starts an affine victim from make_affine(d, c, seed=spec.seed)
    if spec.arch == "mlp":
        init = make_mlp(data.X.shape[1], spec.hidden, data.Y.shape[1], seed=spec.seed,
                        activation=spec.activation)
    return train_bce(data, spec, model=init)


VICTIM_ARCHS = ("affine", "mlp")
# The JSON kind of each annotation that a config field has: the types its value
# may have, their name in errors and, for a list, the annotation of its items.
# A null attack_overrides stands for no overrides.
_KINDS = {"dict": (dict, "an object"), "dict | None": ((dict, type(None)), "an object"),
          "str": (str, "a string"), "int": (int, "an integer"),
          "float": ((int, float), "a number"),
          "int | None": ((int, type(None)), "an integer or null"),
          "tuple[int, ...]": ((list, tuple), "a list", "int"),
          "tuple[str, ...]": ((list, tuple), "a list", "str"),
          "GlobalScheme | RandomScheme": ((GlobalScheme, RandomScheme),
                                          "a GlobalScheme or RandomScheme")}
_SCHEMES = {"global": GlobalScheme, "random": RandomScheme}


def _expect(level: str, value, annotation: str) -> None:
    """Check that ``value`` has the JSON kind of ``annotation``, a list's items included."""
    types, name, *items = _KINDS[annotation]
    # JSON true and false are no integers, though Python's bool is an int.
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{level}: expected {name}, got {type(value).__name__}")
    for i, item in enumerate(value if items else ()):
        _expect(f"{level}[{i}]", item, *items)


def _schema(cls, *skip) -> tuple[dict, tuple]:
    """The fields of ``cls`` less ``skip`` with their annotations, and those without a default."""
    own = [f for f in fields(cls) if f.name not in skip]
    return {f.name: f.type for f in own}, tuple(f.name for f in own if f.default is MISSING)


def _check_keys(level: str, block, kinds: dict, required=()) -> None:
    """Check that ``block`` is an object whose keys are in ``kinds`` with
    values of their kind (None: any), and that it holds the ``required`` keys."""
    _expect(level, block, "dict")
    for key, value in block.items():
        if key not in kinds:
            raise ValueError(f"{level}: unknown key {key!r}")
        if kinds[key] is not None:
            _expect(f"{level}.{key}", value, kinds[key])
    for key in required:
        if key not in block:
            raise ValueError(f"{level}: missing key {key!r}")


def _decode(level: str, cls, block, *skip):
    """``cls`` built from the JSON object ``block``, whose keys are :func:`_schema`'s;
    ``cls``'s own ValueError is prefixed with ``level``."""
    _check_keys(level, block, *_schema(cls, *skip))
    # A class of one field can fail on that field only, so its error names the key.
    prefix = level if len(fields(cls)) > 1 else f"{level}.{fields(cls)[0].name}"
    try:
        return cls(**block)
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _victim_spec(victim: dict) -> VictimSpec:
    """The one decode of a victim recipe, whose hidden and activation are MLP keys."""
    mlp_only = () if victim.get("arch") == "mlp" else ("hidden", "activation")
    return _decode("victim", VictimSpec, victim, *mlp_only)


# The attack block and each attack_overrides entry: AttackConfig's fields less
# those that each (k, method) cell sets, with the clip domain as two numbers.
_ATTACK_KEYS, _ATTACK_REQUIRED = _schema(AttackConfig, "k", "clip_domain", "scheme")
_ATTACK_KEYS.update(clip_lo="float", clip_hi="float")


@dataclass
class ExperimentConfig:
    """Everything one report run needs, loadable from a JSON file.

    ``dataset`` and ``victim`` are either {"path": ...} or inline blocks whose
    keys are the fields of :class:`SyntheticSpec` and :class:`VictimSpec`.
    ``attack`` holds the shared attack hyperparameters, which ``attack_overrides``
    may adjust per listed method: the fields of :class:`AttackConfig` that no
    cell sets. Building the config checks every key, value kind and (k, method)
    cell, and that no output is a file the config reads, and rejects a bad one
    with a one-line ValueError naming the block and the key, or the cell.
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
        for field in fields(self):
            _expect(field.name, getattr(self, field.name), field.type)
        self.k_grid, self.methods = tuple(self.k_grid), tuple(self.methods)
        _seed(self.seed)
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
        # A dataset or victim block that names a file instead of a spec.
        if "path" in self.dataset:
            _check_keys("dataset", self.dataset, {"path": "str"}, ("path",))
        else:
            self.check_classes(_decode("dataset", SyntheticSpec, self.dataset).c)
        if "path" in self.victim:
            _check_keys("victim", self.victim, {"path": "str"}, ("path",))
        else:
            _victim_spec(self.victim)
        for key in ("out_csv", "out_outcomes"):
            self.check_output(key, getattr(self, key))
        _check_keys("attack", self.attack, _ATTACK_KEYS, _ATTACK_REQUIRED)
        overrides = {} if self.attack_overrides is None else self.attack_overrides
        _check_keys("attack_overrides", overrides, dict.fromkeys(self.methods, "dict"))
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

    def attack_config(self, method: str, k: int) -> AttackConfig:
        """The (k, method) cell's ``attack``, updated by the method's
        ``attack_overrides`` entry; ``clip_lo``/``clip_hi`` form the clip domain."""
        params = {**self.attack, **(self.attack_overrides or {}).get(method, {})}
        lo, hi = AttackConfig.clip_domain
        clip = (params.pop("clip_lo", lo), params.pop("clip_hi", hi))
        return AttackConfig(k=k, clip_domain=clip, scheme=self.scheme, **params)

    def check_output(self, name: str, path: str) -> None:
        """Reject an output ``path`` that is the dataset or victim file the config
        reads, with an error that names ``name``."""
        for block in ("dataset", "victim"):
            source = getattr(self, block).get("path")
            if source is not None and os.path.realpath(path) == os.path.realpath(source):
                raise ValueError(f"{name}: same file as {block}.path")

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
        kinds, required = _schema(cls)
        # Only the keys here: building the config checks the kinds of its fields.
        _check_keys("config", raw, dict.fromkeys(kinds), required)
        _expect("scheme", raw["scheme"], "dict")
        block = dict(raw["scheme"])
        if "type" not in block:
            raise ValueError("scheme: missing key 'type'")
        kind = block.pop("type")
        _expect("scheme.type", kind, "str")
        if kind not in _SCHEMES:
            raise ValueError(f"unknown scheme type {kind!r}")
        return cls(**{**raw, "scheme": _decode("scheme", _SCHEMES[kind], block)})

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as handle:
            try:
                raw = json.load(handle)
            # Bad JSON, bytes that are not UTF-8, or arrays nested past the recursion limit.
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: {exc}") from None
        return cls.from_dict(raw)


def _resolve_dataset(config: ExperimentConfig) -> Dataset:
    """The config's dataset, read or generated, checked against its k grid and
    categories: what ``tkmia gen-data`` writes."""
    if "path" in config.dataset:
        dataset = load_dataset(config.dataset["path"])
    else:
        dataset = gen_synthetic(SyntheticSpec(**config.dataset))
    config.check_classes(dataset.Y.shape[1])
    return dataset


def _resolve(config: ExperimentConfig) -> tuple[Dataset, Scorer]:
    """:func:`_resolve_dataset`, and the config's victim, read or trained on it: the
    set-up of a report, of ``tkmia attack`` and of ``tkmia train``. A victim read from
    a file must have the dataset's (d, c) as its (in_dim, out_dim)."""
    dataset = _resolve_dataset(config)
    if "path" not in config.victim:
        return dataset, train_victim(dataset, **{"seed": config.seed, **config.victim})
    model = load_scorer(config.victim["path"])
    (_, d), (_, c) = dataset.X.shape, dataset.Y.shape
    if (model.in_dim, model.out_dim) != (d, c):
        raise ValueError(f"victim has in_dim={model.in_dim}, out_dim={model.out_dim}, "
                         f"but the dataset has d={d}, c={c}")
    return dataset, model


def _cell_selection(config: ExperimentConfig, dataset: Dataset, k: int):
    """The (index, S) pairs of one grid cell: the instances that :func:`ineligible`
    accepts for every configured method, in dataset order up to the cap, so that
    every method attacks this one list; :func:`~tkmia.attack._admission` runs the
    rule once per distinct (|Yp|, |S|) pair of the cell. A random-scheme S is drawn
    from a seed of (seed, k, m, index), so reruns and methods agree, and only for
    an admitted instance before the cap."""
    admitted = _admission(dataset, k, [(method, config.attack_config(method, k).delta_threshold)
                                       for method in config.methods])
    if isinstance(config.scheme, GlobalScheme):
        pairs = ((idx, s) for idx, s in select_global(dataset, config.scheme.categories)
                 if admitted(idx, len(s)))
    else:
        m = config.scheme.m
        pairs = ((idx, select_random(dataset[idx], m, seed=[config.seed, k, m, idx]))
                 for idx in range(len(dataset)) if admitted(idx, m))
    # No cell holds more pairs than the dataset has rows; islice takes no cap above sys.maxsize.
    return list(islice(pairs, min(config.max_instances, len(dataset))))


def _check_output_directory(name: str, path: str) -> None:
    """Reject an output path whose directory is missing, that is a directory, or
    that names no file (it is empty or ends in a separator), naming ``name``,
    before any work is done for it."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"{name}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"{name}: {path} is a directory")
    if not os.path.basename(path):
        raise ValueError(f"{name}: no file name in {path!r}")


def _evaluate_cell(scores, labels, k: int, chosen, name: str) -> tuple[np.ndarray, ...]:
    """The measures of each row of ``scores``, one array per MEASURES entry in its
    order; the error for a non-finite row i of ``scores`` names ``name`` and the row's
    dataset instance ``chosen[i]``."""
    try:
        return evaluate_rows(scores, labels, k)
    except ValueError as exc:
        finite = np.isfinite(scores).all(axis=1)
        if finite.all():
            raise
        raise ValueError(f"{name} instance {chosen[int(np.argmin(finite))]}: {exc}") from None


def _open_cell(model: Scorer, dataset: Dataset, pairs, k: int) -> tuple[np.ndarray, ...]:
    """The clean measures of a k cell of (index, S) ``pairs``, opened once for all its
    methods: one array per MEASURES entry, scored and measured ``_CELL_BLOCK`` rows at a
    time, every block before any attack. A non-finite row of clean scores names the cell's
    ``clean scores (k=K)`` prefix and the instance's dataset index."""
    chosen = [idx for idx, _ in pairs]
    blocks = [_evaluate_cell(model.score(dataset.X[rows]), dataset.Y[rows], k, rows,
                             f"clean scores (k={k})")
              for rows in (chosen[start:start + _CELL_BLOCK]
                           for start in range(0, len(chosen), _CELL_BLOCK))]
    return tuple(map(np.concatenate, zip(*blocks)))


def _attack_cell(model: Scorer, dataset: Dataset, pairs, method: str, cfg: AttackConfig):
    """Attack each (index, S) of ``pairs``, a block of a cell, by ``method``, with one
    :func:`tkmia_attack` or :func:`run_baseline` call each: the one attack path of
    :func:`_run_cell`. Returns the outcomes and their perturbed measures, as
    :func:`_evaluate_cell` gives them. An attack's error, or a non-finite perturbed row,
    names the cell and the instance's dataset index; the block is attacked before its
    rows are evaluated, so an attack's error comes first."""
    name, chosen = f"attack ({method}, k={cfg.k})", [idx for idx, _ in pairs]
    baseline = None if method == "tkmia" else BaselineSpec(method, cfg)
    outcomes = []
    try:
        for idx, s in pairs:
            outcomes.append(tkmia_attack(model, dataset[idx], s, cfg) if baseline is None
                            else run_baseline(model, dataset[idx], s, baseline))
    except (ValueError, FloatingPointError) as exc:
        raise type(exc)(f"{name} instance {idx}: {exc}") from None
    after = np.reshape([o.scores_after for o in outcomes], (len(pairs), model.out_dim))
    return outcomes, _evaluate_cell(after, dataset.Y[chosen], cfg.k, chosen, name)


class OutcomeLines:
    """The one writer of outcome lines, for a dataset of d features: each line of a
    report's outcome file and the lines of one instance that ``tkmia attack`` prints,
    which :func:`_run_cells` writes a block of a cell at a time.

    ``line(outcome, norm, instance, k, clean, perturbed)``, with ``norm`` the outcome's
    ``epsilon_norm`` and ``clean`` and ``perturbed`` the instance's measures, each a tuple
    in MEASURES order, equals ``json.dumps(outcome.to_record(instance=instance, k=k,
    clean_metrics=..., perturbed_metrics=...)) + "\\n"`` byte for byte on what these
    write, and checks none of it. Its outcomes have the attack loop's types, float64
    arrays among them, and finite floats, whose text is their repr: the loop keeps
    epsilon and the lambdas finite, and :func:`_evaluate_cell` rejects non-finite scores
    before a block's lines are written. A measure set (an int ``tk_acc``, non-negative
    floats, as :func:`~tkmia.metrics._value_rows` gives them) takes one text per
    distinct set and the all-zero epsilon one per writer. A ``scores_before`` takes one
    text per instance index, kept for the writer's life (one report or one ``tkmia
    attack``) and reused across its cells and methods. So an instance index must name
    one clean score row for the writer's life, as it does where every cell scores the
    rows of one dataset with one model: the writer keeps no row bytes to tell two rows
    apart. ``scores_after`` reuses that text when it is ``scores_before``'s array, as it
    is after an attack that ends at iteration 0.
    """

    # The line's keys, each with a %s for its value's text.
    _FORMAT = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in (
        *RECORD_KEYS, "instance", "k", "clean_metrics", "perturbed_metrics")) + "}\n"

    def __init__(self, d: int):
        self._zero = bytes(8 * d), repr([0.0] * d)
        self._sets: dict[tuple, str] = {}
        self._rows: dict[int, str] = {}

    def line(self, outcome, norm, instance, k, clean, perturbed) -> str:
        o, (zero_bytes, zero_text) = outcome, self._zero
        eps, before, after = o.epsilon, o.scores_before, o.scores_after
        before_text = self._rows.get(instance)
        if before_text is None:
            before_text = self._rows[instance] = repr(before.tolist())
        return self._FORMAT % (
            encode_basestring_ascii(o.method), "true" if o.success else "false",
            o.iterations_used, list(o.specified), list(o.residual), o.lambda1, o.lambda2, norm,
            zero_text if eps.tobytes() == zero_bytes else repr(eps.tolist()), before_text,
            before_text if after is before else repr(after.tolist()),
            instance, k, self._text(clean), self._text(perturbed))

    def _text(self, values) -> str:
        """A measure set's JSON text, once per distinct set."""
        if values not in self._sets:
            self._sets[values] = json.dumps(dict(zip(MEASURES, values)))
        return self._sets[values]


def _run_cell(model: Scorer, dataset: Dataset, pairs, clean, method: str,
              cfg: AttackConfig, lines: OutcomeLines, write) -> AggregateReport | None:
    """Attack, evaluate and write the (k, method) cell of (index, S) ``pairs``, whose
    clean measures :func:`_open_cell` gives, ``_CELL_BLOCK`` pairs at a time: each block
    goes through :func:`_attack_cell`, ``write`` takes its outcome lines, and its
    outcomes are freed before the next block is attacked. Only the per-row values of
    the cell's report row are kept, as one array per block of each. Returns that row's
    :class:`AggregateReport`, None for no pairs."""
    kept = []  # per block: its perturbed measures, expelled counts, success flags, norms
    for start in range(0, len(pairs), _CELL_BLOCK):
        block = slice(start, start + _CELL_BLOCK)
        outcomes, after = _attack_cell(model, dataset, pairs[block], method, cfg)
        norms = []
        for outcome, (idx, _), cl, pt in zip(outcomes, pairs[block],
                                             _value_rows(column[block] for column in clean),
                                             _value_rows(after)):
            # One norm per outcome: the line's epsilon_norm and the row's APer.
            norms.append(outcome.epsilon_norm)
            write(lines.line(outcome, norms[-1], idx, cfg.k, cl, pt))
        kept.append((*after, np.array([len(o.specified) - len(o.residual) for o in outcomes]),
                     np.array([o.success for o in outcomes]), np.array(norms)))
        # Written: freed now, not while the next block's attacks run.
        del outcomes, outcome
    if not kept:
        return None
    *perturbed, expelled, success, norms = map(np.concatenate, zip(*kept))
    return delta_report(clean, perturbed, expelled, success, norms)


def _run_cells(config: ExperimentConfig, dataset: Dataset, model: Scorer, write,
               index: int | None = None) -> list[dict]:
    """Run every (k, method) cell of the config's grid in order through :func:`_run_cell`,
    with one :class:`OutcomeLines`: the one cell runner of reports and ``tkmia attack``.
    ``write`` takes each outcome line; returns the report rows. With ``index``, every cell
    is cut to that dataset instance, so its errors and lines are the report's."""
    rows, lines = [], OutcomeLines(dataset.X.shape[1])
    for k in config.k_grid:
        pairs = _cell_selection(config, dataset, k)
        if index is not None:
            pairs = [pair for pair in pairs if pair[0] == index]
        clean = _open_cell(model, dataset, pairs, k)
        cell = {"k": k, "s_size": _scheme_s_size(config.scheme, pairs), "n": len(pairs)}
        for method in config.methods:
            report = _run_cell(model, dataset, pairs, clean, method,
                               config.attack_config(method, k), lines, write)
            row = {**cell, "method": method}
            rows.append({col: row.get(col, getattr(report, col, None)) for col in REPORT_COLUMNS})
    return rows


def run_experiment(config: ExperimentConfig):
    """Run the full grid and write the CSV report plus outcome records.

    Returns the report rows. A cell that the selection empties gives rows
    with ``n = 0`` and no measures. A failed attack, or a non-finite row of
    clean or perturbed scores, names its cell and the instance's dataset
    index. Each cell's clean rows are scored in blocks of ``_CELL_BLOCK``
    instances before any attack, then it is attacked, evaluated and written in
    such blocks, so the first error in that order is the one reported.
    Outcome records stream to a temp file block by block; after the last
    cell it replaces ``out_outcomes`` and the CSV is written, so a failing
    run leaves no partial outputs.
    """
    for key in ("out_csv", "out_outcomes"):
        _check_output_directory(key, getattr(config, key))
    dataset, model = _resolve(config)
    with atomic_write(config.out_outcomes) as outcome_file:
        rows = _run_cells(config, dataset, model, outcome_file.write)
    write_report_csv(config.out_csv, rows)
    return rows


def _scheme_s_size(scheme, pairs) -> float | int:
    if isinstance(scheme, RandomScheme):
        return scheme.m
    if not pairs:
        return 0
    return float(np.mean([len(s) for _, s in pairs]))
