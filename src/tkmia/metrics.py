"""Ranking-quality measures for top-k multi-label predictions.

All measures depend on the score vector only through its induced ranking
(ties broken by smaller class index), so they are invariant under strictly
monotone transforms of the scores. Undefined values (no relevant labels,
or an average over zero successful attacks) surface as errors or explicit
``None`` markers, never as silent zeros.

Implemented measures, for one instance with labels ``y`` and ranked labels
``y_[1], ..., y_[c]``:

  top-k accuracy   1 iff every relevant label ranks within the top k
  P@k              (1/k) * sum_{i<=k} y_[i]
  AP@k             (1/N_k) * sum_{i<=k} y_[i] * P@i  with N_k = min(k, |Yp|)
  NDCG@k           DCG@k / IDCG@k with log2(i+1) position discounts

and over an attacked instance set:

  delta_l          mean number of specified labels expelled from the top k
  APer             mean L2 norm of the successful perturbations
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .core import _check_k, _l2_norm, _rank, as_labels, as_scores, atomic_write
# Unused here; perfbench's tracer test looks top_k_indices up in this namespace.
from .core import top_k_indices  # noqa: F401

__all__ = [
    "UndefinedMetricError",
    "MEASURES",
    "MetricsRecord",
    "AggregateReport",
    "tk_acc",
    "precision_at_k",
    "ap_at_k",
    "map_at_k",
    "map_at_k_per_category",
    "ndcg_at_k",
    "delta_l",
    "aper",
    "evaluate_instance",
    "evaluate_rows",
    "delta_report",
    "write_report_csv",
    "REPORT_COLUMNS",
]


class UndefinedMetricError(ValueError):
    """A measure was requested where its definition does not apply."""


def _measure_rows(scores: np.ndarray, labels: np.ndarray, k: int) -> dict[str, np.ndarray]:
    """Each of MEASURES as a vector over the rows of checked (N, c) arrays.

    Ranks every row once, with :func:`core._rank`. AP@k and
    NDCG@k are NaN in rows without relevant labels, where they are
    undefined. AP adds ``hits/i`` at the relevant positions in position
    order and NDCG sums each row with numpy, so a row's values do not
    depend on the other rows.
    """
    order = _rank(scores)[:, :k]
    ranked = np.take_along_axis(labels, order, axis=1)
    hits = ranked.sum(axis=1)
    n_relevant = labels.sum(axis=1)
    positions = np.arange(1, k + 1)
    # cumsum accumulates left to right, one position at a time.
    ap_sum = np.cumsum(np.where(ranked == 1, ranked.cumsum(axis=1) / positions, 0.0),
                       axis=1)[:, -1]
    dcg = (ranked / np.log2(positions + 1)).sum(axis=1)
    # IDCG@k of a row with m = min(k, |Yp|) relevant labels, for m = 0..k.
    idcg = np.array([(1.0 / np.log2(np.arange(1, m + 1) + 1)).sum() for m in range(k + 1)])
    ideal_len = np.minimum(n_relevant, k)
    with np.errstate(invalid="ignore"):  # 0/0 in rows without relevant labels
        return {"tk_acc": (hits == n_relevant).astype(np.int64), "p_at_k": hits / k,
                "ap_at_k": ap_sum / ideal_len, "ndcg_at_k": dcg / idcg[ideal_len]}


def _measures(scores, labels, k: int, ndim: int = 1) -> dict[str, np.ndarray]:
    """The measures of each row of (N, c) scores and labels, from one check
    of each and of k; ``ndim=1`` takes one score vector and its labels as a
    single row."""
    scores = as_scores(scores, ndim)
    c = scores.shape[-1]
    k = _check_k(k, c)
    labels = as_labels(labels, c, ndim)
    if labels.shape[:-1] != scores.shape[:-1]:
        raise ValueError(f"{labels.shape[0]} label rows != {scores.shape[0]} score rows")
    return _measure_rows(np.atleast_2d(scores), np.atleast_2d(labels), k)


def _defined(values: np.ndarray, name: str) -> np.ndarray:
    if np.isnan(values).any():
        raise UndefinedMetricError(f"{name} undefined without relevant labels")
    return values


def tk_acc(scores, labels, k: int) -> int:
    """1 iff the set of relevant labels is contained in the top-k classes."""
    return int(_measures(scores, labels, k)["tk_acc"][0])


def precision_at_k(scores, labels, k: int) -> float:
    """Fraction of the top-k ranked classes that are relevant."""
    return float(_measures(scores, labels, k)["p_at_k"][0])


def ap_at_k(scores, labels, k: int) -> float:
    """Average precision over the top-k prefix.

    Sums P@i at each relevant position i <= k and normalizes by
    N_k = min(k, number of relevant labels).
    """
    return float(_defined(_measures(scores, labels, k)["ap_at_k"], "AP@k")[0])


def map_at_k(samples: Sequence[tuple], k: int) -> float:
    """Mean of AP@k over ``(scores, labels)`` samples.

    This sample-mean reading is what the aggregate reports use. For the
    dataset-level per-category variant see :func:`map_at_k_per_category`.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    return float(np.mean([ap_at_k(s, y, k) for s, y in samples]))


def map_at_k_per_category(samples: Sequence[tuple], k: int) -> float:
    """Mean over categories of per-category AP@k.

    For category j, instances are ranked by their class-j score and scored
    against the binary relevance column y_j. Categories with no relevant
    instance are skipped; if every category is empty the metric is
    undefined.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    score_mat = np.asarray([as_scores(s) for s, _ in samples])
    label_mat = np.asarray([as_labels(y, score_mat.shape[1]) for _, y in samples])
    k = _check_k(k, score_mat.shape[0])
    # Category j is row j of the transposes: instances ranked by their class-j
    # score, ties by index.
    ap = _measure_rows(score_mat.T, label_mat.T, k)["ap_at_k"][label_mat.any(axis=0)]
    if ap.size == 0:
        raise UndefinedMetricError("no category has a relevant instance")
    return float(np.mean(ap))


def ndcg_at_k(scores, labels, k: int) -> float:
    """Discounted cumulative gain over the top k, normalized by the ideal."""
    return float(_defined(_measures(scores, labels, k)["ndcg_at_k"], "NDCG@k")[0])


def delta_l(outcomes: Sequence) -> float:
    """Mean count of specified labels expelled from the top k.

    Each outcome must expose ``specified`` (the attacked label set) and
    ``residual`` (members of it still ranked in the top k afterwards).
    """
    if len(outcomes) == 0:
        raise ValueError("empty outcome list")
    return float(np.mean([len(o.specified) - len(o.residual) for o in outcomes]))


def aper(perturbations: Iterable[np.ndarray]) -> float | None:
    """Mean L2 norm over successful-attack perturbations.

    Returns None when there are no successes, the explicit
    undefined-metric marker. Each norm is ``np.linalg.norm``'s, by the
    arithmetic of ``AttackOutcome.epsilon_norm``.
    """
    norms = [_l2_norm(np.asarray(e, dtype=np.float64).ravel(order="K")) for e in perturbations]
    if not norms:
        return None
    return float(np.mean(norms))


# The per-instance measures, as MetricsRecord names them, in the order the
# outcome records and the report's delta columns list them.
MEASURES = ("tk_acc", "p_at_k", "ap_at_k", "ndcg_at_k")


@dataclass(slots=True)
class MetricsRecord:
    """Per-instance measure values at a fixed k; slotted, as a report keeps one per
    attacked row of a cell."""

    k: int
    tk_acc: int
    p_at_k: float
    ap_at_k: float
    ndcg_at_k: float


def _records(scores, labels, k: int, ndim: int) -> list[MetricsRecord]:
    values = _measures(scores, labels, k, ndim)
    _defined(values["ap_at_k"], "AP@k")
    return [MetricsRecord(int(k), *row)
            for row in zip(*(values[name].tolist() for name in MEASURES))]


def evaluate_rows(scores, labels, k: int) -> list[MetricsRecord]:
    """Every per-instance measure for each row of an (N, c) score matrix
    and its (N, c) labels, from one validation and one ranking.

    Each record equals :func:`evaluate_instance` of its row.
    """
    return _records(scores, labels, k, 2)


def evaluate_instance(scores, labels, k: int) -> MetricsRecord:
    """All per-instance measures from one validation and one ranking."""
    return _records(scores, labels, k, 1)[0]


@dataclass
class AggregateReport:
    """One attacked instance set's report columns, apart from the cell's.

    Each delta is a measure's clean mean minus its perturbed mean, one per
    MEASURES entry and in its order, so a positive delta means the attack
    degraded the measure. ``aper`` is None when no attack in the set
    succeeded.
    """

    delta_tk_acc: float
    delta_p_at_k: float
    delta_map_at_k: float
    delta_ndcg_at_k: float
    delta_l: float
    aper: float | None
    n: int


def delta_report(
    clean: Sequence[MetricsRecord],
    perturbed: Sequence[MetricsRecord],
    outcomes: Sequence,
    norms: Sequence[float],
) -> AggregateReport:
    """Aggregate one attacked instance set into a report row.

    ``clean`` and ``perturbed`` must describe the same instances in the
    same order (checked by length and k). The reported mAP@k is the
    sample mean of AP@k. ``norms`` holds each outcome's L2 epsilon norm, in
    order; APer, as :func:`aper`, averages those of successful outcomes only.
    """
    if not (len(clean) == len(perturbed) == len(outcomes) == len(norms)) or len(clean) == 0:
        raise ValueError("clean, perturbed, outcomes and norms must be non-empty and aligned")
    ks = {r.k for r in clean} | {r.k for r in perturbed}
    if len(ks) != 1:
        raise ValueError("mismatched k across records")
    return _aggregate(clean, perturbed, [len(o.specified) - len(o.residual) for o in outcomes],
                      [o.success for o in outcomes], norms)


def _aggregate(clean, perturbed, expelled, success, norms) -> AggregateReport:
    """:func:`delta_report`'s row from its aligned, non-empty per-row values: the
    ``clean`` and ``perturbed`` records, each outcome's count of specified labels
    expelled from the top k, its success flag and its epsilon norm. Each mean is
    ``np.mean`` over all rows in their order, so a report that attacks a cell in
    blocks of rows gets the bytes of one pass."""

    def mean(records, name):
        return float(np.mean([getattr(r, name) for r in records]))

    succeeded = [norm for norm, ok in zip(norms, success) if ok]
    return AggregateReport(
        *(mean(clean, name) - mean(perturbed, name) for name in MEASURES),
        delta_l=float(np.mean(expelled)),
        aper=float(np.mean(succeeded)) if succeeded else None,
        n=len(clean),
    )


# A report row: its cell's columns, then the AggregateReport of the cell.
REPORT_COLUMNS = ("k", "s_size", "method") + tuple(f.name for f in fields(AggregateReport))


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        # normalize numpy scalars, whose repr is not round-trip plain text
        return repr(float(value))
    return str(value)


def write_report_csv(path: str, rows: Sequence[dict]) -> None:
    """Write report rows atomically in the fixed column order.

    Each row is a dict keyed by REPORT_COLUMNS. Floats serialize via repr
    so equal runs produce byte-identical files.
    """
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows([_fmt(row[col]) for col in REPORT_COLUMNS] for row in rows)
