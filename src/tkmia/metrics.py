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

and, in :func:`delta_report`, over an attacked instance set:

  mAP@k            the sample mean of AP@k
  delta_l          mean number of specified labels expelled from the top k
  APer             mean L2 norm of the successful perturbations
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import _check_k, _rank, as_labels, as_scores, atomic_write
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
    "ndcg_at_k",
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


def ndcg_at_k(scores, labels, k: int) -> float:
    """Discounted cumulative gain over the top k, normalized by the ideal."""
    return float(_defined(_measures(scores, labels, k)["ndcg_at_k"], "NDCG@k")[0])


# The per-instance measures, as MetricsRecord names them, in the order the
# outcome records and the report's delta columns list them.
MEASURES = ("tk_acc", "p_at_k", "ap_at_k", "ndcg_at_k")


@dataclass
class MetricsRecord:
    """Per-instance measure values at a fixed k: one row of :func:`evaluate_rows`'
    arrays, as :func:`evaluate_instance` gives it."""

    k: int
    tk_acc: int
    p_at_k: float
    ap_at_k: float
    ndcg_at_k: float


def _columns(scores, labels, k: int, ndim: int) -> tuple[np.ndarray, ...]:
    """The body of :func:`evaluate_rows` (``ndim=2``) and of :func:`evaluate_instance`
    (``ndim=1``: one score vector and its labels, as a single row)."""
    values = _measures(scores, labels, k, ndim)
    _defined(values["ap_at_k"], "AP@k")
    return tuple(values[name] for name in MEASURES)


def evaluate_rows(scores, labels, k: int) -> tuple[np.ndarray, ...]:
    """Every per-instance measure for each row of an (N, c) score matrix and its
    (N, c) labels, from one validation and one ranking: one int64 or float64 array
    per MEASURES entry, in its order. Each row's values are the bytes of
    :func:`evaluate_instance` of that row."""
    return _columns(scores, labels, k, 2)


def _value_rows(columns):
    """One tuple of Python values per row of ``columns``, arrays of one measure each."""
    return zip(*(column.tolist() for column in columns))


def evaluate_instance(scores, labels, k: int) -> MetricsRecord:
    """All per-instance measures of one score vector, as the one-row case of
    :func:`evaluate_rows`."""
    (row,) = _value_rows(_columns(scores, labels, k, 1))
    return MetricsRecord(int(k), *row)


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


def delta_report(clean, perturbed, expelled, success, norms) -> AggregateReport:
    """Aggregate one attacked instance set into a report row.

    ``clean`` and ``perturbed`` are the set's measures, as :func:`evaluate_rows`
    gives them; ``expelled``, ``success`` and ``norms`` are arrays of each outcome's
    count of specified labels expelled from the top k, its success flag and its L2
    epsilon norm. Every array holds one value per instance, in the same order, and
    none is empty. Each mean is ``np.mean`` over all rows in their order, so a report
    that attacks a cell in blocks of rows gets the bytes of one pass: mAP@k is the
    sample mean of AP@k, and APer averages the norms of successful outcomes only.
    """
    lengths = {len(values) for values in (*clean, *perturbed, expelled, success, norms)}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("clean, perturbed, expelled, success and norms must be non-empty "
                         "arrays of one length")
    succeeded = norms[success]
    return AggregateReport(
        *(float(np.mean(before)) - float(np.mean(after))
          for before, after in zip(clean, perturbed)),
        delta_l=float(np.mean(expelled)),
        aper=float(np.mean(succeeded)) if succeeded.size else None,
        n=len(expelled),
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
