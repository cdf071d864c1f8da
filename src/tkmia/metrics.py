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
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import as_labels, as_scores, atomic_write, top_k_indices

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
    "delta_report",
    "write_report_csv",
    "REPORT_COLUMNS",
]


class UndefinedMetricError(ValueError):
    """A measure was requested where its definition does not apply."""


def _top_k_labels(scores, labels, k: int) -> tuple[np.ndarray, int]:
    """Labels of the top-k ranked classes and the number of relevant labels.

    Validates the scores, k and the labels once and ranks once; every
    per-instance measure is read from this pair.
    """
    top = top_k_indices(scores, k)
    labels = as_labels(labels, len(scores))
    return labels[top], int(labels.sum())


def _ap(ranked: np.ndarray, n_relevant: int) -> float:
    """Prefix-precision AP of ranked 0/1 labels, over min(len, n_relevant)."""
    if n_relevant == 0:
        raise UndefinedMetricError("AP@k undefined without relevant labels")
    hits = 0
    total = 0.0
    for i, rel in enumerate(ranked.tolist(), start=1):
        if rel:
            hits += 1
            total += hits / i
    return total / min(len(ranked), n_relevant)


def _ndcg(ranked: np.ndarray, n_relevant: int) -> float:
    if n_relevant == 0:
        raise UndefinedMetricError("NDCG@k undefined without relevant labels")
    dcg = float((ranked / np.log2(np.arange(1, len(ranked) + 1) + 1)).sum())
    ideal_len = min(len(ranked), n_relevant)
    idcg = float((1.0 / np.log2(np.arange(1, ideal_len + 1) + 1)).sum())
    return dcg / idcg


def tk_acc(scores, labels, k: int) -> int:
    """1 iff the set of relevant labels is contained in the top-k classes."""
    ranked, n_relevant = _top_k_labels(scores, labels, k)
    return int(ranked.sum() == n_relevant)


def precision_at_k(scores, labels, k: int) -> float:
    """Fraction of the top-k ranked classes that are relevant."""
    ranked, _ = _top_k_labels(scores, labels, k)
    return float(ranked.sum()) / k


def ap_at_k(scores, labels, k: int) -> float:
    """Average precision over the top-k prefix.

    Sums P@i at each relevant position i <= k and normalizes by
    N_k = min(k, number of relevant labels).
    """
    return _ap(*_top_k_labels(scores, labels, k))


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
    n, c = score_mat.shape
    if k > n:
        raise ValueError(f"k={k} exceeds instance count {n}")
    # Per column: instances ranked by their class-j score, ties by index.
    order = np.argsort(-score_mat, axis=0, kind="stable")[:k]
    ap_values = [
        _ap(label_mat[order[:, j], j], int(label_mat[:, j].sum()))
        for j in range(c)
        if label_mat[:, j].any()
    ]
    if not ap_values:
        raise UndefinedMetricError("no category has a relevant instance")
    return float(np.mean(ap_values))


def ndcg_at_k(scores, labels, k: int) -> float:
    """Discounted cumulative gain over the top k, normalized by the ideal."""
    return _ndcg(*_top_k_labels(scores, labels, k))


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
    undefined-metric marker.
    """
    norms = [float(np.linalg.norm(np.asarray(e, dtype=np.float64))) for e in perturbations]
    if not norms:
        return None
    return float(np.mean(norms))


# The per-instance measures, as MetricsRecord names them, in the order the
# outcome records and the report's delta columns list them.
MEASURES = ("tk_acc", "p_at_k", "ap_at_k", "ndcg_at_k")


@dataclass
class MetricsRecord:
    """Per-instance measure values at a fixed k."""

    k: int
    tk_acc: int
    p_at_k: float
    ap_at_k: float
    ndcg_at_k: float


def evaluate_instance(scores, labels, k: int) -> MetricsRecord:
    """All per-instance measures from one validation and one ranking."""
    ranked, n_relevant = _top_k_labels(scores, labels, k)
    hits = int(ranked.sum())
    return MetricsRecord(
        k=int(k),
        tk_acc=int(hits == n_relevant),
        p_at_k=float(hits) / k,
        ap_at_k=_ap(ranked, n_relevant),
        ndcg_at_k=_ndcg(ranked, n_relevant),
    )


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
) -> AggregateReport:
    """Aggregate one attacked instance set into a report row.

    ``clean`` and ``perturbed`` must describe the same instances in the
    same order (checked by length and k). The reported mAP@k is the
    sample mean of AP@k. APer averages over successful outcomes only.
    """
    if not (len(clean) == len(perturbed) == len(outcomes)) or len(clean) == 0:
        raise ValueError("clean, perturbed and outcomes must be non-empty and aligned")
    ks = {r.k for r in clean} | {r.k for r in perturbed}
    if len(ks) != 1:
        raise ValueError("mismatched k across records")

    def mean(records, name):
        return float(np.mean([getattr(r, name) for r in records]))

    return AggregateReport(
        *(mean(clean, name) - mean(perturbed, name) for name in MEASURES),
        delta_l=delta_l(outcomes),
        aper=aper([o.epsilon for o in outcomes if o.success]),
        n=len(clean),
    )


REPORT_COLUMNS = (
    "k",
    "s_size",
    "method",
    "delta_tk_acc",
    "delta_p_at_k",
    "delta_map_at_k",
    "delta_ndcg_at_k",
    "delta_l",
    "aper",
    "n",
)


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
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(REPORT_COLUMNS)
    writer.writerows([_fmt(row[col]) for col in REPORT_COLUMNS] for row in rows)
    atomic_write(path, buffer.getvalue())
