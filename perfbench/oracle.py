"""Output checks written independently of tkmia's own ranking code.

Every attack outcome is checked against a rank oracle that sorts classes
by (-score, class index), and every CSV row is recomputed from the
outcome records. Checks run after the timed region; a mismatch counts
the operation as failed.
"""
from __future__ import annotations

import csv
import math

import numpy as np

TOL = 1e-12


def ranking(scores) -> list[int]:
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def measures(scores, labels, k: int) -> dict:
    """tk_acc, P@k, AP@k and NDCG@k from their textbook definitions."""
    top = ranking(scores)[:k]
    ranked = [labels[i] for i in top]
    n_rel = sum(labels)
    hits = 0
    ap = 0.0
    for i, rel in enumerate(ranked, start=1):
        if rel:
            hits += 1
            ap += hits / i
    dcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(ranked, start=1))
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, min(k, n_rel) + 1))
    return {
        "tk_acc": int(all(i in top for i, y in enumerate(labels) if y)),
        "p_at_k": sum(ranked) / k,
        "ap_at_k": ap / min(k, n_rel),
        "ndcg_at_k": dcg / idcg,
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _all_close(xs, ys) -> bool:
    return len(xs) == len(ys) and all(_close(a, b) for a, b in zip(xs, ys))


def check_record(record: dict, x, labels, specified, k: int, max_iter: int,
                 score) -> list[str]:
    """Problems with one outcome record; an empty list means it is right.

    ``score`` maps a feature vector to the victim's score list and is used
    to confirm that the reported perturbation produces the reported
    scores. ``x`` is a numpy vector; the perturbed input is clipped to
    the attack's [-1, 1] domain as the attack does.
    """
    problems = []
    spec = sorted(int(i) for i in specified)
    if record["specified"] != spec:
        problems.append(f"specified {record['specified']} != {spec}")
    before, after = record["scores_before"], record["scores_after"]
    if not _all_close(before, score(x)):
        problems.append("scores_before differ from the victim's clean scores")
    eps = np.asarray(record["epsilon"], dtype=np.float64)
    if not _all_close(after, score(np.clip(x + eps, -1.0, 1.0))):
        problems.append("scores_after differ from the victim's scores at x + epsilon")
    if not _close(record["epsilon_norm"], math.sqrt(sum(e * e for e in record["epsilon"]))):
        problems.append("epsilon_norm is not the norm of epsilon")
    top = set(ranking(after)[:k])
    residual = [i for i in spec if i in top]
    if record["residual"] != residual:
        problems.append(f"residual {record['residual']} != oracle {residual}")
    if record["success"] != (not residual):
        problems.append(f"success {record['success']} disagrees with the rank oracle")
    its = record["iterations_used"]
    if not 0 <= its <= max_iter or (not record["success"] and its != max_iter):
        problems.append(f"iterations_used {its} impossible for success={record['success']}")
    for key, scores in (("clean_metrics", before), ("perturbed_metrics", after)):
        if key in record:
            expect = measures(scores, labels, k)
            got = record[key]
            if got["tk_acc"] != expect["tk_acc"] or not all(
                    _close(got[m], expect[m]) for m in ("p_at_k", "ap_at_k", "ndcg_at_k")):
                problems.append(f"{key} {got} != oracle {expect}")
    return problems


def mean(values) -> float:
    return math.fsum(values) / len(values)


def expected_row(records: list[dict], s_size) -> dict:
    """The CSV row one (k, method) cell's outcome records imply."""
    clean = [r["clean_metrics"] for r in records]
    pert = [r["perturbed_metrics"] for r in records]
    row = {"n": len(records), "s_size": s_size}
    for col, metric in (("delta_tk_acc", "tk_acc"), ("delta_p_at_k", "p_at_k"),
                        ("delta_map_at_k", "ap_at_k"), ("delta_ndcg_at_k", "ndcg_at_k")):
        row[col] = mean([c[metric] for c in clean]) - mean([p[metric] for p in pert])
    row["delta_l"] = mean([len(r["specified"]) - len(r["residual"]) for r in records])
    norms = [r["epsilon_norm"] for r in records if r["success"]]
    row["aper"] = mean(norms) if norms else float("nan")
    return row


def read_csv(path: str) -> dict:
    """CSV rows keyed by (k, method), numbers parsed."""
    rows = {}
    with open(path, newline="") as handle:
        for raw in csv.DictReader(handle):
            row = {key: float(value) for key, value in raw.items() if key not in ("k", "method")}
            row["n"] = int(raw["n"])
            rows[(int(raw["k"]), raw["method"])] = row
    return rows


def row_problems(got: dict, want: dict) -> list[str]:
    return [f"{col}: csv {got.get(col)} != recomputed {value}"
            for col, value in want.items() if not _close(got.get(col), float(value))]
