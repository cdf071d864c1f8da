"""Ranking primitives over multi-label score vectors.

A score vector is any finite vector (sigmoid outputs or raw logits): only
its ranking is used, with ties broken deterministically by smaller class
index, which keeps every downstream ranking quantity reproducible.
All functions here are pure and safe to call concurrently, apart from
:func:`atomic_write`, the one streaming file writer every output goes through,
and :func:`read_archive`, the one reader of dataset and scorer files.
"""
from __future__ import annotations

import math
import os
import zipfile
import zlib
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator

import numpy as np

__all__ = [
    "Instance",
    "Dataset",
    "top_k_indices",
    "kth_largest",
    "avg_top_k",
    "variational_top_k_sum",
    "hinge",
    "atomic_write",
    "read_archive",
]


def as_scores(values, ndim: int = 1) -> np.ndarray:
    """Validate and return a score vector as a float64 array; with
    ``ndim=2``, a matrix whose rows are score vectors.

    Requires at least 2 classes and every entry finite; the library only ranks.
    """
    scores = np.asarray(values, dtype=np.float64)
    if scores.ndim != ndim or scores.shape[-1] < 2:
        raise ValueError("score vector must be 1-D with at least 2 entries" if ndim == 1
                         else "score matrix must be 2-D with at least 2 columns")
    if not np.isfinite(scores).all():
        raise ValueError("score vector contains non-finite entries")
    return scores


def as_labels(bits, n_classes: int | None = None, ndim: int = 1) -> np.ndarray:
    """Validate a binary label vector (1 = relevant, 0 = irrelevant); with
    ``ndim=2``, a matrix whose rows are label vectors."""
    labels = np.asarray(bits)
    if labels.ndim != ndim:
        raise ValueError("label vector must be 1-D" if ndim == 1 else "label matrix must be 2-D")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("label entries must be 0 or 1")
    if n_classes is not None and labels.shape[-1] != n_classes:
        raise ValueError(
            f"label vector length {labels.shape[-1]} != score length {n_classes}"
        )
    return labels.astype(np.int64)


def _integer(value, message: str) -> int:
    """The one integer rule: ``value`` as an int if it is a Python or numpy
    integer, but not a bool (nor a float, which int() would truncate); else
    ValueError(``message`` followed by the value's repr)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{message} {value!r}")
    return int(value)


def _seed(value) -> int:
    """The one seed rule: the integer rule, and non-negative, as numpy's
    generators require."""
    seed = _integer(value, "seed must be an integer, got")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _finite(value, message: str) -> None:
    """The one finiteness rule for a number or a sequence of numbers, each checked as
    the float it denotes: else ValueError(``message`` followed by the value's repr).
    A Python integer beyond the float range, which numpy cannot convert, is not finite."""
    try:
        finite = np.isfinite(np.asarray(value, dtype=np.float64)).all()
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{message} {value!r}")


def _check_k(k: int, c: int) -> int:
    k = _integer(k, "k must be an integer, got")
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range [1, {c}]")
    return k


def _rows(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The one instance rule, checked once for a block of N instances: row i of
    ``x`` (N, d) and of ``y`` (N, c) are instance i's features and labels.

    Each row's x must be non-empty and finite, and its y non-empty with entries
    0 or 1. Returns x as float64 and y as a read-only int64 copy. The errors
    are those of :class:`Instance`, which is the N = 1 case.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.ndim(y) != 2:
        raise ValueError("label vector must be 1-D")
    y = as_labels(y, ndim=2)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("x must be 1-D and non-empty")
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite entries")
    if y.shape[1] == 0:
        raise ValueError("y must be non-empty")
    if len(x) != len(y):
        raise ValueError(f"{len(x)} feature rows but {len(y)} label rows")
    y.setflags(write=False)
    return x, y


@dataclass(frozen=True, eq=False)
class Instance:
    """One multi-label sample: feature vector ``x`` and binary labels ``y``.

    Frozen, with read-only labels, so the cached relevant set stays valid.
    Equal and hashed by identity. ``x`` and ``y`` may be rows of a
    :class:`Dataset`'s arrays.
    """

    x: np.ndarray
    y: np.ndarray

    # Written out, not generated: an instance is the N = 1 case of _rows, the one
    # instance rule, so its fields are that rule's converted arrays, set once.
    def __init__(self, x, y):
        (x,), (y,) = _rows(np.asarray(x, dtype=np.float64)[None], np.asarray(y)[None])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_classes(self) -> int:
        return int(self.y.shape[0])

    @cached_property
    def relevant(self) -> tuple[int, ...]:
        """Indices of relevant labels, ascending; computed on first use."""
        return tuple(self.y.nonzero()[0].tolist())

    @cached_property
    def irrelevant(self) -> tuple[int, ...]:
        """Indices of irrelevant labels, ascending; computed on first use."""
        return tuple((self.y == 0).nonzero()[0].tolist())


class Dataset(Sequence):
    """The instances of the rows of ``X`` (n, d) and ``Y`` (n, c), checked once by
    :class:`Instance`'s rule: item i views row i of float64 ``X`` and read-only int64 ``Y``.

    A read-only sequence that keeps only the two arrays: each access builds a fresh
    instance of its row, and building a dataset builds none. A slice is a tuple of
    the row instances. Instances compare by identity, and a fresh one is never a
    stored row, so ``in`` raises TypeError and there is no ``index`` or ``count``.
    Equal and hashed by identity.
    """

    __slots__ = ("X", "Y")
    # A search could only build every row and then find none.
    __contains__ = index = count = None

    def __new__(cls, X, Y):
        X, Y = _rows(X, Y)
        self = super().__new__(cls)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        return self

    def __setattr__(self, name, *value):  # every instance views X and Y, so neither moves
        raise AttributeError(f"Dataset attribute {name!r} is read-only")
    __delattr__ = __setattr__

    def __reduce__(self):  # copies and pickles are rebuilt from the two arrays
        return type(self), (self.X, self.Y)

    def __len__(self) -> int:
        return len(self.Y)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self.Y))[index]))
        try:
            i = range(len(self.Y))[index]
        except IndexError:
            raise IndexError("Dataset index out of range") from None
        return self._view(self.X[i], self.Y[i])

    @staticmethod
    def _view(x, y) -> Instance:
        inst = object.__new__(Instance)
        object.__setattr__(inst, "x", x)
        object.__setattr__(inst, "y", y)
        return inst

    @classmethod
    def of(cls, instances) -> "Dataset":
        """``instances`` as a dataset: a :class:`Dataset` as it is, any other sequence
        of instances with its rows stacked; an empty one is an error."""
        if not len(instances):
            raise ValueError("empty dataset")
        if isinstance(instances, cls):
            return instances
        return cls([inst.x for inst in instances], [inst.y for inst in instances])


def _rank(scores: np.ndarray) -> np.ndarray:
    """Class indices by descending score along the last axis, ties by smaller
    index; unchecked, so callers pass checked scores or a scorer's output.
    The method call skips the Python wrapper of ``np.argsort``; same bytes."""
    return (-scores).argsort(axis=-1, kind="stable")


def _l2_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a 1-D float64 array by linalg's own arithmetic,
    ``v.dot(v)`` and then a correctly rounded square root, without its wrapper; same bytes."""
    return math.sqrt(v.dot(v))


def top_k_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending, ties by smaller class index."""
    order = _rank(as_scores(scores))
    return order[:_check_k(k, order.shape[0])]


def kth_largest(scores, k: int) -> float:
    """The k-th largest score value."""
    scores = as_scores(scores)
    return float(scores[top_k_indices(scores, k)[-1]])


def avg_top_k(scores, k: int) -> float:
    """Mean of the k largest scores; an upper bound on the k-th largest."""
    scores = as_scores(scores)
    return float(scores[top_k_indices(scores, k)].mean())


def variational_top_k_sum(scores, k: int, lam: float) -> float:
    """Evaluate ``k*lam + sum_i max(0, f_i - lam)``, for lam in [0, 1].

    Minimized over all real lam it is the sum of the k largest scores (at lam =
    the k-th largest); over lam in [0, 1] that needs the k-th largest in [0, 1].
    """
    scores = as_scores(scores)
    k = _check_k(k, scores.shape[0])
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam={lam} out of range [0, 1]")
    return float(k * lam + np.maximum(scores - lam, 0.0).sum())


def hinge(a: float) -> float:
    """max(0, a)."""
    return max(0.0, float(a))


@contextmanager
def atomic_write(path: str, binary: bool = False) -> Iterator[IO]:
    """Yield a handle on a temp file that replaces ``path`` on a clean exit: a text
    handle, or with ``binary`` a bytes handle.

    The temp file lives in the target's directory, so the rename is atomic:
    readers see the old file or the whole new one. If the block or the rename
    raises, the temp file is removed and an existing target keeps its old
    bytes. Text is written without newline translation.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    # Mode 0666 less the umask, as open(path, "w") gives a new file; mkstemp's temp
    # file, and so the target, would be 0600 whatever the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# The dtype kinds that an archive entry of each kind may hold.
_KINDS = {"numeric": "biuf", "bool": "b", "str": "U"}


def read_archive(path: str, what: str, layouts: Sequence[dict], build):
    """Read the ``.npz`` archive of a ``what`` at ``path``, without pickles, and return
    ``build`` of its dict of arrays.

    The archive must hold exactly the entries of one of ``layouts``, each a dict of
    entry name to (ndim, kind), where kind is "numeric", "bool" or "str". Any other
    file, and any ValueError of ``build``, raises one ValueError line that begins
    with ``path``. A missing file keeps its OSError, which names it.
    """
    # Each layout's names as "A, B and C"; the layouts joined by ", or ".
    names = ", or ".join(" and ".join(", ".join(layout).rsplit(", ", 1)) for layout in layouts)
    with open(path, "rb") as handle:
        try:
            if handle.read(4) != b"PK\x03\x04":  # np.load would read a .npy or a pickle
                raise ValueError(f"not a {what} archive (a zip of the arrays {names})")
            handle.seek(0)
            with np.load(handle, allow_pickle=False) as archive:
                layout = next((layout for layout in layouts
                               if sorted(layout) == sorted(archive.files)), None)
                if layout is None:
                    raise ValueError(f"expected the arrays {names}, got {archive.files}")
                # asarray: numpy gives an entry that holds no .npy data as bytes.
                arrays = {name: np.asarray(archive[name]) for name in layout}
            for name, (ndim, kind) in layout.items():
                array = arrays[name]
                if array.dtype.kind not in _KINDS[kind] or array.ndim != ndim:
                    raise ValueError(f"{name} must be a {ndim}-D {kind} array, "
                                     f"got {array.ndim}-D {array.dtype}")
            return build(arrays)
        # What numpy and zipfile raise on a damaged archive, an encrypted or unknown
        # compression among them (RuntimeError), and an entry whose header declares
        # more than memory holds (MemoryError: numpy allocates before it reads),
        # besides the checks' ValueError.
        except (ValueError, EOFError, OSError, RuntimeError, MemoryError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"{path}: {exc}") from None
