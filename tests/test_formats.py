"""Round trips of the dataset and scorer file formats.

Saving, loading and saving again must give the same bytes. A dataset archive
broken by a mutation must be rejected in one line that names the file, and a
scorer line broken by a mutation in one line that names its layer number.
"""
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkmia.core import Dataset, Instance
from tkmia.harness import load_dataset, save_dataset
from tkmia.model import ACTIVATIONS, Scorer, load_scorer, save_scorer

finite = st.floats(allow_nan=False, allow_infinity=False)


def vectors(size):
    return st.lists(finite, min_size=size, max_size=size)


@st.composite
def datasets(draw):
    n, d, c = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    bits = st.lists(st.integers(0, 1), min_size=c, max_size=c)
    return [Instance(draw(vectors(d)), draw(bits)) for _ in range(n)]


@st.composite
def scorers(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))  # in, [hidden,] out
    weights = [np.array(draw(vectors(o * i))).reshape(o, i) for i, o in zip(dims, dims[1:])]
    biases = [np.array(draw(vectors(o))) for o in dims[1:]]
    # An affine scorer has no hidden activation; it always carries tanh.
    activation = draw(st.sampled_from(ACTIVATIONS)) if len(weights) == 2 else "tanh"
    return Scorer(weights, biases, activation, draw(st.booleans()))


def save_load_save(save, load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.jsonl"), os.path.join(tmp, "b.jsonl")
        save(obj, first)
        save(load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read(), b.read()


def load_error(load, lines):
    """The error of ``load`` on a file of ``lines``, and the file's path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.jsonl")
        with open(path, "w") as handle:
            handle.write("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as info:
            load(path)
        return str(info.value), path


# Each takes a saved layer record and gives a line that is invalid on its own.
LAYER_MUTATIONS = [
    lambda r: json.dumps(r)[:-1],
    lambda r: "[]",
    lambda r: json.dumps({"weight": r["weight"]}),
    lambda r: json.dumps({"weight": r["weight"][1:], "bias": r["bias"]}),
    lambda r: json.dumps({"weight": r["weight"], "bias": r["bias"][1:]}),
    lambda r: json.dumps({"weight": r["weight"], "bias": [float("inf")] + r["bias"][1:]}),
]


class TestDatasetFormat:
    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_save_load_save_gives_the_same_bytes(self, data):
        first, second = save_load_save(save_dataset, load_dataset, data)
        assert first == second

    @settings(max_examples=100, deadline=None)
    @given(datasets(), st.data())
    def test_mutated_archive_is_named_or_loads_unchanged(self, data, draw):
        # A byte of the archive changed, or its tail cut off. An entry's CRC-32 covers
        # its bytes, so a changed byte that is read fails the load; one that is not
        # read (a date, say) loads the saved arrays.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.npz")
            save_dataset(data, path)
            with open(path, "rb") as handle:
                content = bytearray(handle.read())
            i = draw.draw(st.integers(0, len(content) - 1))
            if draw.draw(st.booleans()):
                content[i] ^= draw.draw(st.integers(1, 255))
            else:
                del content[i:]
            with open(path, "wb") as handle:
                handle.write(content)
            try:
                loaded = load_dataset(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
            else:
                expected = Dataset.of(data)
                assert loaded.X.tobytes() == expected.X.tobytes()
                assert loaded.Y.tobytes() == expected.Y.tobytes()


class TestScorerFormat:
    @settings(max_examples=100, deadline=None)
    @given(scorers())
    def test_save_load_save_gives_the_same_bytes(self, model):
        first, second = save_load_save(save_scorer, load_scorer, model)
        assert first == second

    @settings(max_examples=100, deadline=None)
    @given(scorers(), st.data())
    def test_mutated_layer_is_named(self, model, draw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scorer.jsonl")
            save_scorer(model, path)
            with open(path) as handle:
                lines = handle.read().splitlines()
        number = draw.draw(st.integers(1, len(lines) - 1))  # line 0 is the header
        mutate = draw.draw(st.sampled_from(LAYER_MUTATIONS))
        lines[number] = mutate(json.loads(lines[number]))
        message, path = load_error(load_scorer, lines)
        assert message.startswith(f"{path}: layer {number}: ")
        assert "\n" not in message
