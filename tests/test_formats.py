"""Round trips of the dataset and scorer file formats.

Saving, loading and saving again must give the same bytes, and a line
broken by a mutation must be rejected in one line that names it: the
dataset by its line number, the scorer by its layer number.
"""
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkmia.core import Instance
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


# Each takes a saved record and gives a line that is invalid on its own.
DATASET_MUTATIONS = [
    lambda r: json.dumps(r)[:-1],
    lambda r: "[]",
    lambda r: json.dumps({"x": r["x"]}),
    lambda r: json.dumps({"x": r["x"], "y": [2] + r["y"][1:]}),
    lambda r: json.dumps({"x": [float("nan")] + r["x"][1:], "y": r["y"]}),
    lambda r: json.dumps({"x": [], "y": r["y"]}),
]
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
    def test_mutated_line_is_named(self, data, draw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            save_dataset(data, path)
            with open(path) as handle:
                lines = handle.read().splitlines()
        i = draw.draw(st.integers(0, len(lines) - 1))
        mutate = draw.draw(st.sampled_from(DATASET_MUTATIONS))
        lines[i] = mutate(json.loads(lines[i]))
        message, path = load_error(load_dataset, lines)
        assert message.startswith(f"{path} line {i + 1}: ")
        assert "\n" not in message


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
