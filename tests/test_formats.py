"""Round trips of the dataset and scorer file formats.

Saving, loading and saving again must give the same bytes. A dataset or scorer
archive broken by a mutation, or one whose entry declares more values than memory
holds, must be rejected in one line that names the file.
"""
import io
import os
import tempfile
import zipfile

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
        first, second = os.path.join(tmp, "a.npz"), os.path.join(tmp, "b.npz")
        save(obj, first)
        save(load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read(), b.read()


class TestDatasetFormat:
    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_save_load_save_gives_the_same_bytes(self, data):
        first, second = save_load_save(save_dataset, load_dataset, data)
        assert first == second


class TestScorerFormat:
    @settings(max_examples=100, deadline=None)
    @given(scorers())
    def test_save_load_save_gives_the_same_bytes(self, model):
        first, second = save_load_save(save_scorer, load_scorer, model)
        assert first == second


class TestMutatedArchive:
    @pytest.mark.parametrize("save, load, objects", [
        (save_dataset, load_dataset, datasets()),
        (save_scorer, load_scorer, scorers()),
    ], ids=["dataset", "scorer"])
    @settings(max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_mutated_archive_is_named_or_loads_unchanged(self, save, load, objects, draw):
        # A byte of the archive changed, or its tail cut off. An entry's CRC-32 covers
        # its bytes, so a changed byte that is read fails the load; one that is not
        # read (a date, say) loads what was saved, which saves to the same bytes.
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "saved.npz"), os.path.join(tmp, "again.npz")
            save(draw.draw(objects), path)
            with open(path, "rb") as handle:
                saved = handle.read()
            content = bytearray(saved)
            i = draw.draw(st.integers(0, len(content) - 1))
            if draw.draw(st.booleans()):
                content[i] ^= draw.draw(st.integers(1, 255))
            else:
                del content[i:]
            with open(path, "wb") as handle:
                handle.write(content)
            try:
                loaded = load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
            else:
                save(loaded, again)
                with open(again, "rb") as handle:
                    assert handle.read() == saved


class TestDeclaredSize:
    @pytest.mark.parametrize("load, arrays", [
        (load_dataset, {"X": None, "Y": np.eye(2)}),
        (load_scorer, {"weight_1": None, "bias_1": np.zeros(2), "activation": np.array("tanh"),
                       "sigmoid_output": np.array(True)}),
    ], ids=["dataset", "scorer"])
    def test_entry_larger_than_memory_named_in_one_line(self, tmp_path, load, arrays):
        # The entry of None declares 10**15 float64 values and holds none; numpy
        # allocates an entry's array before it reads the data.
        path = tmp_path / "huge.npz"
        with zipfile.ZipFile(path, "w") as archive:
            for name, array in arrays.items():
                entry = io.BytesIO()
                if array is None:
                    np.lib.format.write_array_header_1_0(
                        entry, {"descr": "<f8", "fortran_order": False, "shape": (10**8, 10**7)})
                else:
                    np.save(entry, array)
                archive.writestr(f"{name}.npy", entry.getvalue())
        with pytest.raises(ValueError) as info:
            load(str(path))
        assert str(info.value).startswith(f"{path}: Unable to allocate ")
        assert "\n" not in str(info.value)
