import collections.abc
import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from tkmia.core import Dataset, Instance, atomic_write, top_k_indices

from support import built_views, ranking


class TestTopKIndices:
    def test_direct_ordering(self):
        assert top_k_indices([0.9, 0.1, 0.5], 2).tolist() == [0, 2]

    def test_tie_break_by_index(self):
        assert top_k_indices([0.4, 0.4, 0.4], 2).tolist() == [0, 1]

    def test_matches_sort_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores = rng.uniform(0, 1, 15)
            k = int(rng.integers(1, 16))
            assert top_k_indices(scores, k).tolist() == ranking(scores)[:k]

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for _ in range(200):
            scores = levels[rng.integers(0, 5, size=10)]
            k = int(rng.integers(1, 11))
            assert top_k_indices(scores, k).tolist() == ranking(scores)[:k]

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            top_k_indices([0.1, 0.2, 0.3], k)

    @pytest.mark.parametrize("k", [1.7, 2.0, np.float64(1.0), True, "1"])
    def test_k_must_be_an_integer(self, k):
        # int() would truncate 1.7 to 1 and read True as 1.
        with pytest.raises(ValueError) as raised:
            top_k_indices([0.9, 0.8, 0.1], k)
        assert str(raised.value) == f"k must be an integer, got {k!r}"

    def test_numpy_integer_k_accepted(self):
        assert top_k_indices([0.9, 0.8, 0.1], np.int32(2)).tolist() == [0, 1]

    def test_rejects_bad_scores(self):
        # Any finite vector is a score vector: only its ranking is used.
        assert top_k_indices([0.5, 1.2], 1).tolist() == [1]
        with pytest.raises(ValueError):
            top_k_indices([0.5, float("nan")], 1)
        with pytest.raises(ValueError):
            top_k_indices([0.5], 1)


class TestInstance:
    def test_relevant_irrelevant_split(self):
        inst = Instance(x=np.zeros(3), y=[1, 0, 1, 0])
        assert inst.relevant == (0, 2)
        assert inst.irrelevant == (1, 3)
        assert inst.n_classes == 4

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Instance(x=np.zeros(2), y=[0, 2])

    def test_relevant_is_flatnonzero_computed_once(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = (rng.uniform(size=int(rng.integers(1, 12))) < 0.5).astype(int)
            inst = Instance(x=np.zeros(2), y=y)
            assert "relevant" not in vars(inst)
            assert inst.relevant == tuple(np.flatnonzero(y).tolist())
            assert all(type(i) is int for i in inst.relevant)
            assert inst.relevant is inst.relevant

    def test_fields_cannot_change_under_the_cache(self):
        inst = Instance(x=np.zeros(3), y=[1, 0, 1, 0])
        assert inst.relevant == (0, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.y = np.array([0, 1, 0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.x = np.ones(3)
        with pytest.raises(ValueError, match="read-only"):
            inst.y[1] = 1
        assert inst.relevant == (0, 2)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Instance(x=[np.inf, 0.0], y=[1, 0])

    @pytest.mark.parametrize("x, y, message", [
        ([0.5, np.nan], [1, 0], "x contains non-finite entries"),
        ([0.5, np.inf], [1, 0], "x contains non-finite entries"),
        ([0.5, 0.1], [1, 2], "label entries must be 0 or 1"),
        ([0.5, 0.1], [], "y must be non-empty"),
        ([[0.5], [0.1]], [1, 0], "x must be 1-D and non-empty"),
        ([], [1, 0], "x must be 1-D and non-empty"),
        ([0.5, 0.1], [[1, 0]], "label vector must be 1-D"),
    ])
    def test_a_block_and_one_instance_share_one_rule(self, x, y, message):
        with pytest.raises(ValueError) as one:
            Instance(x, y)
        with pytest.raises(ValueError) as block:
            Dataset([x, x], [y, y])
        assert str(one.value) == str(block.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("x", np.nan, "x contains non-finite entries"),
        ("y", 2, "label entries must be 0 or 1"),
    ])
    def test_every_row_of_a_block_is_checked(self, field, value, message):
        rng = np.random.default_rng(8)
        block = {"x": rng.uniform(-1.0, 1.0, (5, 3)), "y": np.array([[1, 0]] * 5)}
        block[field][3, 1] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(block["x"], block["y"])

    def test_block_rows_equal_instances_built_one_by_one(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, (6, 4))
        y = (rng.uniform(size=(6, 3)) < 0.5).astype(np.int32)
        rows = Dataset(x, y)
        assert len(rows) == 6
        for i, inst in enumerate(rows):
            one = Instance(x[i], y[i])
            assert inst.x.tobytes() == one.x.tobytes() and inst.x.dtype == np.float64
            assert inst.y.tobytes() == one.y.tobytes() and inst.y.dtype == np.int64
            assert not inst.y.flags.writeable and not one.y.flags.writeable
            assert inst.relevant == one.relevant
        # The labels are a read-only copy: the caller's arrays stay writable.
        assert y.flags.writeable and x.flags.writeable
        empty = Dataset(np.empty((0, 4)), np.empty((0, 3)))
        assert len(empty) == 0 and tuple(empty) == ()
        with pytest.raises(ValueError, match="^6 feature rows but 5 label rows$"):
            Dataset(x, y[:5])


def rows_of(data, instances):
    """The row of ``data`` that each instance views, found by shared memory and
    checked by bytes."""
    rows = []
    for inst in instances:
        (i,) = [i for i in range(len(data)) if np.shares_memory(inst.x, data.X[i])]
        assert np.shares_memory(inst.y, data.Y[i])
        assert inst.x.tobytes() == data.X[i].tobytes() and inst.y.tobytes() == data.Y[i].tobytes()
        rows.append(i)
    return rows


class TestDataset:
    def test_rows_view_one_pair_of_arrays(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1.0, 1.0, (5, 4))
        data = Dataset(x, (rng.uniform(size=(5, 3)) < 0.5).astype(np.int8))
        assert type(data) is Dataset and isinstance(data, collections.abc.Sequence)
        assert data.X is x and data.Y.dtype == np.int64 and not data.Y.flags.writeable
        for i, inst in enumerate(data):
            assert inst.x.base is data.X and inst.y.base is data.Y
            assert inst.x.tobytes() == data.X[i].tobytes()
            assert inst.y.tobytes() == data.Y[i].tobytes()

    def test_of_passes_a_dataset_through_and_stacks_a_list(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, (7, 4))
        y = (rng.uniform(size=(7, 3)) < 0.5).astype(np.int64)
        data = Dataset(x, y)
        assert Dataset.of(data) is data
        for instances in (list(data), [Instance(xi, yi) for xi, yi in zip(x, y)], tuple(data)):
            stacked = Dataset.of(instances)
            assert type(stacked) is Dataset and stacked is not data
            assert stacked.X.tobytes() == x.tobytes() and stacked.X.dtype == np.float64
            assert stacked.Y.tobytes() == y.tobytes() and stacked.Y.dtype == np.int64
            assert [inst.relevant for inst in stacked] == [inst.relevant for inst in data]

    def test_copies_and_pickles_rebuild_from_the_arrays(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.uniform(-1.0, 1.0, (4, 3)), [[1, 0], [0, 1], [1, 1], [0, 1]])
        for other in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            assert type(other) is Dataset and len(other) == 4
            assert other.X.tobytes() == data.X.tobytes() and other.Y.tobytes() == data.Y.tobytes()
            assert np.shares_memory(other[2].x, other.X) and np.shares_memory(other[2].y, other.Y)
            assert other[2].relevant == (0, 1)

    def test_copies_and_pickles_build_their_own_rows_on_access(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.uniform(-1.0, 1.0, (4, 3)), [[1, 0], [0, 1], [1, 1], [0, 1]])
        for other in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            assert rows_of(other, other) == [0, 1, 2, 3]
            for i, inst in enumerate(other):
                assert inst is not other[i]  # each read builds a fresh view
                assert inst.x.tobytes() == data.X[i].tobytes()
                assert inst.y.tobytes() == data.Y[i].tobytes()
                assert not np.shares_memory(inst.y, data.Y)  # the copy's own labels

    def test_building_allocates_no_row_objects(self, monkeypatch):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1.0, 1.0, (10_000, 32))
        Y = (rng.uniform(size=(10_000, 10)) < 0.3).astype(np.int64)
        built = built_views(monkeypatch)
        tracemalloc.start()
        try:
            data = Dataset(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The read-only int64 copy of Y is 0.8 MB; a view per row was 3.2 MB more.
        assert peak < 1.5e6 and built == []
        last, again = data[9_999], data[-1]
        assert last is not again and rows_of(data, [last, again]) == [9_999, 9_999]
        assert len(built) == 2

    def test_index_out_of_range_raises_index_error(self):
        data = Dataset(np.arange(6.0).reshape(3, 2), [[1, 0], [0, 1], [1, 1]])
        for index in (3, -4, np.int64(3), 10**20):
            with pytest.raises(IndexError, match="^Dataset index out of range$"):
                data[index]
        assert rows_of(data, [data[np.int64(-3)], data[True], data[-1]]) == [0, 1, 2]
        with pytest.raises(TypeError):
            data["0"]

    def test_slices_and_iteration_give_the_indexed_row_objects(self):
        data = Dataset(np.arange(12.0).reshape(6, 2), np.eye(6, 3, dtype=int))
        for window in (slice(1, 4), slice(None, None, -2), slice(-2, None), slice(5, 1),
                       slice(0, 99)):
            got = data[window]
            assert type(got) is tuple
            assert rows_of(data, got) == list(range(6)[window])
        assert rows_of(data, data) == list(range(6))
        assert rows_of(data, reversed(data)) == list(range(5, -1, -1))

    def test_membership_raises_type_error_and_builds_no_row(self, monkeypatch):
        data = Dataset(np.zeros((5, 2)), np.ones((5, 2), dtype=int))
        inst = data[3]
        built = built_views(monkeypatch)
        # A fresh view is never a stored row: a search could only build every row.
        for value in (inst, Instance(inst.x, inst.y), 3):
            for search in (lambda: value in data, lambda: data.index(value),
                           lambda: data.count(value)):
                with pytest.raises(TypeError):
                    search()
        assert built == []
        # Equal and hashed by identity, as a tuple of the same rows is not.
        other = Dataset(data.X, data.Y)
        assert data != other and data == data and hash(data) != hash(other)
        with pytest.raises(TypeError):
            data + data

    def test_arrays_cannot_be_rebound_or_deleted(self):
        # Every instance views X and Y, so a rebound array would leave them stale.
        data = Dataset(np.zeros((3, 2)), [[1, 0], [0, 1], [1, 1]])
        X, Y = data.X, data.Y
        for change in (lambda: setattr(data, "X", np.ones((5, 5))), lambda: delattr(data, "Y"),
                       lambda: setattr(data, "Z", 1)):
            with pytest.raises(AttributeError, match="read-only"):
                change()
        assert data.X is X and data.Y is Y and data[0].x.base is X

    @pytest.mark.parametrize("empty", [[], (), Dataset(np.empty((0, 4)), np.empty((0, 3)))])
    def test_of_rejects_an_empty_dataset(self, empty):
        with pytest.raises(ValueError, match="^empty dataset$"):
            Dataset.of(empty)


# atomic_write's text and binary modes, each with the kind of data its handle writes.
MODES = pytest.mark.parametrize("binary, as_mode", [(False, str), (True, str.encode)],
                                ids=["text", "binary"])


class TestAtomicWrite:
    @MODES
    def test_replaces_target(self, tmp_path, binary, as_mode):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        with atomic_write(str(path), binary=binary) as handle:
            handle.write(as_mode("new\r\n"))
            assert path.read_bytes() == b"old\n"  # nothing shows before the block ends
            handle.write(as_mode("line\n"))
        assert path.read_bytes() == b"new\r\nline\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @MODES
    @pytest.mark.parametrize("failure", ["write", "rename", "raise"])
    def test_failure_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch, failure,
                                                      binary, as_mode):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        if failure == "write":
            # A text handle cannot encode a lone surrogate; a bytes handle takes no str.
            data, expected = "half written \udcff", TypeError if binary else UnicodeEncodeError
        elif failure == "rename":
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr("tkmia.core.os.replace", refuse)
            data, expected = as_mode("new\n"), OSError
        else:
            data, expected = as_mode("new\n"), KeyError
        with pytest.raises(expected):
            with atomic_write(str(path), binary=binary) as handle:
                handle.write(data)
                if failure == "raise":
                    raise KeyError("the caller fails mid-write")
        assert path.read_bytes() == b"old\n"
        assert not list(tmp_path.glob("*.tmp"))
