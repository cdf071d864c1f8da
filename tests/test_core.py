import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkmia.attack import _gaps, _split_sets
from tkmia.core import (
    Instance,
    atomic_write,
    avg_top_k,
    hinge,
    kth_largest,
    top_k_indices,
    variational_top_k_sum,
)

from support import ranking


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
        with pytest.raises(ValueError):
            top_k_indices([0.5, 1.2], 1)
        with pytest.raises(ValueError):
            top_k_indices([0.5, float("nan")], 1)
        with pytest.raises(ValueError):
            top_k_indices([0.5], 1)


class TestKthLargest:
    def test_basic(self):
        assert kth_largest([0.9, 0.1, 0.5], 2) == 0.5

    def test_tie_case(self):
        assert kth_largest([0.7, 0.7], 2) == 0.7

    def test_matches_sorted_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores = rng.uniform(0, 1, 12)
            k = int(rng.integers(1, 13))
            assert kth_largest(scores, k) == sorted(scores, reverse=True)[k - 1]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kth_largest([0.1, 0.2], 3)


class TestAvgTopK:
    def test_hand_value(self):
        assert avg_top_k([0.9, 0.5, 0.2], 2) == pytest.approx(0.7, abs=1e-15)

    def test_k_equals_c_is_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.uniform(0, 1, 8)
            assert avg_top_k(scores, 8) == pytest.approx(scores.mean(), abs=1e-12)

    def test_upper_bounds_kth_largest(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            c = int(rng.integers(2, 20))
            scores = rng.uniform(0, 1, c)
            k = int(rng.integers(1, c + 1))
            assert avg_top_k(scores, k) >= kth_largest(scores, k) - 1e-15

    def test_sorted_values_bit_for_bit_with_ties(self):
        # Scores on a 0.1 grid tie often; tied classes have equal values, so
        # the index ranking gives the sorted values exactly.
        rng = np.random.default_rng(5)
        for _ in range(500):
            c = int(rng.integers(2, 12))
            scores = rng.integers(0, 11, c) / 10.0
            k = int(rng.integers(1, c + 1))
            ranked = np.sort(scores)[::-1]
            assert kth_largest(scores, k) == float(ranked[k - 1])
            assert avg_top_k(scores, k) == float(ranked[:k].mean())

    def test_midpoint_convexity_of_topk_sum(self):
        # phi(u) = k * avg_top_k(u, k) is convex per component.
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = int(rng.integers(2, 12))
            k = int(rng.integers(1, c + 1))
            u = rng.uniform(0, 1, c)
            v = rng.uniform(0, 1, c)
            mid = k * avg_top_k((u + v) / 2, k)
            avg = (k * avg_top_k(u, k) + k * avg_top_k(v, k)) / 2
            assert mid <= avg + 1e-9


class TestVariationalForm:
    def test_hand_value(self):
        # 2*0.5 + (0.4 + 0 + 0) = 1.4, which is the top-2 sum of the scores
        assert variational_top_k_sum([0.9, 0.5, 0.2], 2, 0.5) == pytest.approx(1.4, abs=1e-15)
        assert variational_top_k_sum([0.9, 0.5, 0.2], 2, 0.5) == pytest.approx(
            2 * avg_top_k([0.9, 0.5, 0.2], 2), abs=1e-12)

    def test_lam_one_all_hinges_vanish(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.uniform(0, 0.999, 7)
            k = int(rng.integers(1, 8))
            assert variational_top_k_sum(scores, k, 1.0) == pytest.approx(k, abs=1e-12)

    def test_grid_minimum_matches_topk_sum(self):
        # Dense lambda grid oracle: the minimum over the grid can only sit
        # above the true minimum, and adding the analytic optimum f_[k]
        # recovers it exactly.
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(100):
            c = int(rng.integers(2, 16))
            k = int(rng.integers(1, c))
            scores = rng.uniform(0, 1, c)
            target = k * avg_top_k(scores, k)
            grid_min = min(variational_top_k_sum(scores, k, lam) for lam in grid)
            assert grid_min >= target - 1e-6
            at_opt = variational_top_k_sum(scores, k, kth_largest(scores, k))
            assert at_opt == pytest.approx(target, abs=1e-9)
            assert min(grid_min, at_opt) == pytest.approx(target, abs=1e-9)

    def test_lam_out_of_range(self):
        with pytest.raises(ValueError):
            variational_top_k_sum([0.5, 0.6], 1, 1.5)
        with pytest.raises(ValueError):
            variational_top_k_sum([0.5, 0.6], 1, -0.1)


class TestHinge:
    def test_values(self):
        assert hinge(0.3) == 0.3
        assert hinge(-0.3) == 0.0
        assert hinge(0.0) == 0.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_matches_max(self, a):
        assert hinge(a) == max(0.0, a)

    @settings(max_examples=300)
    @given(
        st.floats(min_value=1e-9, max_value=100.0),
        st.floats(min_value=1e-9, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_nested_hinge_collapses(self, a, b, x):
        # [[a - x]_+ - b]_+ == [a - x - b]_+ for positive a, b; both sides
        # share the same arithmetic order so equality is exact.
        assert hinge(hinge(a - x) - b) == hinge(a - x - b)


def delta_terms(scores, specified, relevant):
    """Hinged gaps ``[max_{s in S} f_s - f_i]_+`` as the objective forms them."""
    scores = np.asarray(scores, dtype=np.float64)
    spec, rest = _split_sets(specified, relevant, scores.shape[0])
    return np.maximum(_gaps(scores, np.array(spec), np.array(rest))[2], 0.0)


def delta_tilde_terms(scores, relevant, specified):
    """Hinged gaps ``[f_j - min_{y in Yp \\ S} f_y]_+`` as the objective forms them."""
    scores = np.asarray(scores, dtype=np.float64)
    spec, rest = _split_sets(specified, relevant, scores.shape[0])
    return np.maximum(_gaps(scores, np.array(spec), np.array(rest))[3], 0.0)


class TestDeltaTerms:
    def test_single_specified(self):
        out = delta_terms([0.8, 0.3, 0.6], [0], [0, 1])
        assert out.tolist() == pytest.approx([0.0, 0.5, 0.2], abs=1e-15)

    def test_zero_at_argmax_of_specified(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = rng.uniform(0, 1, 9)
            rel = sorted(rng.choice(9, size=4, replace=False).tolist())
            spec = rel[:3]
            out = delta_terms(scores, spec, rel)
            best = max(spec, key=lambda i: scores[i])
            assert out[best] == 0.0

    def test_sorted_view_matches_rank_definition(self):
        # Descending-sorted gaps equal the gap against the i-th smallest
        # score: Delta_[i] uses f_[c - i + 1].
        rng = np.random.default_rng(9)
        for _ in range(100):
            c = int(rng.integers(2, 12))
            scores = rng.uniform(0, 1, c)
            rel = sorted(rng.choice(c, size=int(rng.integers(2, c + 1)), replace=False).tolist())
            spec = rel[: int(rng.integers(1, len(rel)))]
            smax = max(scores[spec])
            ascending = np.sort(scores)
            expected = [hinge(smax - ascending[i]) for i in range(c)]
            got = np.sort(delta_terms(scores, spec, rel))[::-1]
            assert got.tolist() == pytest.approx(expected, abs=1e-12)


class TestDeltaTildeTerms:
    def test_hand_value(self):
        out = delta_tilde_terms([0.8, 0.3, 0.6], [0, 1], [0])
        assert out.tolist() == pytest.approx([0.5, 0.0, 0.3], abs=1e-15)

    def test_global_min_reference(self):
        scores = [0.8, 0.1, 0.6]
        out = delta_tilde_terms(scores, [0, 1], [0])
        assert np.all(out >= 0.0)
        assert out[1] == 0.0

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            c = int(rng.integers(3, 12))
            scores = rng.uniform(0, 1, c)
            rel = sorted(rng.choice(c, size=int(rng.integers(2, c + 1)), replace=False).tolist())
            spec = rel[: int(rng.integers(1, len(rel)))]
            ref = min(scores[i] for i in rel if i not in spec)
            expected = [hinge(scores[j] - ref) for j in range(c)]
            got = delta_tilde_terms(scores, rel, spec)
            assert got.tolist() == pytest.approx(expected, abs=1e-12)

    def test_empty_rest_rejected(self):
        with pytest.raises(ValueError):
            delta_tilde_terms([0.5, 0.6, 0.7], [0, 1], [0, 1])


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
            Instance.from_rows([x, x], [y, y])
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
            Instance.from_rows(block["x"], block["y"])

    def test_block_rows_equal_instances_built_one_by_one(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, (6, 4))
        y = (rng.uniform(size=(6, 3)) < 0.5).astype(np.int32)
        rows = Instance.from_rows(x, y)
        assert len(rows) == 6
        for i, inst in enumerate(rows):
            one = Instance(x[i], y[i])
            assert inst.x.tobytes() == one.x.tobytes() and inst.x.dtype == np.float64
            assert inst.y.tobytes() == one.y.tobytes() and inst.y.dtype == np.int64
            assert not inst.y.flags.writeable and not one.y.flags.writeable
            assert inst.relevant == one.relevant
        # The labels are a read-only copy: the caller's arrays stay writable.
        assert y.flags.writeable and x.flags.writeable
        assert Instance.from_rows(np.empty((0, 4)), np.empty((0, 3))) == []
        with pytest.raises(ValueError, match="^6 feature rows but 5 label rows$"):
            Instance.from_rows(x, y[:5])


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        with atomic_write(str(path)) as handle:
            handle.write("new\r\n")
            assert path.read_bytes() == b"old\n"  # nothing shows before the block ends
            handle.write("line\n")
        assert path.read_bytes() == b"new\r\nline\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("failure", ["write", "rename", "raise"])
    def test_failure_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        if failure == "write":
            text = "half written \udcff"  # a lone surrogate cannot be encoded
            expected = UnicodeEncodeError
        elif failure == "rename":
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr("tkmia.core.os.replace", refuse)
            text, expected = "new\n", OSError
        else:
            text, expected = "new\n", KeyError
        with pytest.raises(expected):
            with atomic_write(str(path)) as handle:
                handle.write(text)
                if failure == "raise":
                    raise KeyError("the caller fails mid-write")
        assert path.read_bytes() == b"old\n"
        assert not list(tmp_path.glob("*.tmp"))
