"""The verification suites of :mod:`suites` and their finite-difference oracle:
each suite passes on the library as it is and fails, alone, on a library nudged
in what it checks."""
import numpy as np
import pytest

import suites
from suites import finite_diff_check
from tkmia import attack, metrics, model
from tkmia.model import make_affine, make_mlp


def off_by(nudge):
    """A replacement for a function: the function with ``nudge`` applied to its result."""
    return lambda fn: lambda *args: nudge(fn(*args))


def below(fn):
    """A replacement for ``_tkmia_terms``: the function run at the next double below
    each lambda, which makes a gap of 0 active at lambda = 0."""
    return lambda vals, lam1, lam2, *rest: fn(vals, np.nextafter(lam1, -np.inf),
                                              np.nextafter(lam2, -np.inf), *rest)


def failed_suites(seed=0):
    """The names of the suites of :func:`suites.run_all_checks` that fail at ``seed``."""
    return [name for name, passed, _ in suites.run_all_checks(seed) if not passed]


class TestCheck:
    # At seed 7 a gradient suite that drew points near hinge kinks failed: a
    # central difference on the MLP victim straddled one.
    def test_check_passes_on_fresh_build(self):
        results = suites.run_all_checks(7)
        assert len(results) == 5 and all(passed for _, passed, _ in results)

    @pytest.mark.parametrize("module, name, replace, suite", [
        (attack, "tkmia_objective", off_by(lambda out: (out[0] + 1e-10, *out[1:])),
         "variational-top-k"),
        (attack, "_tkmia_terms", below, "hinge-identity"),
        (attack, "_tkmia_terms", off_by(lambda terms: (terms[0], terms[1] + 1e-3, terms[2])),
         "objective-gradients"),
        (attack, "_hinge_cot", off_by(lambda cot: None if cot is None else 1.01 * cot),
         "objective-gradients"),
        (metrics, "_measure_rows",
         off_by(lambda rows: {**rows, "ndcg_at_k": rows["ndcg_at_k"] + 1e-10}), "metric-oracles"),
        (model.Scorer, "input_gradient", off_by(lambda grad: grad + 1e-3), "model-gradients"),
    ], ids=["variational", "hinge", "tkmia-terms", "baseline-hinge", "measure-rows",
            "input-gradient"])
    def test_check_fails_on_a_slightly_wrong_library(self, monkeypatch, module, name, replace,
                                                     suite):
        monkeypatch.setattr(module, name, replace(getattr(module, name)))
        assert failed_suites() == [suite]

    def test_no_kink_free_point_is_one_line_error(self, monkeypatch):
        monkeypatch.setattr(suites, "_KINK_MARGIN", 10.0)
        with pytest.raises(ValueError) as info:
            suites.run_all_checks(3)
        assert str(info.value) == ("objective-gradients: no point 10 from every hinge kink "
                                   "in 1000 draws at seed 3")


class TestFiniteDiffCheck:
    def test_affine_near_machine_precision(self):
        model = make_affine(6, 4, seed=5)
        ok, err = finite_diff_check(model, np.linspace(-0.5, 0.5, 6), tolerance=1e-6)
        assert ok and err < 1e-6

    @pytest.mark.parametrize("arch", ["affine", "mlp"])
    def test_equals_the_per_class_loop_bit_for_bit(self, arch):
        def per_class_loop(model, x, tolerance, step=1e-5):
            # finite_diff_check as it was: 2 * c * d score calls, one class at a time
            x = np.asarray(x, dtype=np.float64)
            worst = 0.0
            for j in range(model.out_dim):
                cot = np.zeros(model.out_dim)
                cot[j] = 1.0
                analytic = model.input_gradient(x, cot)
                numeric = np.zeros_like(x)
                for i in range(x.shape[0]):
                    bump = np.zeros_like(x)
                    bump[i] = step
                    numeric[i] = (model.score(x + bump)[j] - model.score(x - bump)[j]) / (2 * step)
                scale = max(float(np.linalg.norm(numeric)), 1e-12)
                worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
            return worst <= tolerance, worst

        rng = np.random.default_rng(11)
        for trial in range(10):
            d, c = int(rng.integers(1, 9)), int(rng.integers(2, 9))
            model = (make_affine(d, c, seed=trial) if arch == "affine"
                     else make_mlp(d, int(rng.integers(1, 9)), c, seed=trial))
            x = rng.uniform(-0.8, 0.8, d)
            for tolerance, step in ((1e-4, 1e-5), (1e-9, 1e-3)):
                assert (finite_diff_check(model, x, tolerance, step)
                        == per_class_loop(model, x, tolerance, step))
