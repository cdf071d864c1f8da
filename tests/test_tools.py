"""Tests of the repository's scripts under .github that are not CI gates:
``mutation_sample.py``, whose killed and surviving mutants back the mutation
checks quoted in CHANGES.md, and ``product_trace.py``'s function list."""
import sys
import textwrap
from pathlib import Path

import pytest

GITHUB = Path(__file__).resolve().parents[1] / ".github"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(GITHUB))
    import mutation_sample
    return mutation_sample


class TestMutationSites:
    def test_sites_are_the_partnered_operators(self, scripts):
        source = textwrap.dedent("""\
            a = b - c * d
            a += 1
            if 0 < a <= b != c:
                e = -a ** 2 // b % c
        """)
        assert scripts.sites(source) == [
            (1, 6, "-", "+"), (1, 10, "*", "/"), (2, 2, "+=", "-="),
            (3, 5, "<", "<="), (3, 9, "<=", "<"), (3, 14, "!=", "==")]

    def test_operators_inside_strings_are_not_sites(self, scripts):
        source = 'a = "b - c" + d  # e * f\n'
        assert scripts.sites(source) == [(1, 12, "+", "-")]

    def test_columns_count_characters_after_non_ascii_text(self, scripts):
        # ast reports UTF-8 byte columns; the mutant is cut at character columns.
        source = 'a = "éé" + b\n'
        assert scripts.sites(source) == [(1, 9, "+", "-")]
        assert scripts.mutate(source, (1, 9, "+", "-")) == 'a = "éé" - b\n'

    def test_a_mutant_changes_only_its_operator(self, scripts):
        source = "x = (a + b) * c\nif x > 0:\n    x -= a / b\n"
        lines = source.splitlines(keepends=True)
        for line, col, old, new in scripts.sites(source):
            mutant = scripts.mutate(source, (line, col, old, new)).splitlines(keepends=True)
            expected = list(lines)
            expected[line - 1] = lines[line - 1][:col] + new + lines[line - 1][col + len(old):]
            assert mutant == expected


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_product_trace_keys_each_function_as_the_profiler_records_it(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(GITHUB))
    import product_trace

    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent("""\
        import functools


        @functools.lru_cache
        def cached(x):
            return [y for y in range(x)]


        class Box:
            def size(self):
                def inner():
                    return (lambda: 2)()
                return inner()


        def plain():
            return cached(3), Box().size()
    """))
    listed = product_trace.functions(str(path))
    assert listed == {4: "cached", 10: "Box.size", 11: "Box.size.<locals>.inner", 16: "plain"}

    entered = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == str(path):
            entered[frame.f_code.co_firstlineno] = frame.f_code.co_qualname

    namespace = {}
    sys.setprofile(profile)
    try:
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        namespace["plain"]()
    finally:
        sys.setprofile(None)
    assert {line: entered[line] for line in listed} == listed
