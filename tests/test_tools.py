"""Tests of the repository's scripts under .github that are not CI gates:
``mutation_sample.py``, whose killed, surviving and equivalent mutants back the
mutation checks quoted in CHANGES.md, and ``product_trace.py``."""
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


class TestEquivalentMutants:
    def test_each_listed_mutant_is_one_site_of_its_module(self, scripts):
        for module, line_text, at, reason in scripts.EQUIVALENT:
            source = (GITHUB.parent / module).read_text()
            lines = source.splitlines()
            matched = [site for site in scripts.sites(source)
                       if lines[site[0] - 1].strip() == line_text
                       and lines[site[0] - 1][site[1]:].startswith(at)]
            assert len(matched) == 1, (module, line_text, at)
            assert matched[0][2] == at.split()[0]  # the whole operator, "<" not "<="
            assert scripts.equivalent(module, lines, matched[0]) == reason

    def test_equivalent_survivors_are_counted_apart(self, scripts, monkeypatch, capsys):
        # Every test run passes, so every mutant survives: the one listed mutant on the
        # midpoint line is reported as equivalent, with its reason, and the rest survive.
        module = "src/tkmia/harness.py"
        line_text = "u = lo + (hi - lo) / 128 * (np.arange(128) + 0.5)"
        lines = (GITHUB.parent / module).read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if text.strip() == line_text)
        monkeypatch.setattr(scripts, "run_tests", lambda copy, tests: 0)
        assert scripts.main([module, "tests/test_harness.py", "--lines", str(line)]) == 0
        out = capsys.readouterr().out.splitlines()
        reason = next(r for path, text, at, r in scripts.EQUIVALENT if at == "+ 0.5")
        assert [row.split()[0] for row in out[:-1]] == ["survived"] * 4 + ["equivalent"]
        assert out[-2].endswith(f"(np.arange(128) + 0.5) | equivalent: {reason}")
        assert out[-1].endswith(": 0 killed, 4 survived, 1 equivalent")


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


def test_product_trace_reports_on_the_files_its_commands_write(tmp_path, monkeypatch):
    # The report on the dataset and victim files that gen-data and train wrote is the
    # report of the config that they were written from, byte for byte.
    monkeypatch.syspath_prepend(str(GITHUB))
    import product_trace

    affine, files, _ = product_trace.configs()
    assert files == {**affine, "dataset": {"path": "data.npz"}, "victim": {"path": "victim.npz"},
                     "out_csv": "files.csv", "out_outcomes": "files.jsonl"}
    monkeypatch.chdir(tmp_path)
    assert product_trace.run_commands() == []
    for suffix in ("csv", "jsonl"):
        assert ((tmp_path / f"files.{suffix}").read_bytes()
                == (tmp_path / f"affine.{suffix}").read_bytes())
