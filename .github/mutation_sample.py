"""Run a seeded sample of one-operator mutants of a module against test files,
in a copy of the repository, and print which the tests kill.

    python .github/mutation_sample.py MODULE [--sample N] [--seed S] [--lines A-B] TEST...

MODULE is a path under the repository, e.g. src/tkmia/harness.py; each TEST is
a pytest argument, a file or a node id, relative to the repository. A site is
the operator of a binary operation, an augmented assignment or a comparison
that has a partner: < and <=, > and >=, == and !=, + and -, * and /. A mutant
swaps one site's operator for its partner in the source text, so every other
line keeps its bytes and its number. ``--lines`` keeps the sites on those lines;
``--sample`` of the rest are drawn by ``random.Random(seed)``.

The repository is copied, without .git and caches, into a temporary directory,
and each mutant is written there, never into the working tree. The tests run
there as ``python -m pytest -x -q -p no:cacheprovider TEST...`` with the copy's
src first on PYTHONPATH. They must pass on the unmutated copy. A mutant is
killed if pytest then exits non-zero or runs past TIMEOUT seconds (a mutant
can loop forever), and survives if it exits 0. A survivor that EQUIVALENT
lists is counted apart, as ``equivalent``, with its reason: it changes no
result that a test could see. One line is printed per mutant, with the
operator's line and 1-based column, then a count. It does not gate: a mutant
costs one run of the tests, seconds to a minute each.
"""
import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARTNERS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
            ast.NotEq: "==", ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*"}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench-work", ".benchmarks")
TIMEOUT = 600.0
# Known equivalent mutants, each as (module, the stripped text of its line, the text
# from its operator on, reason): matched by text, not line number, so they still
# match after an edit moves the line, and no longer once the line itself changes.
_TIE = "a continuous normal equals the threshold with probability zero"
EQUIVALENT = [
    ("src/tkmia/harness.py",
     "keep = (indiv_w * lo + common < threshold) & (indiv_w * hi + common >= threshold)",
     "< threshold", _TIE),
    ("src/tkmia/harness.py",
     "keep = (indiv_w * lo + common < threshold) & (indiv_w * hi + common >= threshold)",
     ">= threshold", _TIE),
    ("src/tkmia/harness.py", "< threshold)", "< threshold", _TIE),
    ("src/tkmia/harness.py", "if sum(map(len, labels)) < min(_BLOCK, spec.n - done):", "< min",
     "flushing a block one window later groups the rows differently, not their values"),
    ("src/tkmia/harness.py", "if sum(map(len, labels)) < min(_BLOCK, spec.n - done):", "- done",
     "the last block waits for more kept rows than it writes: more draws, the same rows"),
    ("src/tkmia/harness.py", "u = lo + (hi - lo) / 128 * (np.arange(128) + 0.5)", "+ 0.5",
     "midpoints shifted a whole step: the integrand is negligible at both window ends"),
    ("src/tkmia/harness.py", "if kept < MIN_KEPT_PROBABILITY:", "< MIN_KEPT_PROBABILITY",
     "differs only where the estimate equals the threshold exactly"),
    ("src/tkmia/model.py",
     "if np.maximum.reduce(np.abs(Z, out=A), axis=None) < _LOGIT_CLIP:", "< _LOGIT_CLIP",
     "differs only where a batch's largest |logit| is exactly _LOGIT_CLIP, which no draw reaches"),
]


def char_position(lines, lineno: int, col: int) -> tuple:
    """ast's (line, UTF-8 byte column) as tokenize's (line, character column)."""
    return lineno, len(lines[lineno - 1].encode("utf-8")[:col].decode("utf-8"))


def sites(source: str) -> list:
    """Each mutable operator of ``source`` as (line, column, old symbol, new symbol)."""
    lines = source.splitlines(keepends=True)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    ops = {(tok.start, tok.string) for tok in tokens if tok.type == tokenize.OP}
    found = []

    def add(op, before, after, suffix=""):
        kind = type(op)
        if kind not in PARTNERS:
            return
        start = char_position(lines, before.end_lineno, before.end_col_offset)
        end = char_position(lines, after.lineno, after.col_offset)
        symbol = SYMBOLS[kind] + suffix
        match = sorted(pos for pos, string in ops if string == symbol and start <= pos < end)
        if match:  # none inside an f-string, which tokenizes as one string before 3.12
            found.append((*match[0], symbol, PARTNERS[kind] + suffix))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            add(node.op, node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            add(node.op, node.target, node.value, "=")
        elif isinstance(node, ast.Compare):
            for op, before, after in zip(node.ops, [node.left, *node.comparators],
                                         node.comparators):
                add(op, before, after)
    return sorted(set(found))


def mutate(source: str, site) -> str:
    """``source`` with the operator at ``site`` swapped for its partner."""
    line, col, old, new = site
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old, site
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def equivalent(module: str, lines, site) -> str | None:
    """The reason that EQUIVALENT gives for the mutant at ``site`` of ``module``, whose
    source lines are ``lines``, or None if it lists no such mutant."""
    line, col, _, _ = site
    text = lines[line - 1]
    return next((reason for path, line_text, at, reason in EQUIVALENT
                 if path == module and text.strip() == line_text and text[col:].startswith(at)),
                None)


def run_tests(copy: str, tests) -> int | None:
    """pytest's exit status on ``tests`` in ``copy``, or None past TIMEOUT."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(copy, "src"),
                                                      env.get("PYTHONPATH")]))
    try:
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def line_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, a path under the repository")
    parser.add_argument("tests", nargs="+", help="pytest arguments: test files or node ids")
    parser.add_argument("--sample", type=int, default=20, help="mutants to run (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample (default 0)")
    parser.add_argument("--lines", type=line_range, help="only sites on lines A-B (or A)")
    args = parser.parse_args(argv)

    with open(os.path.join(REPO, args.module), encoding="utf-8") as handle:
        source = handle.read()
    pool = [site for site in sites(source) if args.lines is None or site[0] in args.lines]
    sample = sorted(random.Random(args.seed).sample(pool, min(args.sample, len(pool))))
    text = source.splitlines()
    counts = dict.fromkeys(("killed", "survived", "equivalent"), 0)
    with tempfile.TemporaryDirectory() as work:
        copy = os.path.join(work, "repo")
        shutil.copytree(REPO, copy, ignore=IGNORE)
        target = os.path.join(copy, args.module)
        if run_tests(copy, args.tests) != 0:
            print("the tests do not pass on the unmutated copy", file=sys.stderr)
            return 2
        for site in sample:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(mutate(source, site))
            start = time.monotonic()
            status = run_tests(copy, args.tests)
            seconds = time.monotonic() - start
            line, col, old, new = site
            reason = equivalent(args.module, text, site) if status == 0 else None
            verdict = "killed" if status != 0 else "survived" if reason is None else "equivalent"
            counts[verdict] += 1
            print(f"{verdict:10} {args.module}:{line}:{col + 1} `{old}` -> `{new}` ({seconds:.1f}"
                  f" s{', timeout' if status is None else ''}): {text[line - 1].strip()}"
                  f"{'' if reason is None else f' | equivalent: {reason}'}", flush=True)
    print(f"mutation sample: {len(sample)} of {len(pool)} sites in {args.module} (seed "
          f"{args.seed}): " + ", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
