"""Run tier-1 in this process under a line tracer, and fail on any executable
line of src/tkmia that no test ran.

    PYTHONPATH=src python .github/statement_trace.py [PYTEST_ARGS...]

The tracer, set with ``sys.settrace`` (and ``threading.settrace`` for the
threads that tests start), records line events only in frames whose code lies
under src/tkmia. A module's executable lines are the lines of its compiled code
objects' line tables, less each function's first line (its ``def`` or first
decorator), which the enclosing scope runs. Runs in a subprocess are not
traced: the CLI tests that start ``python -m tkmia.cli`` and the acceptance
suite's run on a second numeric stack reach no line here, so a line that only
they run counts as unreached.

A line may stay unreached only if ``ALLOWLIST`` names it, by module and source
text, with a reason. The exit status is pytest's if the tests fail, else 1 if
any line outside the allowlist is unreached, else 0. The last line printed is
``statement trace: N unreached of M executable lines in src/tkmia (A allowlisted)``.
"""
import os
import sys
import threading
import types

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "tkmia")

# (module, stripped source line) -> why no in-process test can run it.
ALLOWLIST = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard's body, which runs only when cli.py runs as a script",
}


def code_objects(path: str):
    """Each code object compiled from ``path``: the module's and every one nested in it."""
    with open(path, encoding="utf-8") as handle:
        codes = [compile(handle.read(), path, "exec")]
    while codes:
        code = codes.pop()
        yield code
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))


def executable_lines(path: str) -> set:
    """The line numbers that some code object compiled from ``path`` runs."""
    lines = set()
    for code in code_objects(path):
        own = {line for _, _, line in code.co_lines() if line}  # None, or 0 before line 1
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
    return lines


def main(args) -> int:
    import pytest

    reached = {}  # a code object's file name -> the lines run in it, or None outside src/tkmia

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in reached:
            inside = os.path.abspath(name).startswith(PACKAGE + os.sep)
            reached[name] = set() if inside else None
        lines = reached[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(REPO)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    run = {}
    for name, lines in reached.items():
        if lines is not None:
            run.setdefault(os.path.abspath(name), set()).update(lines)
    total = unreached = allowed = 0
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        with open(path, encoding="utf-8") as handle:
            text = handle.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - run.get(path, set())):
            source = text[line - 1].strip()
            reason = ALLOWLIST.get((module, source))
            where = f"{os.path.relpath(path, REPO)}:{line}: {source}"
            if reason is None:
                unreached += 1
                print(f"unreached {where}")
            else:
                allowed += 1
                print(f"allowlisted {where} ({reason})")
    print(f"statement trace: {unreached} unreached of {total} executable lines in src/tkmia "
          f"({allowed} allowlisted)")
    return int(status) or (1 if unreached else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
