"""List the ``raise`` statements of ``src/potd`` that no test reaches.

    python3 tools/raise_audit.py [pytest arguments]

Runs pytest in this interpreter (on ``tests/`` unless arguments are given)
with a ``sys.settrace`` hook that records the lines executed in frames whose
code lives in ``src/potd``; frames elsewhere are not traced line by line.
It then finds every ``raise`` statement of the package with ``ast`` and
prints, as ``file:line``, each one whose first line never ran, followed by a
count on stderr. It exits with status 1 if any is listed.

The package is imported from the ``src`` directory beside this script.
Worker processes that the tests start (the benchmarks' ``--workers``) are
not traced, so a ``raise`` reached only there is listed. Under the hook
the suite takes about 1.6 times its usual wall time (57 s against 36 s on a
2-vCPU x86 VM).
"""

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "potd"


def raise_lines(path):
    """First line of each ``raise`` statement of the module at ``path``, in order."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))


def unreached(paths, hits):
    """``file:line`` of each ``raise`` in ``paths`` whose first line is not
    among ``hits``, a set of ``(file name, line)`` pairs."""
    return [
        f"{path}:{line}"
        for path in paths
        for line in raise_lines(path)
        if (str(path), line) not in hits
    ]


def traced_lines(func, prefix):
    """Call ``func()``; return its result and the ``(file name, line)`` pairs
    it executed in code whose file name starts with ``prefix``."""
    hits = set()

    def lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    threading.settrace(calls)
    try:
        result = func()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return result, hits


def main(argv):
    sys.path.insert(0, str(PACKAGE.parent))
    import potd
    import pytest

    if Path(potd.__file__).resolve().parent != PACKAGE:
        sys.exit(f"raise_audit: imported potd from {potd.__file__}, not {PACKAGE}")
    args = argv or [str(ROOT / "tests")]
    # pytest reports on stderr, so stdout holds only the listing
    with contextlib.redirect_stdout(sys.stderr):
        status, hits = traced_lines(
            lambda: pytest.main(["-q", "-p", "no:cacheprovider", *args]), str(PACKAGE)
        )
    paths = sorted(PACKAGE.glob("*.py"))
    listed = unreached(paths, hits)
    for entry in listed:
        print(Path(entry).relative_to(ROOT))
    total = sum(len(raise_lines(path)) for path in paths)
    print(
        f"raise_audit: {len(listed)} of {total} raise statements unreached "
        f"(pytest exit status {int(status)})",
        file=sys.stderr,
    )
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
