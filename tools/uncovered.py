"""Print each line of the package that the tier-1 test suite never executes.

Runs ``pytest -q --continue-on-collection-errors`` on ``tests/`` in this
process under the standard library's ``trace`` module and prints
``module:line`` for every executable line of ``src/riskchoice`` that no test
reached, in file order. Code that runs only in a child process (the
``python -m`` entry points, the demos, the benchmark) is not traced, so its
lines are listed. A run takes about five times the suite's untraced time.

    python tools/uncovered.py [extra pytest arguments]

Exit status: pytest's own, so that a failing suite is not read as a
coverage report.
"""

from __future__ import annotations

import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riskchoice"


class _OutsidePackage:
    """The tracer's filter: it line-traces the package's files alone.

    ``trace.Trace``'s own ignore list caches its verdict by a module's base
    name, so ``riskchoice/errors.py`` would go untraced once any ignored
    ``errors.py`` had been seen."""

    prefix = str(PACKAGE) + os.sep

    def names(self, filename, modulename) -> bool:
        return not os.path.abspath(filename).startswith(self.prefix)


def main(argv: list[str]) -> int:
    # the package must first be imported under the tracer, so that its
    # module-level lines count as executed
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsidePackage()
    args = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status = tracer.runfunc(pytest.main, args + argv)
    executed = {(os.path.abspath(name), line) for name, line in tracer.results().counts}
    for path in sorted(PACKAGE.glob("*.py")):
        # line 0 holds a module's start-up code, which raises no line event
        lines = trace._find_executable_linenos(str(path)).keys() - {0}
        for line in sorted(lines):
            if (str(path), line) not in executed:
                print(f"{path.stem}:{line}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
