"""Start one nilorbits CLI process as an installed ``nilorbits`` script
would: ``src`` on the path, then ``nilorbits.cli.main``.

usage: python3 perfbench/cli_entry.py <nilorbits arguments>

``python -m nilorbits.cli`` is not used: the package has no ``__main__``, so
that prints nothing and exits 0.  The last line of standard error is
``perfbench-timing <import_s> <run_s>``: the import of ``nilorbits.cli`` and
the time spent in ``main``.
"""

import atexit
import os
import sys
import time

MARKER = "perfbench-timing"

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from nilorbits.cli import main  # noqa: E402

t1 = time.perf_counter()


@atexit.register
def _report() -> None:
    sys.stderr.write(f"\n{MARKER} {t1 - t0!r} {time.perf_counter() - t1!r}\n")


sys.argv[0] = "nilorbits"
main()
