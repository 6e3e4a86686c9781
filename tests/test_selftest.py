"""Every selftest check at its full grid: the one statement of each invariant.

The checks in schurcalc.selftest are what `schurcalc selftest` ships. They
run here at FULL limits, one case per check, each under the ceiling below.
A module test states the same invariant again only where it pins an anchor
value or an error case, or reaches past the check's grid.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schurcalc import selftest

CEILING_S = 10.0


@pytest.mark.parametrize(
    "check", [fn for _, fn in selftest.CHECKS], ids=[name for name, _ in selftest.CHECKS]
)
def test_check_at_full_size(check):
    start = time.perf_counter()
    check(selftest.FULL)
    elapsed = time.perf_counter() - start
    assert elapsed < CEILING_S, f"took {elapsed:.2f} s, ceiling {CEILING_S} s"


def test_every_check_is_listed_once():
    defined = [
        name
        for name, value in vars(selftest).items()
        if name.startswith("check_") and callable(value)
    ]
    listed = [fn.__name__ for _, fn in selftest.CHECKS]
    assert sorted(listed) == sorted(defined)
    names = [name for name, _ in selftest.CHECKS]
    assert len(set(names)) == len(names)


def test_checks_fail_under_python_dash_o():
    """python -O strips assert statements; a broken invariant must still fail
    its checks there, and an intact one pass them all."""
    src = str(Path(selftest.__file__).parent.parent)
    probe = (
        "from schurcalc import selftest\n"
        "assert False, 'asserts are stripped under -O'\n"
        "print(sum(ok for _, ok, _ in selftest.run_checks(quick=True)))\n"
        "selftest.dim_sym_irrep = lambda p: 1\n"
        "print([name for name, ok, _ in selftest.run_checks(quick=True) if not ok])\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    passed, failed = done.stdout.splitlines()
    assert int(passed) == len(selftest.CHECKS)
    assert failed == str(
        ["partitions.hook-square-sum", "partitions.tableau-count", "symgroup.young-symmetrizer"]
    )
