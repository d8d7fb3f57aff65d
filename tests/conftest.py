"""Shared model builders for the test suite.

Everything here is computed from first principles (order relations, not the
package's own table helpers) so the tests act as an independent check.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import time
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import pytest

from resbinar.algebra import FiniteBinar, derive_residuals, order_from_tables


# python-sat is a declared dependency and the engine the package defaults to.
# Without it, the bundled CDCL solver stands in, but only for tests whose
# claim does not depend on the engine; tests that need pysat itself call
# pytest.importorskip("pysat").
try:
    import pysat  # noqa: F401
except ImportError:
    ENGINE = "builtin"
else:
    ENGINE = "pysat"


def require_installed_package():
    """Skip the calling test unless the resbinar distribution is installed,
    since only an install puts the console scripts on PATH.  An installed
    package whose scripts are broken or missing still fails the test."""
    try:
        distribution("resbinar")
    except PackageNotFoundError:
        pytest.skip("resbinar is not pip-installed: no console scripts")


def backgrounding_solver(tmp_path):
    """An external solver command that never answers: it starts `sleep 30`
    in the background, writes that pid to a file and waits for it.  Returns
    the command and the pid file."""
    pid_file = tmp_path / "solver.pid"
    path = tmp_path / "backgrounding-solver"
    path.write_text(f"#!/bin/sh\nsleep 30 &\necho $! > {pid_file}.tmp\n"
                    f"mv {pid_file}.tmp {pid_file}\nwait\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path), pid_file


def read_pid(pid_file: Path, seconds: float = 10.0) -> int:
    deadline = time.monotonic() + seconds
    while not pid_file.exists():
        assert time.monotonic() < deadline, f"{pid_file} never appeared"
        time.sleep(0.02)
    return int(pid_file.read_text())


def gone(pid: int, seconds: float = 2.0) -> bool:
    """Whether the process exits within `seconds`.  A zombie counts as
    gone: an orphan is not always reaped where the tests run."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            stat_line = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat_line.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


def kill_leftovers(pid_file: Path | None = None) -> None:
    """Kill what a test may have left running: worker processes and the
    background process of backgrounding_solver."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    if pid_file is not None and pid_file.exists():
        try:
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
        except ProcessLookupError:
            pass


def lattice_tables_from_leq(leq):
    """Meet/join tables computed directly from a partial order matrix.

    Raises if some pair lacks a unique greatest lower or least upper bound,
    so fixtures cannot silently describe a non-lattice.
    """
    n = len(leq)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            best = [z for z in lower if all(leq[w][z] for w in lower)]
            assert len(best) == 1, f"no meet for ({x},{y})"
            meet[x][y] = best[0]
            upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
            best = [z for z in upper if all(leq[z][w] for w in upper)]
            assert len(best) == 1, f"no join for ({x},{y})"
            join[x][y] = best[0]
    return meet, join


def leq_from_pairs(n, pairs):
    """Reflexive-transitive closure of the given strict pairs."""
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    for k in range(n):
        for x in range(n):
            if leq[x][k]:
                for y in range(n):
                    if leq[k][y]:
                        leq[x][y] = True
    return leq


def chain_tables(n):
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    return meet, join


M3_LEQ = leq_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
N5_LEQ = leq_from_pairs(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])


def constant_bottom_mult(meet):
    """The everywhere-bottom multiplication, residuated on any lattice."""
    n = len(meet)
    bot = 0
    for x in range(n):
        bot = meet[bot][x]
    return [[bot] * n for _ in range(n)]


def make_binar(meet, join, mult):
    """Assemble a full algebra, deriving the residuals from mult."""
    order = order_from_tables(
        tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)
    )
    lres, rres = derive_residuals(order, tuple(tuple(r) for r in mult))
    return FiniteBinar(len(meet), meet, join, mult, lres, rres)


@pytest.fixture
def two_chain_min():
    meet, join = chain_tables(2)
    return make_binar(meet, join, meet)


@pytest.fixture
def m3_zero():
    meet, join = lattice_tables_from_leq(M3_LEQ)
    zero = [[0] * 5 for _ in range(5)]
    return make_binar(meet, join, zero)


@pytest.fixture
def n5_zero():
    meet, join = lattice_tables_from_leq(N5_LEQ)
    zero = [[0] * 5 for _ in range(5)]
    return make_binar(meet, join, zero)
