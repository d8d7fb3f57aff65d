"""Bundled DIMACS solver front end (`rbsat`).

Wraps a pysat engine behind SAT-competition conventions so the package
ships a conformant external solver: reads a DIMACS file, prints `s` and
`v` lines, exits 10 on SAT and 20 on UNSAT.
"""

from __future__ import annotations

import argparse
import sys

from .solver import DEFAULT_ENGINE


def read_dimacs(path: str) -> tuple[int, list[list[int]]]:
    """Parse a DIMACS CNF file; comments and the header are skipped."""
    nvars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if not line:
                continue
            head = line[0]
            if head == "c" or head == "\n":
                continue
            if head == "p":
                fields = line.split()
                if len(fields) >= 4 and fields[1] == "cnf":
                    nvars = int(fields[2])
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    clauses.append(current)
                    current = []
                else:
                    current.append(lit)
    if current:
        clauses.append(current)
    return nvars, clauses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbsat", description="DIMACS CNF solver with competition output."
    )
    parser.add_argument("cnf", help="DIMACS CNF file")
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        help="pysat engine name (default: %(default)s)")
    args = parser.parse_args(argv)

    try:
        from pysat.solvers import Solver
    except ImportError as exc:
        print(f"c pysat unavailable: {exc}")
        print("s UNKNOWN")
        return 0
    try:
        nvars, clauses = read_dimacs(args.cnf)
    except (OSError, ValueError) as exc:
        print(f"c cannot read {args.cnf}: {exc}")
        print("s UNKNOWN")
        return 0

    print(f"c rbsat engine={args.engine} vars={nvars} clauses={len(clauses)}")
    with Solver(name=args.engine, bootstrap_with=clauses) as solver:
        if solver.solve():
            model = solver.get_model() or []
            print("s SATISFIABLE")
            line: list[str] = ["v"]
            width = 1
            for lit in model + [0]:
                token = str(lit)
                if width + len(token) + 1 > 78:
                    print(" ".join(line))
                    line = ["v"]
                    width = 1
                line.append(token)
                width += len(token) + 1
            if len(line) > 1:
                print(" ".join(line))
            return 10
        print("s UNSATISFIABLE")
        return 20


if __name__ == "__main__":
    sys.exit(main())
