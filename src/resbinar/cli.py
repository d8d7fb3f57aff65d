"""Command-line pipeline: verify, search, grid, encode, report, enumerate.

Exit codes: 0 success (search: UNKNOWN), 1 verification, task or grid
failure, 2 usage error, 10 search found a model, 20 search proved none
exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from .algebra import (
    binar_to_dict,
    canonical_form,
    check_identity,
    load_model,
    save_model,
    verify,
)
from .encoder import EncodeOptions, SearchTask, encode_search, write_dimacs_file
from .oracle import (
    BoundExceeded,
    count_models,
    enumerate_lattices,
    enumerate_residuated_binars,
)
from .orchestrator import (
    ERROR,
    FAIL,
    RESULTS_NAME,
    SETTLED,
    ConfigError,
    GridConfig,
    WorkerStartError,
    build_grid,
    expects_unsat,
    load_results,
    run_grid,
    run_task,
)
from .reporting import report_bundle
from .solver import DEFAULT_SOLVER, SAT, UNSAT
from .terms import DISTRIBUTIVITY_NAMES, builtin

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SAT = 10
EXIT_UNSAT = 20


def _default_solver() -> str:
    return os.environ.get("RB_SOLVER", DEFAULT_SOLVER)


def _parse_assume(text: str | None, distributive: bool) -> frozenset[str]:
    names = set()
    if text:
        for raw in text.split(","):
            name = raw.strip()
            if name:
                names.add(name)
    if distributive:
        names.add("LD")
    return frozenset(names)


class _InvalidTask(ValueError):
    pass


def _task(args, size: int) -> SearchTask:
    """The task that --assume, --distributive and --refute name at `size`."""
    try:
        return SearchTask(size, _parse_assume(args.assume, args.distributive), args.refute)
    except ValueError as exc:
        raise _InvalidTask(exc) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resbinar",
        description="Search for residuated binars separating distributivity identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--size", type=int, required=True, help="number of elements")
    task = argparse.ArgumentParser(add_help=False)
    task.add_argument("--assume", help="comma-separated identities that must hold")
    task.add_argument("--refute", help="identity that must fail")
    task.add_argument("--distributive", action="store_true",
                      help="also assume the lattice distributivity identity LD")

    p = sub.add_parser("check", parents=[task], help="verify a model file")
    p.add_argument("model", help="model JSON file")

    p = sub.add_parser("search", parents=[sized, task], help="solve one search task")
    p.add_argument("--solver", default=None, help="builtin | pysat:<engine> | command with {file}")
    p.add_argument("--timeout", type=float, help="seconds before the task's worker is killed")
    p.add_argument("--out", help="write the model JSON here on SAT")

    p = sub.add_parser("grid", help="run the independence experiment grid")
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--ld", choices=("assume", "omit", "both"), default="omit")
    p.add_argument("--targets", help="comma-separated targets (default: all six)")
    p.add_argument("--out", default="results")
    p.add_argument("--solver", default=None)
    p.add_argument("--timeout", type=float, help="seconds before a task's worker is killed")

    p = sub.add_parser("encode", parents=[sized, task], help="emit the CNF for one task")
    p.add_argument("--dimacs", required=True, help="output DIMACS file")
    p.add_argument("--no-symmetry", action="store_true",
                   help="omit symmetry-breaking clauses")

    p = sub.add_parser("report", help="render grid results")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)

    p = sub.add_parser("enumerate", parents=[sized], help="exhaustive oracle enumeration")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--lattices", action="store_true",
                   help="enumerate lattices instead of residuated binars")
    return parser


def _cmd_check(args) -> int:
    try:
        model = load_model(args.model)
    except (OSError, ValueError) as exc:
        print(f"cannot load model: {exc}", file=sys.stderr)
        return EXIT_USAGE
    task = _task(args, model.size)
    if task.refute is not None:
        witness = check_identity(model, builtin(task.refute))
        if witness is not None:
            env = " ".join(f"{k}={v}" for k, v in witness.env)
            print(f"{task.refute} fails at {env}: {witness.lhs} != {witness.rhs}")
    failures = verify(task, model)
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return EXIT_FAIL
    print("pass")
    return EXIT_OK


def _cmd_search(args) -> int:
    task = _task(args, args.size)
    status, model, reason = run_task(task, args.solver or _default_solver(), args.timeout)
    if status == ERROR:
        print(f"ERROR: {reason}", file=sys.stderr)
        return EXIT_FAIL
    if status == FAIL:
        for line in reason.splitlines():
            print(f"FAIL: decoded model for {task.describe()}: {line}")
        return EXIT_FAIL
    if status == SAT:
        print(f"SAT: {task.describe()}")
        if args.out:
            try:
                save_model(model, args.out)
            except OSError as exc:
                print(f"cannot write {args.out}: {exc}", file=sys.stderr)
                print(json.dumps(binar_to_dict(model), indent=1))
                return EXIT_USAGE
            print(f"model written to {args.out}")
        else:
            print(json.dumps(binar_to_dict(model), indent=1))
        return EXIT_SAT
    if status == UNSAT:
        print(f"UNSAT: {task.describe()}")
        return EXIT_UNSAT
    print(f"UNKNOWN: {task.describe()} ({reason})")
    return EXIT_OK


def _cmd_grid(args) -> int:
    targets = DISTRIBUTIVITY_NAMES
    if args.targets:
        targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    config = GridConfig(
        targets=targets,
        ld=args.ld,
        min_size=args.min_size,
        max_size=args.max_size,
        workers=args.workers,
        timeout=args.timeout,
        solver=args.solver or _default_solver(),
        out_dir=args.out,
    )
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tasks = build_grid(config)
    outcome = run_grid(tasks, config)
    for result in outcome.results:
        extra = f" ({result.reason})" if result.reason else ""
        flag = " [expected UNSAT]" if expects_unsat(result.task) else ""
        print(f"{result.task.describe():50s} {result.status}{flag}{extra}")
    sat = [r for r in outcome.results if r.status == SAT]
    settled = [r for r in outcome.results if (r.reason or "").startswith(SETTLED)]
    print(f"{len(outcome.results)} results, {len(sat)} SAT, "
          f"{len(settled)} settled by other answers, "
          f"{len(outcome.violations)} expectation violations, "
          f"{len(outcome.errors)} errors")
    print(f"{outcome.subtasks} (task, lattice) subtasks solved, "
          f"{outcome.stray_s:.3f}s of worker time on no record")
    for violation in outcome.violations:
        print(f"VIOLATION: {violation.task.describe()} is SAT but was expected UNSAT")
    for error in outcome.errors:
        print(f"ERROR: {error}")
    return EXIT_OK if outcome.ok else EXIT_FAIL


def _cmd_encode(args) -> int:
    cnf = encode_search(_task(args, args.size), EncodeOptions(symmetry=not args.no_symmetry))
    try:
        write_dimacs_file(cnf, args.dimacs)
    except OSError as exc:
        print(f"cannot write {args.dimacs}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"p cnf {cnf.num_vars} {cnf.clause_count} -> {args.dimacs}")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.in_dir) / RESULTS_NAME
    if not path.exists():
        print(f"no results to report: {path} does not exist", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = load_results(args.in_dir)
    except OSError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        written = report_bundle(results, args.out_dir)
    except OSError as exc:
        print(f"cannot write {args.out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{len(written)} files written to {args.out_dir}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    try:
        if args.lattices:
            catalogue = enumerate_lattices(args.size, up_to_iso=args.up_to_iso)
            if args.count_only:
                print(len(catalogue))
                return EXIT_OK
            for meet, join in catalogue:
                print(json.dumps({"size": args.size,
                                  "meet": [list(r) for r in meet],
                                  "join": [list(r) for r in join]}))
            return EXIT_OK
        if args.count_only and not args.up_to_iso:
            print(count_models(args.size))
            return EXIT_OK
        forms = set()
        count = 0
        for binar in enumerate_residuated_binars(args.size):
            if args.up_to_iso:
                form, _ = canonical_form(binar.ops())
                if form in forms:
                    continue
                forms.add(form)
            count += 1
            if not args.count_only:
                print(json.dumps(binar_to_dict(binar)))
        if args.count_only:
            print(count)
        return EXIT_OK
    except BoundExceeded as exc:
        print(f"out of range: {exc}", file=sys.stderr)
        return EXIT_USAGE


_EXIT_SIGNALS = (signal.SIGTERM, signal.SIGHUP)


def _exit_on_signal(signum, _frame) -> None:
    """Exit with 128 + signum, ignoring any further SIGTERM or SIGHUP first:
    `timeout` signals its child and then the child's process group, and a
    second SystemExit raised inside a `finally` would leave the remaining
    workers and their scratch directories behind."""
    for sig in _EXIT_SIGNALS:
        signal.signal(sig, signal.SIG_IGN)
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "search": _cmd_search,
        "grid": _cmd_grid,
        "encode": _cmd_encode,
        "report": _cmd_report,
        "enumerate": _cmd_enumerate,
    }
    # Task workers lead their own process groups, out of the terminal's reach;
    # SIGTERM and SIGHUP unwind like Ctrl-C, through the `finally`s that kill them.
    previous = {sig: signal.signal(sig, _exit_on_signal) for sig in _EXIT_SIGNALS}
    try:
        return handlers[args.command](args)
    except _InvalidTask as exc:
        print(f"invalid task: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, BoundExceeded) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WorkerStartError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        for sig, handler in previous.items():
            if signal.getsignal(sig) is _exit_on_signal:  # else the process is exiting
                signal.signal(sig, signal.SIG_DFL if handler is None else handler)


if __name__ == "__main__":
    sys.exit(main())
