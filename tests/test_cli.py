import functools
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import resbinar.cli
import resbinar.orchestrator
import resbinar.solver
from resbinar.algebra import binar_from_dict, binar_to_dict, load_model, save_model, verify
from resbinar.cli import main
from resbinar.encoder import SearchTask
from resbinar.orchestrator import GridConfig
from resbinar.solver import UNKNOWN, SolveResult

from conftest import (
    ENGINE,
    backgrounding_solver,
    chain_tables,
    gone,
    kill_leftovers,
    lattice_tables_from_leq,
    leq_from_pairs,
    make_binar,
    read_pid,
    require_installed_package,
)


@pytest.fixture
def chain_model_file(tmp_path):
    meet, join = chain_tables(2)
    path = tmp_path / "chain.json"
    save_model(make_binar(meet, join, meet), path)
    return str(path)


def test_check_pass(chain_model_file, capsys):
    assert main(["check", chain_model_file, "--assume", "D1,D2", "--distributive"]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_refute_fails_when_identity_holds(chain_model_file, capsys):
    # every identity holds on the 2-chain, so asking for a violation fails
    assert main(["check", chain_model_file, "--refute", "D1"]) == 1
    out = capsys.readouterr().out
    assert "D1 holds but should fail" in out


def test_check_refute_names_where_the_identity_fails(tmp_path, capsys):
    # on the square with bottom 0 and top 3, this mult makes 2\(1 v 2) = 3
    # while (2\1) v (2\2) = 1: D3 fails, and the refutation passes
    meet, join = lattice_tables_from_leq(leq_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    mult = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 3], [0, 0, 3, 3]]
    path = tmp_path / "model.json"
    save_model(make_binar(meet, join, mult), path)
    assert main(["check", str(path), "--refute", "D3"]) == 0
    assert capsys.readouterr().out == "D3 fails at x=2 y=1 z=2: 3 != 1\npass\n"


def test_check_flags_broken_model(tmp_path, capsys):
    meet, join = chain_tables(2)
    model = make_binar(meet, join, meet)
    data = binar_to_dict(model)
    data["ops"]["lres"] = [[0, 0], [0, 0]]  # wrong residual
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    assert "residuation fails" in capsys.readouterr().out


@pytest.mark.parametrize("path, value", [
    (("ops", "mult", 1, 1), 1.9),
    (("ops", "mult", 1, 1), True),
    (("size",), "2"),
], ids=["float-entry", "bool-entry", "string-size"])
def test_check_rejects_a_number_that_is_no_int(tmp_path, capsys, path, value):
    # 1.9 and true once read as 1, so this model passed
    meet, join = chain_tables(2)
    data = binar_to_dict(make_binar(meet, join, meet))
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    assert main(["check", str(model)]) == 2
    assert capsys.readouterr().err.startswith("cannot load model")


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "none.json")]) == 2


def test_check_unknown_identity_is_a_usage_error(chain_model_file, capsys):
    assert main(["check", chain_model_file, "--assume", "D7"]) == 2
    assert "invalid task" in capsys.readouterr().err


def test_search_sat_writes_model(tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(["search", "--size", "3", "--assume", "D1,D2",
                 "--solver", "builtin", "--out", str(out)])
    assert code == 10
    text = capsys.readouterr().out
    assert text.startswith("SAT:")
    model = load_model(out)
    assert model.size == 3


def test_search_keeps_a_model_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "model.json"
    code = main(["search", "--size", "2", "--solver", "builtin", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}:" in captured.err
    text = captured.out
    model = binar_from_dict(json.loads(text[text.index("{"):]))
    assert verify(SearchTask(2), model) == []
    assert not out.parent.exists()


def test_search_unsat(capsys):
    code = main(["search", "--size", "3", "--refute", "D4", "--solver", "builtin"])
    assert code == 20
    assert capsys.readouterr().out.startswith("UNSAT:")


def test_search_invalid_task(capsys):
    assert main(["search", "--size", "2", "--assume", "D1", "--refute", "D1"]) == 2
    assert main(["search", "--size", "40"]) == 2
    assert "beyond ceiling 32" in capsys.readouterr().err


def test_search_rejects_a_timeout_that_is_not_positive(capsys):
    for timeout in ("0", "-1", "nan", "inf", "3e6"):
        code = main(["search", "--size", "2", "--solver", "builtin", "--timeout", timeout])
        assert code == 2
        assert "invalid timeout" in capsys.readouterr().err


def test_search_reports_a_solver_that_cannot_start(capsys):
    assert main(["search", "--size", "2", "--solver", "/no/such"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR: SolverSpawnError: cannot run '/no/such'")
    assert captured.out == ""


@pytest.mark.parametrize("spec, flags, code, err", [
    ("builtin", [], 10, ""),
    ("/no/such", [], 1, "ERROR: SolverSpawnError: cannot run '/no/such'"),
    ("/no/such", ["--solver", "builtin"], 10, ""),
])
def test_rb_solver_names_the_default_solver(monkeypatch, capsys, spec, flags, code, err):
    # --solver, when given, wins over RB_SOLVER
    monkeypatch.setenv("RB_SOLVER", spec)
    assert main(["search", "--size", "2", *flags]) == code
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("command", [
    ["search", "--size", "2"],
    ["grid", "--targets", "D3", "--min-size", "2", "--max-size", "2"],
])
def test_a_worker_that_cannot_be_forked_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                          command):
    def refuse(self):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(resbinar.orchestrator._FORK.Process, "start", refuse)
    monkeypatch.setattr(resbinar.orchestrator.tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "grid"
    assert main(command + ["--solver", "builtin", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("ERROR: cannot start a worker: "
                            "[Errno 11] Resource temporarily unavailable\n")
    assert captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == (["grid"] if "grid" in command else [])


def test_search_timeout_stops_an_engine_that_ignores_it(monkeypatch, capsys):
    def sleeper(cnf, *budget):
        time.sleep(10)
        return SolveResult(UNKNOWN, reason="slept")

    # the worker is forked, so it solves with the patched engine
    monkeypatch.setattr(resbinar.solver, "solve_builtin", sleeper)
    try:
        start = time.monotonic()
        code = main(["search", "--size", "2", "--solver", "builtin", "--timeout", "0.5"])
        elapsed = time.monotonic() - start
    finally:
        kill_leftovers()
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("UNKNOWN:") and "timeout after 0.5s" in out
    assert elapsed < 5


def test_search_timeout_kills_a_slow_external_solver(tmp_path, capsys):
    command, pid_file = backgrounding_solver(tmp_path)
    try:
        code = main(["search", "--size", "2", "--solver", command, "--timeout", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("UNKNOWN:") and "timeout" in out
        assert gone(read_pid(pid_file))
    finally:
        kill_leftovers(pid_file)


def test_search_withholds_a_model_that_fails_verification(tmp_path, monkeypatch, capsys):
    meet, join = chain_tables(2)
    data = binar_to_dict(make_binar(meet, join, meet))
    data["ops"]["lres"] = [[0, 0], [0, 0]]  # wrong residual
    monkeypatch.setattr(resbinar.orchestrator, "decode_model",
                        lambda assignment, varmap, n: binar_from_dict(data))
    out = tmp_path / "model.json"
    code = main(["search", "--size", "2", "--solver", "builtin", "--out", str(out)])
    assert code == 1
    text = capsys.readouterr().out
    assert "residuation fails" in text
    assert "SAT:" not in text and "{" not in text
    assert not out.exists()
    task = SearchTask(2, frozenset())
    assert text.splitlines() == [f"FAIL: decoded model for {task.describe()}: {line}"
                                 for line in verify(task, binar_from_dict(data))]


@pytest.mark.parametrize("command, signum", [
    (["search", "--size", "2"], signal.SIGTERM),
    (["search", "--size", "2"], signal.SIGHUP),
    (["grid", "--min-size", "2", "--max-size", "2", "--targets", "D1"], signal.SIGTERM),
])
def test_a_signalled_command_leaves_no_solver_running(tmp_path, command, signum):
    solver, pid_file = backgrounding_solver(tmp_path)
    src = str(Path(resbinar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "resbinar.cli", *command, "--solver", solver],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pid = None
    try:
        pid = read_pid(pid_file)
        proc.send_signal(signum)
        code = proc.wait(timeout=10)
        assert gone(pid)
        assert code == 128 + signum
    finally:
        proc.kill()
        proc.wait()
        if pid is not None:
            try:  # the worker's group: the worker, the solver shell, `sleep`
                os.killpg(os.getpgid(pid), signal.SIGKILL)
            except ProcessLookupError:
                pass


def child_pids(pid):
    """The processes whose parent is pid, read from /proc."""
    out = []
    for entry in Path("/proc").iterdir():
        try:
            stat_line = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # it has exited
            continue
        if stat_line and int(stat_line.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def test_a_second_sigterm_does_not_abort_cleanup(tmp_path):
    """`timeout` signals its child and then the child's process group, so
    the child gets SIGTERM twice: the second, about 1 ms after the first,
    must not cut short the cleanup the first started.  No worker and no
    worker scratch directory may be left."""
    solver, _ = backgrounding_solver(tmp_path)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    src = str(Path(resbinar.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(scratch), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "resbinar.cli", "grid", "--min-size", "2", "--max-size", "2",
         "--targets", "D1,D2,D3,D4", "--workers", "4", "--solver", solver,
         "--out", str(tmp_path / "results")],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 10
        # mid-run: four workers, each running its solver
        while len(workers := child_pids(proc.pid)) < 4 or not all(map(child_pids, workers)):
            assert time.monotonic() < deadline, "the four workers never started solving"
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.001)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 128 + signal.SIGTERM
        assert all(gone(pid) for pid in workers)
        assert list(scratch.glob("resbinar-*")) == []
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:  # each worker leads its group: it, the solver, `sleep`
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_search_prints_model_json(capsys):
    code = main(["search", "--size", "2", "--solver", "builtin"])
    assert code == 10
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    data = json.loads(payload)
    assert data["size"] == 2


def dimacs_header(path):
    """The fields of a DIMACS file's `p cnf <vars> <clauses>` line."""
    for line in path.read_text().splitlines():
        if line.startswith("p "):
            p, kind, nvars, nclauses = line.split()
            return p, kind, int(nvars), int(nclauses)
    raise AssertionError(f"no p line in {path}")


def test_encode_writes_dimacs(tmp_path, capsys):
    path = tmp_path / "task.cnf"
    assert main(["encode", "--size", "2", "--refute", "D1",
                 "--dimacs", str(path)]) == 0
    _, kind, nvars, nclauses = dimacs_header(path)
    assert kind == "cnf" and nvars > 0 and nclauses > 0
    header = capsys.readouterr().out
    assert header.startswith("p cnf")


def test_encode_no_symmetry_differs(tmp_path):
    a = tmp_path / "sym.cnf"
    b = tmp_path / "nosym.cnf"
    main(["encode", "--size", "3", "--dimacs", str(a)])
    main(["encode", "--size", "3", "--dimacs", str(b), "--no-symmetry"])
    assert a.read_bytes() != b.read_bytes()
    assert dimacs_header(a)[3] > dimacs_header(b)[3]


def test_encode_reports_a_dimacs_path_it_cannot_write(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "task.cnf"
    assert main(["encode", "--size", "2", "--dimacs", str(path)]) == 2
    assert f"cannot write {path}:" in capsys.readouterr().err


def test_grid_and_report_end_to_end(tmp_path, capsys):
    # Refuting D3 under the other five plus LD is one of the derived
    # implications, so every size must come back UNSAT.
    results = tmp_path / "results"
    code = main([
        "grid", "--targets", "D3", "--ld", "assume",
        "--min-size", "2", "--max-size", "4",
        "--solver", ENGINE, "--out", str(results),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 results" in out and "0 expectation violations" in out
    assert out.count("[expected UNSAT]") == 3
    assert (results / "results.jsonl").exists()

    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(results), "--out", str(report_dir)]) == 0
    summary = (report_dir / "summary.tex").read_text()
    assert "refute D3" in summary and "no model in range" in summary


def test_grid_counts_results_settled_by_other_answers(tmp_path, capsys):
    # the goal without LD runs first; its UNSAT at n = 2 settles the goal
    # with LD, whose assumptions are a superset
    code = main([
        "grid", "--targets", "D3", "--ld", "both", "--min-size", "2", "--max-size", "2",
        "--solver", "builtin", "--out", str(tmp_path / "results"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "settled by n=2 assume=D1,D2,D4,D5,D6 refute=D3" in out
    assert "2 results, 0 SAT, 1 settled by other answers, 0 expectation violations" in out
    # one subtask on the 2-chain, the only 2-element lattice, answers both
    assert re.search(r"^1 \(task, lattice\) subtasks solved, "
                     r"0\.000s of worker time on no record$", out, re.M)


def test_grid_prints_its_violations_and_errors(tmp_path, monkeypatch, capsys):
    # under the false rule {D4} |- D3, D3 over {D4} with LD at n = 4 is
    # expected UNSAT, yet it has a countermodel
    monkeypatch.setattr(resbinar.orchestrator, "RULES", ((frozenset({"D4"}), "D3"),))
    monkeypatch.setattr(resbinar.cli, "GridConfig", functools.partial(
        GridConfig, policy="explicit", subsets=(frozenset({"D4"}),)))
    code = main(["grid", "--targets", "D3", "--ld", "assume", "--min-size", "4",
                 "--max-size", "4", "--solver", "builtin", "--out", str(tmp_path / "sat")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "VIOLATION: n=4 assume=D4,LD refute=D3 is SAT but was expected UNSAT"
    # a solver that cannot start fails the one subtask of the 2-chain
    code = main(["grid", "--targets", "D3", "--ld", "assume", "--min-size", "2",
                 "--max-size", "2", "--solver", "no-such-solver-xyz {file}",
                 "--out", str(tmp_path / "error")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1].startswith("ERROR: n=2 assume=D4,LD refute=D3 on lattice 0<1: "
                                "SolverSpawnError: cannot run 'no-such-solver-xyz'")


def test_grid_reports_an_out_path_it_cannot_write(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "results"
    started = []
    monkeypatch.setattr(resbinar.cli, "run_grid", lambda *args: started.append(args))
    code = main(["grid", "--targets", "D3", "--min-size", "2", "--max-size", "2",
                 "--solver", "builtin", "--out", str(out)])
    assert code == 2
    assert f"cannot write {out}:" in capsys.readouterr().err
    assert started == []


def test_report_reports_an_out_path_it_cannot_write(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "results.jsonl").write_text("")
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "report"
    assert main(["report", "--in", str(results), "--out", str(out)]) == 2
    assert f"cannot write {out}:" in capsys.readouterr().err


def test_report_rejects_a_missing_result_directory(tmp_path, capsys):
    report_dir = tmp_path / "report"
    code = main(["report", "--in", str(tmp_path / "no-such-dir"), "--out", str(report_dir)])
    assert code == 2
    assert "results.jsonl does not exist" in capsys.readouterr().err
    assert not report_dir.exists()


def test_report_rejects_a_corrupt_result_file(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "results.jsonl").write_text('{"status": "SAT"}\n{"status": "SAT"}\n')
    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(results), "--out", str(report_dir)]) == 1
    assert capsys.readouterr().err.startswith("ERROR: corrupt result line 1")
    assert not report_dir.exists()


def test_report_rejects_a_whole_bad_last_line(tmp_path, capsys):
    # a line with its newline was written in full: it is corrupt, not cut short
    results = tmp_path / "results"
    results.mkdir()
    (results / "results.jsonl").write_text('{"status": "SAT"}\n')
    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(results), "--out", str(report_dir)]) == 1
    assert capsys.readouterr().err.startswith("ERROR: corrupt result line 1")
    assert not report_dir.exists()


@pytest.mark.parametrize("line", [
    "5",
    '{"task": {"size": null, "assume": [], "refute": null}, "status": "UNSAT"}',
    '{"task": {"size": 2, "assume": [], "refute": null}, "status": "DONE"}',
    '{"task": {"size": 2, "assume": [], "refute": null}, "status": "SAT"}',
], ids=["number", "null-size", "unknown-status", "sat-without-model"])
def test_report_rejects_a_line_that_is_json_but_no_record(tmp_path, capsys, line):
    results = tmp_path / "results"
    results.mkdir()
    (results / "results.jsonl").write_text(line + "\n")
    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(results), "--out", str(report_dir)]) == 1
    assert capsys.readouterr().err.startswith("ERROR: corrupt result line 1")
    assert not report_dir.exists()


def test_grid_rejects_bad_config(tmp_path, capsys):
    assert main(["grid", "--targets", "D9", "--max-size", "2"]) == 2
    capsys.readouterr()
    for timeout in ("0", "-1", "inf", "3e6"):
        assert main(["grid", "--max-size", "2", "--timeout", timeout,
                     "--out", str(tmp_path)]) == 2
        assert "invalid timeout" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--size", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_enumerate_lattices_up_to_iso(capsys):
    assert main(["enumerate", "--size", "4", "--lattices", "--up-to-iso",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"


# stdout of `resbinar enumerate --lattices --size 3`: every labelling of
# the 3-chain, as JSON lines in enumeration order
LATTICES_3 = [
    '{"size": 3, "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]], "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]]}',
    '{"size": 3, "meet": [[0, 0, 0], [0, 1, 2], [0, 2, 2]], "join": [[0, 1, 2], [1, 1, 1], [2, 1, 2]]}',
    '{"size": 3, "meet": [[0, 0, 2], [0, 1, 2], [2, 2, 2]], "join": [[0, 1, 0], [1, 1, 1], [0, 1, 2]]}',
    '{"size": 3, "meet": [[0, 1, 0], [1, 1, 1], [0, 1, 2]], "join": [[0, 0, 2], [0, 1, 2], [2, 2, 2]]}',
    '{"size": 3, "meet": [[0, 1, 2], [1, 1, 1], [2, 1, 2]], "join": [[0, 0, 0], [0, 1, 2], [0, 2, 2]]}',
    '{"size": 3, "meet": [[0, 1, 2], [1, 1, 2], [2, 2, 2]], "join": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]}',
]


def test_enumerate_lattices_streams_json_lines(capsys):
    assert main(["enumerate", "--size", "3", "--lattices"]) == 0
    assert capsys.readouterr().out.splitlines() == LATTICES_3


# stdout of `resbinar enumerate --size 3 --up-to-iso`, frozen from the
# pairwise-isomorphism implementation: the first binar of each of the 20
# classes, in enumeration order.
ISO_BINARS_3_DIGEST = "0426a2fec134ef777f275c4fac831222e46209cc4348e845ce9f54fbe3d5cb9a"


def test_enumerate_binars_up_to_iso_is_as_pinned(capsys):
    assert main(["enumerate", "--size", "3", "--up-to-iso"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 20
    assert hashlib.sha256(out.encode()).hexdigest() == ISO_BINARS_3_DIGEST


def test_enumerate_models_stream(capsys):
    assert main(["enumerate", "--size", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["size"] == 2 for line in lines)


def test_enumerate_out_of_range(capsys):
    assert main(["enumerate", "--size", "9"]) == 2


def test_console_scripts_installed():
    require_installed_package()
    proc = subprocess.run(["resbinar", "enumerate", "--size", "2", "--count-only"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
