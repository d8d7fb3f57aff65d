import dataclasses
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import tempfile
import time
import warnings

import pytest

import resbinar.orchestrator
from resbinar.algebra import check_identity, check_lattice, check_residuation, verify
from resbinar.encoder import ENCODING_CEILING, SearchTask
from resbinar.orchestrator import (
    ConfigError,
    GridConfig,
    GridOutcome,
    SearchResult,
    build_grid,
    expects_unsat,
    goal_of,
    implication_closure,
    lattice_name,
    load_results,
    run_grid,
    run_task,
    WorkerStartError,
)
from resbinar.reporting import report_bundle
from resbinar.terms import DISTRIBUTIVITY_NAMES, builtin

from conftest import (
    ENGINE,
    backgrounding_solver,
    chain_tables,
    gone,
    kill_leftovers,
    make_binar,
    read_pid,
)


def test_implication_closure_rules():
    assert implication_closure({"D4", "D5"}) == {"D3", "D4", "D5"}
    assert implication_closure({"D3", "D6"}) == {"D3", "D4", "D6"}
    assert implication_closure({"D1", "D4"}) == {"D1", "D4", "D6"}
    assert implication_closure({"D2", "D3"}) == {"D2", "D3", "D5"}
    assert implication_closure({"D5", "D1"}) == {"D1", "D2", "D5"}
    assert implication_closure({"D6", "D2"}) == {"D1", "D2", "D6"}
    assert implication_closure([]) == frozenset()


def test_implication_closure_chains_to_fixpoint():
    # D4,D5 give D3; D3 with D6 gives D4 (already present); adding D1
    # cascades through D6 into everything.
    assert implication_closure({"D1", "D4", "D5"}) == set(DISTRIBUTIVITY_NAMES)


def test_implication_closure_rejects_unknown():
    with pytest.raises(ValueError):
        implication_closure({"LD"})


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        GridConfig(targets=("D9",))
    with pytest.raises(ConfigError):
        GridConfig(policy="some")
    with pytest.raises(ConfigError):
        GridConfig(policy="explicit")
    with pytest.raises(ConfigError):
        GridConfig(ld="maybe")
    with pytest.raises(ConfigError):
        GridConfig(min_size=4, max_size=2)
    with pytest.raises(ConfigError):
        GridConfig(max_size=99)
    # one ceiling for a grid and a single search: the encoder's
    GridConfig(max_size=ENCODING_CEILING)
    with pytest.raises(ConfigError):
        GridConfig(max_size=ENCODING_CEILING + 1)
    with pytest.raises(ConfigError):
        GridConfig(workers=0)
    for timeout in (0, -1, float("nan"), float("inf"), 3e6):
        with pytest.raises(ConfigError):
            GridConfig(timeout=timeout)
    with pytest.raises(ConfigError):
        GridConfig(subsets=(frozenset({"LD"}),), policy="explicit")


def test_grid_config_rejects_subsets_under_all_others():
    # they were dropped without a word: the task was the all-others one
    with pytest.raises(ConfigError, match="explicit"):
        GridConfig(targets=("D3",), subsets=(frozenset({"D4"}),))


@pytest.mark.parametrize("size", ["2.5", '"2"', "true"])
def test_load_results_rejects_a_size_that_is_no_int(tmp_path, size):
    # "size": 2.5 once read as a task of size 2
    (tmp_path / "results.jsonl").write_text(
        '{"task": {"size": %s, "assume": [], "refute": "D1"}, "status": "UNSAT"}\n' % size
    )
    with pytest.raises(OSError, match="corrupt result line 1"):
        load_results(tmp_path)


def test_default_grid_is_54_tasks():
    # six targets, the all-others subset, LD omitted, sizes 2..10
    tasks = build_grid(GridConfig())
    assert len(tasks) == 54
    assert all(not expects_unsat(t) for t in tasks)
    assert all(len(t.assume) == 5 for t in tasks)


def test_grid_expect_unsat_marking():
    config = GridConfig(
        targets=("D3",), policy="explicit",
        subsets=(frozenset({"D4", "D5"}), frozenset({"D4"})),
        ld="both", min_size=2, max_size=3,
    )
    tasks = build_grid(config)
    assert len(tasks) == 2 * 2 * 2
    assert sum("LD" in t.assume for t in tasks) == 4
    for t in tasks:
        should = "LD" in t.assume and t.assume >= {"D4", "D5"}
        assert expects_unsat(t) == should


def test_grid_rejects_target_inside_subset():
    config = GridConfig(
        targets=("D3",), policy="explicit", subsets=(frozenset({"D3"}),)
    )
    with pytest.raises(ConfigError):
        build_grid(config)


def test_grid_sorted_small_sizes_first_per_goal():
    tasks = build_grid(GridConfig(min_size=2, max_size=5))
    by_goal = {}
    for t in tasks:
        by_goal.setdefault(goal_of(t), []).append(t.size)
    for sizes in by_goal.values():
        assert sizes == sorted(sizes)


def result_fixture(with_model):
    meet, join = chain_tables(2)
    model = make_binar(meet, join, meet) if with_model else None
    return SearchResult(
        task=SearchTask.make(2, assume=("D1", "LD"), refute="D2"),
        status="SAT" if with_model else "UNSAT",
        model=model,
        seconds=0.25,
        solver="builtin",
        reason=None,
    )


RECORD = (json.dumps(result_fixture(False).to_record(), sort_keys=True) + "\n").encode()


def persist(result, directory):
    with open(directory / "results.jsonl", "a", encoding="utf-8") as handle:
        resbinar.orchestrator._write_record(handle, result)


def test_search_result_record_roundtrip():
    for with_model in (True, False):
        original = result_fixture(with_model)
        record = json.loads(json.dumps(original.to_record()))
        back = SearchResult.from_record(record)
        assert back.task == original.task
        assert back.status == original.status
        assert back.model == original.model
        assert record["task"]["ld"] == "assume" and record["task"]["expect_unsat"] is False


def test_persist_and_load(tmp_path):
    a = result_fixture(True)
    b = dataclasses.replace(result_fixture(False), task=SearchTask.make(3, refute="D2"))
    persist(a, tmp_path)
    persist(b, tmp_path)
    loaded = load_results(tmp_path)
    assert [r.status for r in loaded] == ["SAT", "UNSAT"]
    assert loaded[0].model == a.model
    # a later record of the same task replaces the earlier one in place
    persist(dataclasses.replace(a, status="UNKNOWN", model=None), tmp_path)
    assert [r.status for r in load_results(tmp_path)] == ["UNKNOWN", "UNSAT"]


def test_load_results_missing_directory(tmp_path):
    assert load_results(tmp_path / "nowhere") == []


def test_load_results_partial_final_line(tmp_path):
    persist(result_fixture(False), tmp_path)
    with open(tmp_path / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"task": {"size": 2')  # interrupted write
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_results(tmp_path)
    assert len(loaded) == 1
    assert caught and "partial" in str(caught[0].message)


def test_load_results_corrupt_middle_line(tmp_path):
    persist(result_fixture(False), tmp_path)
    with open(tmp_path / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write("garbage\n")
    persist(result_fixture(True), tmp_path)
    with pytest.raises(OSError):
        load_results(tmp_path)


def grid_to_completion(tmp_path, **overrides):
    settings = dict(
        targets=("D3",), policy="explicit", subsets=(frozenset(),),
        ld="assume", min_size=2, max_size=5, workers=1,
        solver=ENGINE, out_dir=tmp_path,
    )
    settings.update(overrides)
    config = GridConfig(**settings)
    tasks = build_grid(config)
    return config, tasks, run_grid(tasks, config)


def test_run_grid_finds_countermodel_and_cancels_rest(tmp_path):
    config, tasks, outcome = grid_to_completion(tmp_path)
    assert outcome.ok
    assert len(outcome.results) == len(tasks) == 4
    by_size = {r.task.size: r for r in outcome.results}
    assert by_size[2].status == "UNSAT"
    assert by_size[3].status == "UNSAT"
    sat_sizes = [s for s, r in by_size.items() if r.status == "SAT"]
    assert sat_sizes, "no countermodel found at sizes 4..5"
    first = min(sat_sizes)
    model = by_size[first].model
    assert check_lattice(model).passed
    assert check_residuation(model).passed
    assert check_identity(model, builtin("LD")) is None
    assert check_identity(model, builtin("D3")) is not None
    for size in range(first + 1, 6):
        assert by_size[size].status in ("UNKNOWN", "SAT")
        if by_size[size].status == "UNKNOWN":
            assert "cancelled" in by_size[size].reason


def test_a_grid_leaves_no_reference_cycle_holding_its_results(tmp_path):
    # a helper of run_grid that called itself would be a cycle through its
    # closure, keeping every result alive until the collector ran, and every
    # worker forked before then would inherit them
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        _, _, outcome = grid_to_completion(tmp_path)
        assert any("cancelled" in (r.reason or "") for r in outcome.results)
        del outcome
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (SearchResult, GridOutcome))]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
        gc.collect()
    assert leaked == []


def test_run_grid_resumes_without_resolving(tmp_path):
    config, tasks, outcome = grid_to_completion(tmp_path)
    assert outcome.ok
    assert any(r.status == "SAT" for r in outcome.results)
    lines_before = (tmp_path / "results.jsonl").read_text().count("\n")
    again = run_grid(tasks, config)
    lines_after = (tmp_path / "results.jsonl").read_text().count("\n")
    assert lines_after == lines_before
    assert again.ok
    assert len(again.results) == len(tasks)


def test_a_rerun_records_the_cancellations_a_crash_lost(tmp_path, monkeypatch):
    # D3 over {} with LD is SAT at n = 4, which cancels n = 5; a rerun that
    # finds the SAT but not the cancellation records it again, solving nothing
    config, tasks, _ = grid_to_completion(tmp_path, solver="builtin")
    path = tmp_path / "results.jsonl"
    written = path.read_text()
    lines = written.splitlines(keepends=True)
    assert [json.loads(line)["status"] for line in lines] == ["UNSAT", "UNSAT", "SAT", "UNKNOWN"]
    path.write_text("".join(lines[:-1]))

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(resbinar.orchestrator, "_Worker", no_worker)
    again = run_grid(tasks, config)
    assert again.ok, again.errors
    assert [(r.task.size, r.status, r.reason) for r in again.results][-1] == (
        5, "UNKNOWN", "cancelled: goal satisfied at size 4")
    assert path.read_text() == written


def test_a_model_that_fails_verification_settles_nothing(tmp_path, monkeypatch):
    # every worker decodes its SAT as the 4-chain with mult = meet, on
    # which D3 holds: the square's model of {} fails, and so does {D4}'s,
    # as {}'s settles nothing; only {}'s UNSAT on the chain settles {D4}
    meet, join = chain_tables(4)
    chain = make_binar(meet, join, meet)
    monkeypatch.setattr(resbinar.orchestrator, "decode_model",
                        lambda assignment, varmap, n: chain)
    config, tasks, outcome = grid_to_completion(
        tmp_path, subsets=(frozenset(), frozenset({"D4"})), min_size=4, max_size=4,
        solver="builtin",
    )
    reason = "model failed verification: D3 holds but should fail"
    assert [(r.status, r.reason) for r in outcome.results] == [("UNKNOWN", reason)] * 2
    assert outcome.errors == [f"n=4 assume=LD refute=D3 on {SQUARE}: {reason}",
                              f"n=4 assume=D4,LD refute=D3 on {SQUARE}: {reason}"]
    assert outcome.subtasks == 1


def test_run_grid_retries_tasks_whose_solver_failed(tmp_path):
    # D3 under LD alone is refutable only from n = 4 on, so n = 2..4 is
    # UNSAT, UNSAT, SAT once a solver runs.
    config, tasks, first = grid_to_completion(
        tmp_path, max_size=4, solver="no-such-solver-xyz {file}"
    )
    assert not first.ok
    assert [r.status for r in first.results] == ["UNKNOWN"] * 3
    assert all("SolverSpawnError" in r.reason for r in first.results)
    config = dataclasses.replace(config, solver="builtin")
    again = run_grid(tasks, config)
    assert again.ok, again.errors
    by_size = {r.task.size: r.status for r in again.results}
    assert by_size == {2: "UNSAT", 3: "UNSAT", 4: "SAT"}
    loaded = load_results(tmp_path)
    assert sorted((r.task.size, r.status) for r in loaded) == sorted(by_size.items())


def test_run_grid_resumes_after_a_record_cut_in_half(tmp_path):
    config, tasks, outcome = grid_to_completion(tmp_path, max_size=3, solver="builtin")
    assert outcome.ok and len(outcome.results) == 2
    path = tmp_path / "results.jsonl"
    first_line = path.read_text().splitlines()[0]
    path.write_text(first_line[: len(first_line) // 2])  # crash mid-write
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resumed = run_grid(tasks, config)
    assert resumed.ok, resumed.errors
    assert [r.status for r in resumed.results] == ["UNSAT", "UNSAT"]
    again = run_grid(tasks, config)
    assert again.ok, again.errors
    assert [r.status for r in again.results] == ["UNSAT", "UNSAT"]
    assert [r.status for r in load_results(tmp_path)] == ["UNSAT", "UNSAT"]
    assert path.read_text().count("\n") == 2
    # cut just before the last newline: the whole record is kept, not re-solved
    path.write_text(path.read_text().rstrip("\n"))
    assert [r.status for r in run_grid(tasks, config).results] == ["UNSAT", "UNSAT"]
    assert path.read_text().count("\n") == 2
    # a broken last line that did get its newline is no cut write: it is
    # corrupt, and the file is left as it is
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"task": {"size"\n')
    broken = path.read_bytes()
    outcome = run_grid(tasks, config)
    assert not outcome.ok
    assert outcome.errors[0].startswith("corrupt result line 3 ")
    assert path.read_bytes() == broken


def test_a_cut_at_any_byte_of_the_last_line_resumes(tmp_path):
    # a cut that leaves a whole record keeps it and ends it with a newline;
    # any other cut is dropped, with a warning unless blank, and cut away
    config, tasks, outcome = grid_to_completion(tmp_path, max_size=3, solver="builtin")
    expected = [(r.task.key(), r.status) for r in outcome.results]
    path = tmp_path / "results.jsonl"
    written = path.read_bytes()
    start = written.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(start, len(written)):
        path.write_bytes(written[:cut])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = run_grid(tasks, config)
        assert again.errors == [], cut
        assert [(r.task.key(), r.status) for r in again.results] == expected, cut
        assert bool(caught) == (start < cut < len(written) - 1), cut
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == len(tasks) + 1 and lines[-1] == b"", cut


@pytest.mark.parametrize("data", [b"\xff\n", b"\xff\n" + RECORD], ids=["last", "middle"])
def test_a_line_with_a_byte_that_is_not_utf8_is_corrupt(tmp_path, data):
    path = tmp_path / "results.jsonl"
    path.write_bytes(RECORD + data)
    with pytest.raises(OSError, match="corrupt result line 2 .*'utf-8' codec"):
        load_results(tmp_path)
    config = GridConfig(targets=("D3",), min_size=2, max_size=2, solver="builtin",
                        out_dir=tmp_path)
    outcome = run_grid(build_grid(config), config)
    assert len(outcome.errors) == 1
    assert outcome.errors[0].startswith(f"corrupt result line 2 in {path}: 'utf-8' codec")
    assert path.read_bytes() == RECORD + data


def test_an_unterminated_tail_that_is_not_utf8_is_a_write_cut_short(tmp_path):
    config, tasks, _ = grid_to_completion(tmp_path, max_size=3, solver="builtin")
    path = tmp_path / "results.jsonl"
    written = path.read_bytes()
    path.write_bytes(written + b"\xc3")
    with pytest.warns(UserWarning, match="partial"):
        assert [r.status for r in load_results(tmp_path)] == ["UNSAT", "UNSAT"]
    with pytest.warns(UserWarning, match="partial"):
        again = run_grid(tasks, config)
    assert again.ok, again.errors
    assert path.read_bytes() == written


UNSAT_AT_2 = '{"task": {"size": 2, "assume": [], "refute": null}, "status": "UNSAT"'


@pytest.mark.parametrize("line, field", [
    ("5", None),
    ('{"task": {"size": null, "assume": [], "refute": null}, "status": "UNSAT"}', None),
    ('{"task": {"size": 2, "assume": [], "refute": null}, "status": "DONE"}', "status"),
    ('{"task": {"size": 2, "assume": [], "refute": null}, "status": "SAT"}', "status"),
    ('{"task": {"size": 2, "assume": "", "refute": null}, "status": "UNSAT"}', "assume"),
    (UNSAT_AT_2 + ', "seconds": true}', "seconds"),
    (UNSAT_AT_2 + ', "seconds": "1.5"}', "seconds"),
    (UNSAT_AT_2 + ', "seconds": NaN}', "seconds"),
    (UNSAT_AT_2 + ', "seconds": -2}', "seconds"),
    (UNSAT_AT_2 + ', "solver": ["x"]}', "solver"),
    (UNSAT_AT_2 + ', "reason": 7}', "reason"),
], ids=["number", "null-size", "unknown-status", "sat-without-model", "string-assume",
        "bool-seconds", "string-seconds", "nan-seconds", "negative-seconds",
        "list-solver", "int-reason"])
def test_run_grid_rejects_a_line_that_is_json_but_no_record(tmp_path, line, field):
    path = tmp_path / "results.jsonl"
    path.write_text(line + "\n")
    config, tasks, outcome = grid_to_completion(tmp_path, max_size=2, solver="builtin")
    assert not outcome.ok
    assert outcome.errors[0].startswith("corrupt result line 1 ")
    if field is not None:
        assert field in outcome.errors[0]
    assert path.read_text() == line + "\n"
    # without its newline the same line is a write cut short: it is cut away
    path.write_text(line)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resumed = run_grid(tasks, config)
    assert resumed.ok, resumed.errors
    assert [r.status for r in load_results(tmp_path)] == ["UNSAT"]


def test_run_grid_parallel_workers(tmp_path):
    config, tasks, outcome = grid_to_completion(
        tmp_path, targets=("D3", "D4"), workers=2, max_size=4
    )
    assert outcome.ok
    assert len(outcome.results) == len(tasks) == 6


def test_run_grid_flags_expect_unsat_violation(tmp_path, monkeypatch):
    # A task expected UNSAT that solves SAT must be surfaced, not silently
    # recorded.  Under the false rule {D4} |- D3, refuting D3 from D4 with
    # LD at n = 4 is expected UNSAT, yet it has a countermodel.
    monkeypatch.setattr(resbinar.orchestrator, "RULES", ((frozenset({"D4"}), "D3"),))
    config, tasks, outcome = grid_to_completion(
        tmp_path, subsets=(frozenset({"D4"}),), min_size=4, max_size=4
    )
    assert [r.status for r in outcome.results] == ["SAT"]
    assert not outcome.ok
    assert outcome.violations == outcome.results


def test_run_grid_timeout_returns_unknown(tmp_path):
    config = GridConfig(
        targets=("D5",), policy="all-others", ld="omit",
        min_size=7, max_size=7, timeout=0.05, solver="builtin",
        out_dir=tmp_path,
    )
    tasks = build_grid(config)
    outcome = run_grid(tasks, config)
    assert len(outcome.results) == 1
    assert outcome.results[0].status == "UNKNOWN"
    assert "timeout" in outcome.results[0].reason


def test_run_grid_timeout_bounds_a_large_encoding(tmp_path):
    # encoding the base clauses at n = 10 alone takes seconds: the timeout
    # must cover it, so the grid ends soon after the timeout of each task
    config = GridConfig(
        targets=("D1", "D5"), policy="all-others", ld="omit",
        min_size=10, max_size=10, timeout=0.2, solver="builtin",
        out_dir=tmp_path,
    )
    start = time.monotonic()
    outcome = run_grid(build_grid(config), config)
    assert time.monotonic() - start < 1.5
    assert [r.reason for r in load_results(tmp_path)] == ["timeout after 0.2s"] * 2
    assert [r.status for r in outcome.results] == ["UNKNOWN"] * 2


def test_run_grid_timeout_kills_the_external_solver(tmp_path):
    command, pid_file = backgrounding_solver(tmp_path)
    try:
        config, tasks, outcome = grid_to_completion(
            tmp_path / "out", max_size=2, timeout=0.5, solver=command
        )
        assert [r.reason for r in outcome.results] == ["timeout after 0.5s"]
        assert gone(read_pid(pid_file))
    finally:
        kill_leftovers(pid_file)


def test_interrupted_run_grid_leaves_no_process(tmp_path, monkeypatch):
    command, pid_file = backgrounding_solver(tmp_path)

    def interrupt(conns, timeout=None):
        read_pid(pid_file)  # the first task's solver is running
        raise KeyboardInterrupt

    monkeypatch.setattr(resbinar.orchestrator, "conn_wait", interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            grid_to_completion(tmp_path / "out", solver=command)
        assert multiprocessing.active_children() == []
        assert gone(read_pid(pid_file))
    finally:
        kill_leftovers(pid_file)


def counted_forks(monkeypatch) -> list:
    """The worker processes started from now on, in start order."""
    started = []
    start = resbinar.orchestrator._FORK.Process.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(resbinar.orchestrator._FORK.Process, "start", counted)
    return started


def test_a_grid_forks_only_as_many_workers_as_it_keeps(tmp_path, monkeypatch):
    started = counted_forks(monkeypatch)
    config, tasks, outcome = grid_to_completion(
        tmp_path, targets=("D3", "D4"), workers=2, max_size=4, solver="builtin"
    )
    assert outcome.ok, outcome.errors
    answered = [r for r in outcome.results if "cancelled" not in (r.reason or "")]
    assert len(answered) > config.workers
    assert len(started) == config.workers


def subset_of(task) -> str:
    """A task's assumptions other than LD, joined by commas: "" for none."""
    return ",".join(sorted(task.assume - {"LD"}))


def log_encodes(monkeypatch, log, misbehave=lambda task, lattice: None) -> None:
    """Make each worker forked from now on append "<pid>\t<task>\t<lattice>"
    to log for every subtask it encodes, and call misbehave(task, lattice)
    before the encoding."""
    encode = resbinar.orchestrator.encode_search

    def logged(task, options):
        lattice = "-" if options.lattice is None else lattice_name(options.lattice)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\t{task.describe()}\t{lattice}\n")
        misbehave(task, options.lattice)
        return encode(task, options)

    monkeypatch.setattr(resbinar.orchestrator, "encode_search", logged)


def encoded(log) -> list[tuple[int, str, str]]:
    """(pid, task.describe(), lattice name) of each encoding log_encodes
    logged; the lattice name is "-" for a subtask over every lattice."""
    return [(int(pid), task, lattice) for pid, task, lattice in
            (line.split("\t") for line in log.read_text().splitlines())]


CHAIN = {n: f"lattice {' '.join(f'{x}<{x + 1}' for x in range(n - 1))}" for n in (2, 3, 4)}
SQUARE = "lattice 0<1 0<2 1<3 2<3"


def grid_with_a_bad_task(tmp_path, monkeypatch, misbehave,
                         subsets=(frozenset({"D4"}), frozenset({"D5"})), **overrides):
    """D3 with LD at n = 2 (or as overridden) over two subsets, by default
    {D4} and {D5}: as neither holds the other, both tasks run whatever the
    other answers.  Each subtask's encoding is preceded by
    misbehave(task, lattice) in its worker.  Returns the outcome, and each
    task's result and the pid of a worker that encoded it, both keyed by
    subset_of the task ("D4", "D5")."""
    log = tmp_path / "encoded"
    log_encodes(monkeypatch, log, misbehave)
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", subsets=subsets, **{"max_size": 2, "solver": "builtin", **overrides},
    )
    results = {subset_of(r.task): r for r in outcome.results}
    by_task = {task.describe(): subset_of(task) for task in tasks}
    pids = {by_task[task]: pid for pid, task, _ in encoded(log)}
    return outcome, results, pids


def hang_on(subset, pid_file, lattice=None):
    """misbehave for grid_with_a_bad_task: the task over `subset` starts
    `sleep 30`, writes its pid to pid_file and never returns; with
    `lattice`, only its subtask on the lattice of that name does."""
    def hang(task, fixed):
        if subset_of(task) == subset and lattice in (None, lattice_name(fixed)):
            sleeper = subprocess.Popen(["sleep", "30"])
            pid_file.with_suffix(".tmp").write_text(str(sleeper.pid))
            pid_file.with_suffix(".tmp").replace(pid_file)
            time.sleep(30)
    return hang


def fail_on(subset):
    """misbehave for grid_with_a_bad_task: the task over `subset` raises."""
    def fail(task, lattice):
        if subset_of(task) == subset:
            raise RuntimeError("encoder broke")
    return fail


def test_a_timed_out_worker_is_killed_with_its_group_and_replaced(tmp_path, monkeypatch):
    pid_file = tmp_path / "sleep.pid"
    try:
        outcome, results, pids = grid_with_a_bad_task(
            tmp_path, monkeypatch, hang_on("D4", pid_file), timeout=1.0
        )
        assert results["D4"].reason == "timeout after 1.0s"
        assert results["D5"].status == "UNSAT"
        assert gone(read_pid(pid_file)) and gone(pids["D4"])
        assert pids["D5"] != pids["D4"]
    finally:
        kill_leftovers(pid_file)


def test_a_worker_whose_task_raised_is_not_reused(tmp_path, monkeypatch):
    outcome, results, pids = grid_with_a_bad_task(tmp_path, monkeypatch, fail_on("D4"))
    assert results["D4"].status == "UNKNOWN"
    assert results["D4"].reason == "RuntimeError: encoder broke"
    assert outcome.errors == [
        f"{results['D4'].task.describe()} on lattice 0<1: RuntimeError: encoder broke"]
    assert results["D5"].status == "UNSAT"
    assert pids["D5"] != pids["D4"]


def test_a_grid_with_a_timeout_leaves_no_process_and_no_scratch(tmp_path, monkeypatch):
    # two workers: one is killed at its task's deadline, the other waits
    # idle when the grid ends
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    pid_file = tmp_path / "sleep.pid"
    try:
        outcome, results, pids = grid_with_a_bad_task(
            tmp_path, monkeypatch, hang_on("D4", pid_file), timeout=1.0, workers=2
        )
        assert [results[s].status for s in ("D4", "D5")] == ["UNKNOWN", "UNSAT"]
        assert multiprocessing.active_children() == []
        assert list(scratch.glob("resbinar-*")) == []
    finally:
        kill_leftovers(pid_file)


def test_workers_exit_when_their_coordinator_closes_its_pipes(capfd):
    # the first has a task, whose answer has nowhere to go
    workers = []  # the pool each worker joins, for the cleanup below
    try:
        for _ in range(2):
            resbinar.orchestrator._Worker("builtin", workers)
        workers[0].submit(SearchTask(3, refute="D1"))
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.proc.join(5)
        assert [worker.proc.exitcode for worker in workers] == [0, 0]
        assert "Traceback" not in capfd.readouterr().err
    finally:
        for worker in workers:
            worker.stop()


def test_an_idle_worker_outlives_no_later_busy_worker(monkeypatch):
    # as when the coordinator is SIGKILLed: the later fork, busy with a task
    # that hangs, must not hold the earlier, idle worker's pipe open
    monkeypatch.setattr(resbinar.orchestrator, "encode_search",
                        lambda task, options: time.sleep(30))
    workers = []  # the pool each worker joins, for the cleanup below
    try:
        for _ in range(2):
            resbinar.orchestrator._Worker("builtin", workers)
        workers[1].submit(SearchTask(2))
        for worker in workers:
            worker.conn.close()
        workers[0].proc.join(5)
        assert workers[0].proc.exitcode == 0
        assert workers[1].proc.is_alive()
    finally:
        for worker in workers:
            worker.stop()


def grid_ld_shape(tmp_path, monkeypatch):
    """grid-ld's shape for D3, every subset of the other five with LD at
    n = 2..4 on two workers, with an encode log.  Returns the config, the
    tasks, the outcome, the encodings and the coordinator's events in
    order: ("submit", task, lattice name) per subtask handed to a worker,
    ("answer", task, lattice name, status) per subtask a worker answered
    and ("record", result) per result written."""
    log = tmp_path / "encoded"
    log_encodes(monkeypatch, log)
    events = []
    submit, write = resbinar.orchestrator._Worker.submit, resbinar.orchestrator._write_record
    receive = resbinar.orchestrator._Worker.receive

    def submitted(self, task, lattice=None):
        events.append(("submit", task, lattice_name(lattice)))
        submit(self, task, lattice)

    def received(self):
        payload = receive(self)
        events.append(("answer", self.task, lattice_name(self.lattice),
                       (payload or {}).get("status")))
        return payload

    def written(handle, result):
        events.append(("record", result))
        write(handle, result)

    monkeypatch.setattr(resbinar.orchestrator._Worker, "submit", submitted)
    monkeypatch.setattr(resbinar.orchestrator._Worker, "receive", received)
    monkeypatch.setattr(resbinar.orchestrator, "_write_record", written)
    others = [d for d in DISTRIBUTIVITY_NAMES if d != "D3"]
    subsets = tuple(frozenset(c) for r in range(len(others) + 1)
                    for c in itertools.combinations(others, r))
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", subsets=subsets, max_size=4, workers=2, solver="builtin"
    )
    return config, tasks, outcome, encoded(log), events


def settlers(result) -> list[tuple[str, str]]:
    """(task.describe(), lattice name) of each subtask a record's reason
    names as settling it."""
    _, by, settled = (result.reason or "").partition("settled by ")
    if not by:
        return []
    return [tuple(part.split(" on ")) for part in settled.split("; ")]


def solved_on(result) -> set[str]:
    """The lattice names a record's reason names as solved for it, which
    it does only beside those that settled it."""
    reason = result.reason or ""
    if not reason.startswith("solved on "):
        return set()
    return set(reason.removeprefix("solved on ").split("; settled by ")[0].split(", "))


def test_answers_settle_the_tasks_they_answer(tmp_path, monkeypatch):
    config, tasks, outcome, encodings, events = grid_ld_shape(tmp_path, monkeypatch)
    assert outcome.ok, outcome.errors
    assert len(outcome.results) == len(tasks) == 96
    for result in outcome.results:
        implied = "D3" in implication_closure(result.task.assume - {"LD"})
        expected = "UNSAT" if result.task.size <= 3 or implied else "SAT"
        assert result.status == expected, result.task.describe()
    # each (task, lattice) subtask is solved at most once, and the outcome
    # counts those answered, not one killed when the grid ends
    solved = [(task, lattice) for _, task, lattice in encodings]
    answered = [(e[1].describe(), e[2]) for e in events
                if e[0] == "answer" and e[3] in ("SAT", "UNSAT")]
    assert len(set(solved)) == len(solved)
    assert set(answered) <= set(solved) and len(answered) == outcome.subtasks
    records = {r.task.describe(): r for r in outcome.results}
    for result in outcome.results:
        for by, lattice in settlers(result):
            assert (by, lattice) in solved, result.reason
            by = records[by]
            assert by.task.size == result.task.size
            if result.status == "SAT":
                assert outcome.results.index(by) < outcome.results.index(result)
                assert by.status == "SAT" and result.model == by.model
                assert verify(result.task, result.model) == []
            else:
                assert by.task.refute == "D3" and by.task.assume <= result.task.assume
        # a lattice of an UNSAT is settled or solved, never both, and a
        # reason names the solved ones only beside settled ones
        if result.status == "UNSAT":
            own = {lattice for task, lattice in solved if task == result.task.describe()}
            assert not own & {lattice for _, lattice in settlers(result)}
            assert solved_on(result) == (own if settlers(result) else set())
    # {LD} answers n = 2 and 3 on the chain, the only lattice there, for
    # every goal; at n = 4 its chain proof settles every other goal's
    # chain, and the predicted proof's square settles the squares of the
    # other predicted goals, while models settle most of the rest
    ld = SearchTask(4, frozenset({"LD"}), "D3")
    proof = SearchTask(4, frozenset({"D4", "D5", "LD"}), "D3")
    for n in (2, 3):
        assert [s for s in solved if s[0].startswith(f"n={n} ")] == [
            (SearchTask(n, frozenset({"LD"}), "D3").describe(), CHAIN[n])]
    assert [task for task, lattice in solved if lattice == CHAIN[4]] == [ld.describe()]
    squares = [records[task].task for task, lattice in solved if lattice == SQUARE]
    assert [task for task in squares if expects_unsat(task)] == [proof]
    path = tmp_path / "out" / "results.jsonl"
    written = path.read_bytes()
    assert run_grid(tasks, config).ok
    assert path.read_bytes() == written


def test_a_predicted_proof_starts_before_the_models_of_its_size(tmp_path, monkeypatch):
    # no model can settle it, so its square waits for none, while its
    # chain waits for the chain of {LD}, whose UNSAT settles it
    config, tasks, outcome, _, events = grid_ld_shape(tmp_path, monkeypatch)
    assert outcome.ok, outcome.errors
    proof = SearchTask(4, frozenset({"D4", "D5", "LD"}), "D3")
    assert [event[2] for event in events if event[:2] == ("submit", proof)] == [SQUARE]
    first_model = next(i for i, event in enumerate(events) if event[0] == "record"
                       and event[1].task.size == 4 and event[1].status == "SAT")
    assert events.index(("submit", proof, SQUARE)) < first_model


def await_record(results, size, assume, seconds=30):
    """Return once results holds a record of the task with this size and
    these sorted assumptions, or after `seconds`."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if results.exists() and any(
            (record["task"]["size"], record["task"]["assume"]) == (size, assume)
            for record in map(json.loads, results.read_text().splitlines())
        ):
            return
        time.sleep(0.01)


def test_a_goal_reaching_a_size_later_is_settled_by_its_answer(tmp_path, monkeypatch):
    # {D4} at n = 2 is on record from an earlier run: replayed, it settles
    # nothing, so {D4, D5} at n = 2 starts beside {D4} at n = 3, and it
    # answers only once {D4}'s answer at n = 3 is on record: {D4, D5}
    # reaches n = 3 after that answer, which settles it
    d4_at_2 = SearchTask(2, frozenset({"D4", "LD"}), "D3")
    grid_to_completion(tmp_path / "out", subsets=(frozenset({"D4"}),), max_size=2,
                       solver="builtin")

    def after_d4_at_3(task, lattice):
        if (task.size, subset_of(task)) == (2, "D4,D5"):
            await_record(tmp_path / "out" / "results.jsonl", 3, ["D4", "LD"])

    log = tmp_path / "encoded"
    log_encodes(monkeypatch, log, after_d4_at_3)
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", subsets=(frozenset({"D4"}), frozenset({"D4", "D5"})),
        max_size=3, workers=2, solver="builtin",
    )
    assert outcome.ok, outcome.errors
    d4_at_3 = SearchTask(3, frozenset({"D4", "LD"}), "D3")
    late = SearchTask(3, frozenset({"D4", "D5", "LD"}), "D3")
    assert [(r.task, r.status, r.reason) for r in outcome.results] == [
        (d4_at_2, "UNSAT", None),
        (d4_at_3, "UNSAT", None),
        (SearchTask(2, frozenset({"D4", "D5", "LD"}), "D3"), "UNSAT", None),
        (late, "UNSAT", f"settled by {d4_at_3.describe()} on {CHAIN[3]}"),
    ]
    assert late.describe() not in [task for _, task, _ in encoded(log)]
    assert len(encoded(log)) == 2


def test_a_goal_waits_for_no_subset_at_a_larger_size(tmp_path, monkeypatch):
    # {} fails at n = 2, so {D4} at n = 2 runs beside {} at n = 3, which
    # answers only once {D4}'s answer at n = 2 is on record; that answer
    # then settles {D4} at n = 3
    def misbehave(task, lattice):
        if subset_of(task) == "":
            if task.size == 2:
                raise RuntimeError("encoder broke")
            await_record(tmp_path / "out" / "results.jsonl", 2, ["D4", "LD"], seconds=5)

    log_encodes(monkeypatch, tmp_path / "encoded", misbehave)
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", subsets=(frozenset(), frozenset({"D4"})),
        max_size=3, workers=2, solver="builtin",
    )
    empty_at_3 = SearchTask(3, frozenset({"LD"}), "D3")
    assert [(r.task, r.status, r.reason) for r in outcome.results] == [
        (SearchTask(2, frozenset({"LD"}), "D3"), "UNKNOWN", "RuntimeError: encoder broke"),
        (SearchTask(2, frozenset({"D4", "LD"}), "D3"), "UNSAT", None),
        (empty_at_3, "UNSAT", None),
        (SearchTask(3, frozenset({"D4", "LD"}), "D3"), "UNSAT",
         f"settled by {empty_at_3.describe()} on {CHAIN[3]}"),
    ]


def test_an_unsat_settles_its_lattice_of_supersets_and_no_other(tmp_path, monkeypatch):
    # the proof {D4, D5} fails on the square, so only its chain UNSAT is
    # kept: that settles the chain of {D1, D4, D5}, whose square is solved,
    # and its reason names both
    proof = SearchTask(4, frozenset({"D4", "D5", "LD"}), "D3")
    wider = SearchTask(4, frozenset({"D1", "D4", "D5", "LD"}), "D3")

    def fail_on_square(task, lattice):
        if task == proof and lattice_name(lattice) == SQUARE:
            raise RuntimeError("encoder broke")

    log = tmp_path / "encoded"
    log_encodes(monkeypatch, log, fail_on_square)
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", subsets=(frozenset({"D4", "D5"}), frozenset({"D1", "D4", "D5"})),
        min_size=4, max_size=4, solver="builtin",
    )
    assert [(r.task, r.status, r.reason) for r in outcome.results] == [
        (proof, "UNKNOWN", "RuntimeError: encoder broke"),
        (wider, "UNSAT", f"solved on {SQUARE}; settled by {proof.describe()} on {CHAIN[4]}"),
    ]
    assert outcome.errors == [f"{proof.describe()} on {SQUARE}: RuntimeError: encoder broke"]
    assert [(task, lattice) for _, task, lattice in encoded(log)] == [
        (proof.describe(), CHAIN[4]), (proof.describe(), SQUARE), (wider.describe(), SQUARE)]
    # the square that raised is no subtask solved
    assert outcome.subtasks == 2


def test_a_sibling_answering_after_its_task_still_settles(tmp_path, monkeypatch):
    # {LD}'s chain answers only once {LD} is on record, SAT from its
    # square: its worker is not killed, and its UNSAT settles the chain of
    # the proof {D4, D5}, whose square is solved beside it
    started = counted_forks(monkeypatch)
    ld = SearchTask(4, frozenset({"LD"}), "D3")
    proof = SearchTask(4, frozenset({"D4", "D5", "LD"}), "D3")

    def chain_after_ld(task, lattice):
        if task == ld and lattice_name(lattice) == CHAIN[4]:
            await_record(tmp_path / "out" / "results.jsonl", 4, ["LD"])

    log = tmp_path / "encoded"
    log_encodes(monkeypatch, log, chain_after_ld)
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", subsets=(frozenset(), frozenset({"D4", "D5"})),
        min_size=4, max_size=4, workers=2, solver="builtin",
    )
    assert outcome.ok, outcome.errors
    assert [(r.task, r.status, r.reason) for r in outcome.results] == [
        (ld, "SAT", None),
        (proof, "UNSAT", f"solved on {SQUARE}; settled by {ld.describe()} on {CHAIN[4]}"),
    ]
    encodings = encoded(log)
    assert sorted((task, lattice) for _, task, lattice in encodings) == sorted([
        (ld.describe(), CHAIN[4]), (ld.describe(), SQUARE), (proof.describe(), SQUARE)])
    chain_pid = next(pid for pid, task, lattice in encodings if lattice == CHAIN[4])
    assert len(started) == 2 and chain_pid in {proc.pid for proc in started}
    # the chain's seconds are on no record; the proof's are its square's
    # and the check that settled its chain
    assert outcome.stray_s > 0 and outcome.subtasks == 3


@pytest.mark.parametrize("hung", ["chain", "square"])
def test_a_timed_out_subtask_leaves_its_task_unknown_unless_a_sibling_answers(
        tmp_path, monkeypatch, hung):
    # {LD} at n = 4 has no model on the chain and one on the square
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    pid_file = tmp_path / "sleep.pid"
    lattice, timeout = {"chain": (CHAIN[4], 10.0), "square": (SQUARE, 2.0)}[hung]
    hang = hang_on("", pid_file, lattice)

    def misbehave(task, fixed):
        if hung == "chain" and lattice_name(fixed) == SQUARE:
            read_pid(pid_file)  # the square answers once the chain hangs
        hang(task, fixed)

    try:
        start = time.monotonic()
        outcome, results, pids = grid_with_a_bad_task(
            tmp_path, monkeypatch, misbehave, subsets=(frozenset(),),
            min_size=4, max_size=4, workers=2, timeout=timeout,
        )
        elapsed = time.monotonic() - start
        if hung == "chain":
            # the square's model answers the task, and with no task left
            # the grid kills the chain before its deadline
            assert (results[""].status, results[""].reason) == ("SAT", None)
            assert elapsed < timeout and outcome.stray_s > 0
        else:
            assert (results[""].status, results[""].reason) == ("UNKNOWN", "timeout after 2.0s")
        assert gone(read_pid(pid_file))
        assert multiprocessing.active_children() == []
        assert list(scratch.glob("resbinar-*")) == []
    finally:
        kill_leftovers(pid_file)


def test_the_subtasks_of_a_task_share_its_deadline(tmp_path, monkeypatch):
    # one worker: {LD}'s chain hangs until the task's deadline, and its
    # square, which would find a model, never starts after it
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    pid_file = tmp_path / "sleep.pid"
    try:
        start = time.monotonic()
        outcome, results, pids = grid_with_a_bad_task(
            tmp_path, monkeypatch, hang_on("", pid_file, CHAIN[4]), subsets=(frozenset(),),
            min_size=4, max_size=4, timeout=1.0,
        )
        elapsed = time.monotonic() - start
        assert (results[""].status, results[""].reason) == ("UNKNOWN", "timeout after 1.0s")
        assert [lattice for _, _, lattice in encoded(tmp_path / "encoded")] == [CHAIN[4]]
        assert outcome.subtasks == 0 and elapsed < 2.0
        assert gone(read_pid(pid_file))
        assert multiprocessing.active_children() == []
        assert list(scratch.glob("resbinar-*")) == []
    finally:
        kill_leftovers(pid_file)


def test_supersets_wait_behind_a_goal_that_times_out(tmp_path, monkeypatch):
    # {} hangs on one worker, and the other stays idle: {D4} and {D5}
    # wait for {}'s answer, whose timeout settles nothing
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    pid_file = tmp_path / "sleep.pid"
    try:
        outcome, results, pids = grid_with_a_bad_task(
            tmp_path, monkeypatch, hang_on("", pid_file), timeout=1.0, workers=2,
            subsets=(frozenset(), frozenset({"D4"}), frozenset({"D5"})),
        )
        assert subset_of(outcome.results[0].task) == ""
        assert results[""].reason == "timeout after 1.0s"
        for subset in ("D4", "D5"):
            assert (results[subset].status, results[subset].reason) == ("UNSAT", None)
        assert set(pids) == {"", "D4", "D5"}
        assert gone(read_pid(pid_file)) and gone(pids[""])
        assert multiprocessing.active_children() == []
        assert list(scratch.glob("resbinar-*")) == []
    finally:
        kill_leftovers(pid_file)


@pytest.mark.parametrize("failure", ["raised", "timed-out"])
def test_a_failed_task_settles_nothing(tmp_path, monkeypatch, failure):
    # {D4} waits for {}, which has fewer assumptions; had {} answered
    # UNSAT, that would have settled {D4}
    pid_file = tmp_path / "sleep.pid"
    if failure == "raised":
        misbehave, overrides = fail_on(""), {}
    else:
        misbehave, overrides = hang_on("", pid_file), {"timeout": 1.0}
    try:
        outcome, results, pids = grid_with_a_bad_task(
            tmp_path, monkeypatch, misbehave, workers=2,
            subsets=(frozenset({"D4"}), frozenset()), **overrides,
        )
        assert [subset_of(r.task) for r in outcome.results] == ["", "D4"]
        assert results[""].status == "UNKNOWN"
        assert (results["D4"].status, results["D4"].reason) == ("UNSAT", None)
        assert set(pids) == {"", "D4"} and pids["D4"] != pids[""]
    finally:
        kill_leftovers(pid_file)


def test_an_unsat_settles_no_goal_of_another_target(tmp_path, monkeypatch):
    log = tmp_path / "encoded"
    log_encodes(monkeypatch, log)
    config, tasks, outcome = grid_to_completion(
        tmp_path / "out", targets=("D3", "D4"), max_size=2, solver="builtin"
    )
    assert [(r.task.refute, r.status, r.reason) for r in outcome.results] == [
        ("D3", "UNSAT", None), ("D4", "UNSAT", None)
    ]
    assert len(encoded(log)) == 2


def pinned_grid(out_dir):
    """Target D3 over {} and {D4} in both LD modes at n = 2..5, then over
    {D4, D5} with LD at n = 2..4, one worker, bundled solver: SAT at n = 4,
    cancelled n = 5 records and expected-UNSAT goals, all in one directory."""
    for subsets, ld, max_size in (
        ((frozenset(), frozenset({"D4"})), "both", 5),
        ((frozenset({"D4", "D5"}),), "assume", 4),
    ):
        config = GridConfig(
            targets=("D3",), policy="explicit", subsets=subsets, ld=ld,
            min_size=2, max_size=max_size, workers=1, solver="builtin",
            out_dir=out_dir,
        )
        outcome = run_grid(build_grid(config), config)
        assert outcome.ok, outcome.errors


# SHA-256 of the records (without `seconds`) and of the report bundle
# that pinned_grid leaves; any change to what a grid writes shows here.
GRID_RECORDS_DIGEST = "a17112135abeaf8d0edca30140057984d0c7e20bda084f7744ad66e082d2590e"
GRID_REPORT_DIGEST = "51d21012e4fbece9ae4c0948c0b58f547f7c0b36691ecc22ced940747f854dc3"


# (size, assumptions, status) of each task pinned_grid records, as they
# were before answers settled other tasks: settling changes no status
PINNED_STATUSES = [
    (2, (), "UNSAT"), (2, ("D4",), "UNSAT"), (2, ("D4", "D5", "LD"), "UNSAT"),
    (2, ("D4", "LD"), "UNSAT"), (2, ("LD",), "UNSAT"),
    (3, (), "UNSAT"), (3, ("D4",), "UNSAT"), (3, ("D4", "D5", "LD"), "UNSAT"),
    (3, ("D4", "LD"), "UNSAT"), (3, ("LD",), "UNSAT"),
    (4, (), "SAT"), (4, ("D4",), "SAT"), (4, ("D4", "D5", "LD"), "UNSAT"),
    (4, ("D4", "LD"), "SAT"), (4, ("LD",), "SAT"),
    (5, (), "UNKNOWN"), (5, ("D4",), "UNKNOWN"), (5, ("D4", "LD"), "UNKNOWN"),
    (5, ("LD",), "UNKNOWN"),
]


def test_grid_statuses_are_pinned(tmp_path):
    pinned_grid(tmp_path)
    statuses = sorted((r.task.size, tuple(sorted(r.task.assume)), r.status)
                      for r in load_results(tmp_path))
    assert statuses == PINNED_STATUSES


def test_grid_records_and_report_are_pinned(tmp_path):
    pinned_grid(tmp_path)
    records = []
    for line in (tmp_path / "results.jsonl").read_text().splitlines():
        record = json.loads(line)
        del record["seconds"]
        records.append(json.dumps(record, sort_keys=True))
    assert len(records) == 19
    report = tmp_path / "report"
    written = report_bundle(load_results(tmp_path), report)
    assert len(written) == 29
    bundle = hashlib.sha256()
    for path in sorted(written):
        bundle.update(str(path.relative_to(report)).encode() + b"\0")
        bundle.update(path.read_bytes() + b"\0")
    digests = (hashlib.sha256("\n".join(records).encode()).hexdigest(), bundle.hexdigest())
    assert digests == (GRID_RECORDS_DIGEST, GRID_REPORT_DIGEST)


def test_grid_runs_a_repeated_subset_once(tmp_path):
    # the repeated subset names the same three tasks twice: each is solved
    # and recorded once, so the n = 4 SAT is not shadowed by its twin's
    # cancellation, and a rerun appends nothing
    config, tasks, outcome = grid_to_completion(
        tmp_path, subsets=(frozenset({"D4"}),) * 2, max_size=4, solver="builtin"
    )
    assert outcome.ok, outcome.errors
    assert len(tasks) == len(set(tasks)) == 3
    path = tmp_path / "results.jsonl"
    assert path.read_text().count("\n") == 3
    assert [(r.task.size, r.status) for r in load_results(tmp_path)] == [
        (2, "UNSAT"), (3, "UNSAT"), (4, "SAT")
    ]
    assert run_grid(tasks, config).ok
    assert path.read_text().count("\n") == 3
    # run_grid, too, runs a task it is given twice once
    twice = dataclasses.replace(config, out_dir=tmp_path / "twice")
    assert run_grid(tasks + tasks, twice).ok
    assert [r.status for r in load_results(twice.out_dir)] == ["UNSAT", "UNSAT", "SAT"]
    assert (twice.out_dir / "results.jsonl").read_text().count("\n") == 3
    # likewise a repeated target: the default grid's nine D3 tasks, once each
    assert len(build_grid(GridConfig(targets=("D3", "D3")))) == 9


def test_a_worker_that_cannot_be_forked_leaves_nothing_behind(tmp_path, monkeypatch):
    """A fork that fails (EAGAIN: the process table is full) must release
    both pipe ends and the scratch directory before the error leaves."""
    def refuse(self):
        raise OSError(11, "Resource temporarily unavailable")

    pipes = []
    pipe = resbinar.orchestrator._FORK.Pipe

    def recorded_pipe(*args, **kwargs):
        pipes.append(pipe(*args, **kwargs))
        return pipes[-1]

    monkeypatch.setattr(resbinar.orchestrator._FORK.Process, "start", refuse)
    monkeypatch.setattr(resbinar.orchestrator._FORK, "Pipe", recorded_pipe)
    monkeypatch.setattr(resbinar.orchestrator.tempfile, "tempdir", str(tmp_path))
    with pytest.raises(WorkerStartError, match=r"^cannot start a worker: \[Errno 11\]"):
        run_task(SearchTask(2), "builtin")
    assert len(pipes) == 1 and all(end.closed for end in pipes[0])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("caller", ["run_grid", "run_task"])
def test_a_signal_just_after_a_fork_leaves_no_worker_behind(tmp_path, monkeypatch, caller):
    """SIGTERM or SIGHUP, which cli.main turns into SystemExit, can land
    after a worker is forked and before its caller holds it; the caller's
    cleanup must still stop it and remove its scratch directory."""
    start = resbinar.orchestrator._FORK.Process.start

    def interrupted(self):
        start(self)
        raise SystemExit(143)

    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(resbinar.orchestrator._FORK.Process, "start", interrupted)
    monkeypatch.setattr(resbinar.orchestrator.tempfile, "tempdir", str(scratch))
    with pytest.raises(SystemExit):
        if caller == "run_grid":
            grid_to_completion(tmp_path / "out", max_size=2, solver="builtin")
        else:
            run_task(SearchTask(2), "builtin")
    left = multiprocessing.active_children()
    for proc in left:  # else the test run would wait for it at exit
        proc.kill()
        proc.join()
    assert left == []
    assert list(scratch.glob("resbinar-*")) == []
