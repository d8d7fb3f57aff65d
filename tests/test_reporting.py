import pytest

from resbinar.algebra import UnknownOp
from resbinar.encoder import SearchTask
from resbinar.orchestrator import SearchResult
from resbinar.reporting import cayley_latex, hasse_dot, hasse_tikz, report_bundle
from resbinar.terms import OPS

from conftest import chain_tables, make_binar


def test_cayley_latex_two_chain(two_chain_min):
    out = cayley_latex(two_chain_min, "mult")
    assert out == (
        "\\begin{tabular}{c|cc}\n"
        "$\\cdot$ & 0 & 1 \\\\\n"
        "\\hline\n"
        "0 & 0 & 0 \\\\\n"
        "1 & 0 & 1 \\\\\n"
        "\\end{tabular}\n"
    )


def test_cayley_latex_op_symbols(two_chain_min):
    assert "$\\wedge$" in cayley_latex(two_chain_min, "meet")
    assert "$\\vee$" in cayley_latex(two_chain_min, "join")
    assert "$\\backslash$" in cayley_latex(two_chain_min, "lres")
    assert "$/$" in cayley_latex(two_chain_min, "rres")
    with pytest.raises(UnknownOp):
        cayley_latex(two_chain_min, "plus")


def test_hasse_dot_m3(m3_zero):
    out = hasse_dot(m3_zero)
    assert out.startswith("digraph hasse {\n  rankdir=BT;\n")
    for edge in ("0 -> 1;", "0 -> 2;", "0 -> 3;", "1 -> 4;", "2 -> 4;", "3 -> 4;"):
        assert f"  {edge}\n" in out
    # three atoms share the middle rank
    assert "{ rank=same; 1; 2; 3; }" in out
    assert out.endswith("}\n")


def test_hasse_dot_has_no_transitive_edges():
    meet, join = chain_tables(4)
    out = hasse_dot(make_binar(meet, join, meet))
    assert "0 -> 1;" in out and "1 -> 2;" in out and "2 -> 3;" in out
    assert "0 -> 2;" not in out and "0 -> 3;" not in out and "1 -> 3;" not in out


def test_hasse_tikz_m3(m3_zero):
    out = hasse_tikz(m3_zero)
    assert out.startswith("\\documentclass{standalone}\n")
    assert out.rstrip().endswith("\\end{document}")
    for v in range(5):
        assert f"(n{v})" in out
    assert "\\draw (n0) -- (n1);" in out
    assert "\\draw (n3) -- (n4);" in out
    # atoms sit on one row centered around x=0
    assert "at (-1.5,1.2)" in out and "at (0,1.2)" in out and "at (1.5,1.2)" in out


def test_renderers_are_deterministic(m3_zero):
    assert hasse_dot(m3_zero) == hasse_dot(m3_zero)
    assert hasse_tikz(m3_zero) == hasse_tikz(m3_zero)
    assert cayley_latex(m3_zero, "mult") == cayley_latex(m3_zero, "mult")


def sat_result(model, refute, assume, size=None):
    return SearchResult(
        task=SearchTask.make(size or model.size, assume=assume, refute=refute),
        status="SAT",
        model=model,
        seconds=0.1,
        solver="builtin",
    )


def unsat_result(size, refute, assume):
    return SearchResult(
        task=SearchTask.make(size, assume=assume, refute=refute),
        status="UNSAT",
        model=None,
        seconds=0.1,
        solver="builtin",
    )


def test_report_bundle_renders_minimal_witness(tmp_path, m3_zero, two_chain_min):
    results = [
        unsat_result(2, "LD", ("D1",)),
        unsat_result(3, "LD", ("D1",)),
        sat_result(m3_zero, "LD", ("D1",)),
        unsat_result(2, "D1", ("D2",)),
    ]
    written = report_bundle(results, tmp_path)
    goal_dir = tmp_path / "LD_from_D1"
    for op in OPS:
        assert (goal_dir / f"{op}.tex").exists()
    assert (goal_dir / "hasse.dot").read_text() == hasse_dot(m3_zero)
    assert (goal_dir / "hasse.tex").read_text() == hasse_tikz(m3_zero)
    summary = (tmp_path / "summary.tex").read_text()
    assert "refute LD from D1 & SAT & 5 & countermodel found" in summary
    assert "refute D1 from D2 & UNSAT & - & no model in range" in summary
    assert set(written) >= {goal_dir / "hasse.dot", tmp_path / "summary.tex"}


def test_report_bundle_empty(tmp_path):
    written = report_bundle([], tmp_path)
    assert written == [tmp_path / "summary.tex"]
    assert "No results recorded." in (tmp_path / "summary.tex").read_text()


def test_report_bundle_unknown_note(tmp_path):
    result = SearchResult(
        task=SearchTask.make(7, refute="D5", assume=("D1",)),
        status="UNKNOWN",
        model=None,
        seconds=1.0,
        solver="builtin",
        reason="time budget exceeded",
    )
    report_bundle([result], tmp_path)
    summary = (tmp_path / "summary.tex").read_text()
    assert "UNKNOWN" in summary and "time budget exceeded" in summary


def test_report_bundle_escapes_the_note(tmp_path):
    reason = r"SolverSpawnError: cannot run 'my_solver': 100% & #1 {x} \ $y ~ ^"
    result = SearchResult(
        task=SearchTask.make(3, refute="D5"),
        status="UNKNOWN",
        model=None,
        seconds=1.0,
        solver="my_solver",
        reason=reason,
    )
    report_bundle([result], tmp_path)
    row = (tmp_path / "summary.tex").read_text().splitlines()[5]
    assert row == (
        r"refute D5 from nothing & UNKNOWN & - & SolverSpawnError: cannot run"
        r" 'my\_solver': 100\% \& \#1 \{x\} \textbackslash{} \$y"
        r" \textasciitilde{} \textasciicircum{} \\"
    )
