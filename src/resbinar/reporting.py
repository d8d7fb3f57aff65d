"""Render verified models as LaTeX Cayley tables and Hasse diagrams.

All emitters are deterministic: the same model yields identical bytes, so
their outputs can be pinned as golden files.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable

from .algebra import FiniteBinar, UnknownOp, covering_relation, order_from_tables
from .orchestrator import SearchResult, goal_of
from .solver import SAT, UNKNOWN
from .terms import OPS

_OP_TEX = {
    "meet": r"\wedge",
    "join": r"\vee",
    "mult": r"\cdot",
    "lres": r"\backslash",
    "rres": r"/",
}

# the characters LaTeX gives a meaning in running text, as text
_TEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
})


def cayley_latex(b: FiniteBinar, op: str) -> str:
    """One operation table as a LaTeX tabular with element labels."""
    if op not in _OP_TEX:
        raise UnknownOp(op)
    n = b.size
    table = b.table(op)
    lines = [
        r"\begin{tabular}{c|" + "c" * n + "}",
        "$" + _OP_TEX[op] + "$ & " + " & ".join(str(v) for v in range(n)) + r" \\",
        r"\hline",
    ]
    for row in range(n):
        entries = " & ".join(str(table[row][col]) for col in range(n))
        lines.append(f"{row} & {entries}" + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def _ranks(b: FiniteBinar) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The elements of each longest-chain-from-bottom rank, lowest rank
    first, plus covering edges."""
    covers = list(covering_relation(order_from_tables(b.meet, b.join)))
    n = b.size
    rank = [0] * n
    changed = True
    while changed:
        changed = False
        for low, high in covers:
            if rank[high] < rank[low] + 1:
                rank[high] = rank[low] + 1
                changed = True
    # every rank up to the highest is held: a cover below steps down by one
    levels: list[list[int]] = [[] for _ in range(max(rank) + 1)]
    for v in range(n):
        levels[rank[v]].append(v)
    return levels, covers


def hasse_dot(b: FiniteBinar) -> str:
    """Covering relation as a DOT digraph drawn bottom-up."""
    levels, covers = _ranks(b)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=circle];"]
    for v in range(b.size):
        lines.append(f"  {v};")
    for members in levels:
        lines.append("  { rank=same; " + " ".join(f"{v};" for v in members) + " }")
    for low, high in covers:
        lines.append(f"  {low} -> {high};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_tikz(b: FiniteBinar) -> str:
    """Covering relation as a standalone-compilable TikZ picture."""
    levels, covers = _ranks(b)
    lines = [
        r"\documentclass{standalone}",
        r"\usepackage{tikz}",
        r"\begin{document}",
        r"\begin{tikzpicture}[every node/.style={circle,draw,inner sep=2pt}]",
    ]
    for level, members in enumerate(levels):
        for i, v in enumerate(members):
            x = (i - (len(members) - 1) / 2) * 1.5
            lines.append(f"  \\node (n{v}) at ({x:g},{level * 1.2:g}) {{{v}}};")
    for low, high in covers:
        lines.append(f"  \\draw (n{low}) -- (n{high});")
    lines += [r"\end{tikzpicture}", r"\end{document}"]
    return "\n".join(lines) + "\n"


def _goal_slug(key: tuple) -> str:
    target, assume = key
    source = "-".join(assume) if assume else "nothing"
    return f"{target}_from_{source}"


def report_bundle(results: Iterable[SearchResult], directory: str | Path) -> list[Path]:
    """Write per-goal model renderings and a LaTeX summary; returns paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    by_goal: dict[tuple, list[SearchResult]] = defaultdict(list)
    for result in results:
        by_goal[goal_of(result.task)].append(result)

    summary = [
        r"\section*{Independence grid summary}",
        "",
    ]
    if not by_goal:
        summary.append("No results recorded.")
    else:
        summary += [
            r"\begin{tabular}{llll}",
            r"goal & status & witness size & note \\",
            r"\hline",
        ]
    for key in sorted(by_goal):
        rows = sorted(by_goal[key], key=lambda r: r.task.size)
        target, assume = key
        slug = _goal_slug(key)
        witness = next((r for r in rows if r.status == SAT), None)
        if witness is not None:
            status, size_text, note = "SAT", str(witness.task.size), "countermodel found"
        elif any(r.status == UNKNOWN for r in rows):
            budget = next((r.reason or "" for r in rows if r.status == UNKNOWN), "")
            status, size_text, note = "UNKNOWN", "-", budget or "undecided"
        else:
            status, size_text, note = "UNSAT", "-", "no model in range"
        goal_text = f"refute {target} from " + (", ".join(assume) if assume else "nothing")
        summary.append(
            f"{goal_text} & {status} & {size_text} & {note.translate(_TEX_ESCAPES)} " + r"\\"
        )
        if witness is not None and witness.model is not None:
            goal_dir = directory / slug
            goal_dir.mkdir(parents=True, exist_ok=True)
            for op in OPS:
                path = goal_dir / f"{op}.tex"
                path.write_text(cayley_latex(witness.model, op), encoding="utf-8")
                written.append(path)
            dot_path = goal_dir / "hasse.dot"
            dot_path.write_text(hasse_dot(witness.model), encoding="utf-8")
            written.append(dot_path)
            tikz_path = goal_dir / "hasse.tex"
            tikz_path.write_text(hasse_tikz(witness.model), encoding="utf-8")
            written.append(tikz_path)
    if by_goal:
        summary.append(r"\end{tabular}")
    summary_path = directory / "summary.tex"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    written.append(summary_path)
    return written
