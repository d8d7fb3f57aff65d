"""Finite model finder and countermodel miner for residuated binars.

The pipeline: describe identities as terms (`terms`), compile a search
task to CNF (`encoder`), decide it (`solver`), verify every answer
independently (`algebra`, `oracle`), run experiment grids in parallel
(`orchestrator`) and render the findings (`reporting`).
"""

from .algebra import (
    FiniteBinar,
    NotResiduated,
    OrderInconsistent,
    VerificationReport,
    Violation,
    binar_from_dict,
    binar_to_dict,
    check_identity,
    check_lattice,
    check_residuation,
    covering_relation,
    derive_residuals,
    lattice_tables,
    load_model,
    order_from_tables,
    save_model,
    verify,
)
from .encoder import (
    CnfInstance,
    EncodeOptions,
    IllFormedAssignment,
    SearchTask,
    SizeOverflow,
    VarMap,
    decode_model,
    encode_search,
    symmetry_clauses,
    write_dimacs_file,
)
from .oracle import (
    BoundExceeded,
    count_models,
    enumerate_lattices,
    enumerate_residuated_binars,
    identity_profile,
    oracle_search,
)
from .orchestrator import (
    ConfigError,
    GridConfig,
    GridOutcome,
    SearchResult,
    WorkerStartError,
    build_grid,
    expects_unsat,
    goal_of,
    implication_closure,
    load_results,
    run_grid,
)
from .reporting import cayley_latex, hasse_dot, hasse_tikz, report_bundle
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    OutputParseError,
    SolveBudget,
    SolveResult,
    SolverSpawnError,
    parse_solver_output,
    solve,
    solve_builtin,
    solve_external,
    solve_pysat,
)
from .terms import (
    DISTRIBUTIVITY_NAMES,
    IDENTITY_NAMES,
    Identity,
    LATTICE_IDENTITIES,
    OPS,
    Apply,
    Term,
    TermSyntaxError,
    UnknownName,
    Variable,
    builtin,
    format_identity,
    format_term,
    identity_name,
    parse_identity,
    parse_term,
)

__version__ = "0.1.0"
