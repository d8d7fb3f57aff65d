"""Find a countermodel with the SAT pipeline and verify it independently.

With lattice distributivity assumed, D3 does not follow from the empty
assumption set; the search walks sizes upward until the solver returns a
model, then the verifier replays every axiom on the decoded tables.
"""

from resbinar import (
    EncodeOptions,
    SearchTask,
    builtin,
    cayley_latex,
    check_identity,
    decode_model,
    encode_search,
    hasse_tikz,
    solve,
    verify,
)

for size in range(2, 7):
    task = SearchTask.make(size, assume=("LD",), refute="D3")
    cnf = encode_search(task, EncodeOptions(symmetry=True))
    result = solve(cnf, "builtin")
    print(f"{task.describe():40s} {result.status:7s} "
          f"({cnf.num_vars} vars, {cnf.clause_count} clauses)")
    if result.status != "SAT":
        continue

    model = decode_model(result.assignment, cnf.varmap, size)
    complaints = verify(task, model)
    if complaints:
        raise SystemExit(f"decoded model fails verification: {complaints}")
    witness = check_identity(model, builtin("D3"))
    env = ", ".join(f"{k}={v}" for k, v in witness.env)
    print(f"\nverified: LD holds, D3 fails at {env} "
          f"({witness.lhs} != {witness.rhs})")
    print("\nleft residual table:")
    print(cayley_latex(model, "lres"))
    print("Hasse diagram (TikZ):")
    print(hasse_tikz(model))
    break
else:
    raise SystemExit("no countermodel found up to size 6")
