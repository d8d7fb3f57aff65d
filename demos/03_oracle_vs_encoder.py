"""Cross-check the CNF encoding against brute-force enumeration.

The oracle enumerates every residuated binar on up to three elements
directly from the definitions, with no SAT machinery.  Every size-3
search task must then agree with it: the solver says SAT exactly when a
matching algebra exists in the enumerated pool.  This is the ground-truth
test that makes results at larger, non-enumerable sizes trustworthy.
"""

import itertools

from resbinar import (
    DISTRIBUTIVITY_NAMES,
    IDENTITY_NAMES,
    SearchTask,
    encode_search,
    enumerate_residuated_binars,
    identity_profile,
    oracle_search,
    solve_builtin,
)

pool = list(enumerate_residuated_binars(3))
full = frozenset(IDENTITY_NAMES)
print(f"residuated binars on three labeled elements: {len(pool)}")
assert all(identity_profile(b) == full for b in pool)
print("all satisfy every identity")

lattices = {b.ops()["meet"] for b in pool}
print(f"distinct size-3 meet tables among them: {len(lattices)}")

agreements = 0
for target in DISTRIBUTIVITY_NAMES + (None,):
    others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
    for subset in itertools.combinations(others, 2):
        for ld in (False, True):
            assume = frozenset(subset) | ({"LD"} if ld else frozenset())
            task = SearchTask(3, assume, target)
            expected = oracle_search(task) is not None
            got = solve_builtin(encode_search(task)).status == "SAT"
            assert got == expected, task.describe()
            agreements += 1

print(f"solver agreed with the oracle on {agreements} tasks")
