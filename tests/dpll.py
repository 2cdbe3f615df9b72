"""A minimal DPLL satisfiability checker.

Used by the tests as an oracle for the CNF emitter; the package never
invokes a SAT solver.  Unit propagation runs over occurrence lists with a
trail for backtracking, and branching picks the lowest unassigned variable,
which on circuit encodings means deciding the free inputs first.
"""

from __future__ import annotations


def solve(num_vars: int, clauses) -> dict[int, bool] | None:
    """Return a satisfying assignment as {var: bool}, or None if unsatisfiable."""
    clauses = [tuple(c) for c in clauses]
    if any(not c for c in clauses):
        return None
    occurs: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occurs.setdefault(abs(lit), []).append(ci)

    assign: dict[int, bool] = {}
    trail: list[int] = []

    def lit_value(lit: int) -> bool | None:
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v == (lit > 0)

    def set_lit(lit: int) -> bool:
        """Assign lit true and propagate; False on conflict."""
        queue = [lit]
        while queue:
            unit = queue.pop()
            val = lit_value(unit)
            if val is True:
                continue
            if val is False:
                return False
            assign[abs(unit)] = unit > 0
            trail.append(abs(unit))
            for ci in occurs.get(abs(unit), ()):
                clause = clauses[ci]
                unassigned = None
                satisfied = False
                for other in clause:
                    v = lit_value(other)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        if unassigned is None:
                            unassigned = other
                        else:
                            unassigned = 0  # two or more free literals
                if satisfied:
                    continue
                if unassigned is None:
                    return False
                if unassigned != 0:
                    queue.append(unassigned)
        return True

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            del assign[trail.pop()]

    def search() -> bool:
        var = next((v for v in range(1, num_vars + 1) if v not in assign), None)
        if var is None:
            return True
        for phase in (True, False):
            mark = len(trail)
            if set_lit(var if phase else -var) and search():
                return True
            undo_to(mark)
        return False

    # Seed propagation with the unit clauses.
    for clause in clauses:
        if len(clause) == 1 and not set_lit(clause[0]):
            return None
    if not search():
        return None
    for v in range(1, num_vars + 1):
        assign.setdefault(v, False)
    return assign
