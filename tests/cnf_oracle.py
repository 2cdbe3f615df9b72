"""A Tseitin encoder that replays each node's gate list one gate at a time.

Used by the tests as a differential oracle for ``bes.emit.to_cnf``, which
compiles each equation once into a clause template and prints every node
with one format.  This one walks the gate list (``bes.core._gate_list``) at
every node, builds one tuple per clause and prints each clause by joining
its literals, sharing no code with the package's encoder or printer.
"""

from __future__ import annotations

from bes.core import And, Const, System
from bes.dag import TOP, TermDag


def to_dimacs(dag: TermDag, system: System, query: tuple[int, int]) -> str:
    """DIMACS text of the DAG with a unit clause pinning root ``query[0]`` to ``query[1]``.

    Variables: each parameter, then each reachable node in id order followed
    by its equation's gates in post-order; a constant's one variable is
    numbered at its first use and pinned by a unit clause there.
    """
    qvar, qbit = query
    names = system.var_names
    table = dag.table
    programs = system._programs
    num_params = len(system.param_names)
    node_map = {k + 1: f"param {name}" for k, name in enumerate(system.param_names)}
    param_lits = [lit for k in range(1, num_params + 1) for lit in (k, -k)]
    const_var: dict[int, int] = {}
    clauses: list[tuple[int, ...]] = []
    node_var = [0] * len(dag)
    num_vars = num_params
    for tid in dag.reachable():
        num_vars += 1
        node_var[tid] = v = num_vars
        if tid <= TOP:
            node_map[v] = f"term {tid} {table[tid]}"
            clauses.append((v,) if tid == TOP else (-v,))
            continue
        func, ids = table[tid]
        lits = [node_var[arg] for arg in ids]
        node_map[v] = f"term {tid} {names[func]}"
        gates, out = programs[func]
        lits += param_lits
        for op, a, b in gates:
            if op is Const:
                g = const_var.get(a)
                if g is None:
                    num_vars += 1
                    g = const_var[a] = num_vars
                    clauses.append((g,) if a else (-g,))
                lits.append(g)
            else:
                x = lits[a]
                y = lits[b]
                num_vars += 1
                if op is And:
                    clauses += ((-num_vars, x), (-num_vars, y), (num_vars, -x, -y))
                else:
                    clauses += ((-x, num_vars), (-y, num_vars), (-num_vars, x, y))
                lits.append(num_vars)
        lit = lits[out]
        clauses += ((-v, lit), (v, -lit))

    root = node_var[dag.roots[qvar]]
    clauses.append((root,) if qbit else (-root,))
    lines = [f"c map {v} {note}" for v, note in sorted(node_map.items())]
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"
