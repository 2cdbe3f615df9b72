"""Serialization of term DAGs: let-text, s-expressions, DOT, and DIMACS CNF.

All emitters are pure functions of a frozen DAG plus its system and produce
byte-identical output on identical input.  Each refuses a DAG made for
another system's layout with the ValueError that ``eval_dag`` raises, and
reads the DAG's roots before it writes anything, so a DAG still being built
is refused with the RuntimeError that ``TermDag.roots`` raises.  The CNF
emitter performs a Tseitin encoding whose satisfiability, for a DAG that is
a closed form of the least fixpoint, matches the existence of a parameter
assignment giving the queried fixpoint coordinate the queried bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .core import And, Const, System
from .dag import BOTTOM, TOP, TermDag, _check_layout, dag_stats

DEFAULT_TREE_SIZE_LIMIT = 1_000_000


class TreeSizeLimitError(Exception):
    """Unshared rendering refused because it would exceed the size limit."""

    def __init__(self, tree_size: int, limit: int):
        super().__init__(
            f"unshared tree has {tree_size} nodes, over the limit of {limit}"
        )
        self.tree_size = tree_size
        self.limit = limit


def _topological(dag: TermDag) -> list[int]:
    """Reachable Apply ids, children before parents, deterministic.

    Depth-first from the roots in root order, arguments in ascending
    variable order, each node listed at its first completion.  Let-text
    prints its bindings in this order; the other passes sweep the table.
    """
    table = dag.table
    order: list[int] = []
    done = bytearray(len(table))
    done[BOTTOM] = done[TOP] = 1  # leaves are never listed
    for root in dag.roots:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            tid, expanded = stack.pop()
            if done[tid]:
                continue
            if expanded:
                done[tid] = 1
                order.append(tid)
                continue
            stack.append((tid, True))
            for arg in reversed(table[tid][1]):
                if not done[arg]:
                    stack.append((arg, False))
    return order


def to_let_text(dag: TermDag, system: System) -> str:
    """One let binding per reachable application, closing with the root tuple.

    Binders are named t0, t1, ... in topological order; bottom and top
    print as ``bot`` and ``top``.
    """
    _check_layout(dag, system)
    names = system.var_names
    table = dag.table
    binder = ["bot", "top"] + [""] * (len(table) - 2)
    lines = []
    for k, tid in enumerate(_topological(dag)):
        func, ids = table[tid]
        name = f"t{k}"
        args = ", ".join([binder[a] for a in ids])
        lines.append(f"let {name} = {names[func]}({args}) in")
        binder[tid] = name
    lines.append("(" + ", ".join([binder[r] for r in dag.roots]) + ")")
    return "\n".join(lines) + "\n"


def to_sexpr(
    dag: TermDag, system: System, max_tree_size: int = DEFAULT_TREE_SIZE_LIMIT
) -> str:
    """Fully parenthesized prefix rendering without sharing.

    The unshared tree can be exponentially larger than the DAG, so the
    emitter first computes its exact size and raises TreeSizeLimitError
    beyond ``max_tree_size``.  A single-equation system prints its root
    alone; otherwise the roots form one parenthesized tuple.
    """
    _check_layout(dag, system)
    stats = dag_stats(dag)
    if stats.tree_size > max_tree_size:
        raise TreeSizeLimitError(stats.tree_size, max_tree_size)
    names = system.var_names
    table = dag.table
    rendered = ["bot", "top"] + [""] * (len(table) - 2)
    # ascending ids meet every argument before its node
    for tid in dag.reachable():
        if tid <= TOP:
            continue
        func, ids = table[tid]
        parts = [names[func]] + [rendered[a] for a in ids]
        rendered[tid] = "(" + " ".join(parts) + ")"
    roots = [rendered[r] for r in dag.roots]
    if len(roots) == 1:
        return roots[0] + "\n"
    return "(" + " ".join(roots) + ")\n"


def to_dot(dag: TermDag, system: System) -> str:
    """DOT digraph: one node per reachable id, edges labeled by argument variable."""
    _check_layout(dag, system)
    names = system.var_names
    table = dag.table
    supports = dag.supports
    lines = ["digraph bes {"]
    reach = dag.reachable()
    for tid in reach:
        label = table[tid] if tid <= TOP else names[table[tid][0]]
        lines.append(f'  n{tid} [label="{label}"];')
    for tid in reach:
        if tid > TOP:
            func, ids = table[tid]
            for v, arg in zip(supports[func], ids):
                lines.append(f'  n{tid} -> n{arg} [label="{names[v]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CnfFormula:
    """Clauses in DIMACS convention plus a variable-to-meaning map.

    The constructor refuses a variable count that is not a nonnegative int,
    clauses that are not a tuple of nonempty tuples of int literals in
    range (bools are not ints here), and a node map that is not a dict from
    variables 1..num_vars to notes of one nonblank line without outer
    whitespace, since ``write_dimacs`` could not print any other map for
    ``parse_dimacs`` to read back.  ``to_cnf`` numbers every literal in
    range itself and writes well-formed notes, so it builds its result with
    ``_trusted``, which skips these walks.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    node_map: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        num_vars = self.num_vars
        if type(num_vars) is not int:
            raise ValueError(f"variable count {num_vars!r} is not an int")
        if num_vars < 0:
            raise ValueError(f"variable count {num_vars} is negative")
        if type(self.clauses) is not tuple:
            raise ValueError(f"clauses {self.clauses!r} are not a tuple")
        for clause in self.clauses:
            if type(clause) is not tuple:
                raise ValueError(f"clause {clause!r} is not a tuple")
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if type(lit) is not int or lit == 0 or abs(lit) > num_vars:
                    raise ValueError(
                        f"literal {lit!r} is not a nonzero int between -{num_vars} and {num_vars}"
                    )
        if type(self.node_map) is not dict:
            raise ValueError(f"node map {self.node_map!r} is not a dict")
        for v, note in self.node_map.items():
            if type(v) is not int or not 1 <= v <= num_vars:
                raise ValueError(f"node map key {v!r} is not an int between 1 and {num_vars}")
            if type(note) is not str or note.strip() != note or note.splitlines() != [note]:
                raise ValueError(
                    f"node map note {note!r} is not one nonblank line without outer whitespace"
                )

    @classmethod
    def _trusted(
        cls, num_vars: int, clauses: tuple[tuple[int, ...], ...], node_map: dict[int, str]
    ) -> "CnfFormula":
        """The formula without the constructor's checks, for input that
        meets them by construction."""
        cnf = object.__new__(cls)
        object.__setattr__(cnf, "num_vars", num_vars)
        object.__setattr__(cnf, "clauses", clauses)
        object.__setattr__(cnf, "node_map", node_map)
        return cnf


def to_cnf(dag: TermDag, system: System, query: tuple[int, int]) -> CnfFormula:
    """Tseitin encoding of the DAG with a unit clause pinning one root.

    Allocates one variable per parameter and per reachable node, plus one
    per internal gate of each equation's formula and one per constant value
    used.  ``query`` is (variable index, bit); the result is satisfiable
    exactly when some parameter assignment makes that root evaluate to that
    bit.

    Every node replays its equation's gate list, the one ``System`` compiles
    once (see ``core._gate_list``), over literal slots: it takes a fresh
    variable, fills the slots with its arguments' variables and the
    parameter literals, gives each And/Or gate the next variable and its
    three clauses, each constant gate the variable of its value (allocated
    at its first use), and ties its own variable to the output slot with
    two clauses.
    """
    qvar, qbit = query
    if not (type(qvar) is int and 0 <= qvar < system.n):
        raise ValueError(f"query variable {qvar!r} is not an int in range({system.n})")
    if not (type(qbit) is int and qbit in (0, 1)):
        raise ValueError(f"query bit {qbit!r} is not the int 0 or 1")
    _check_layout(dag, system)

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
    return CnfFormula._trusted(num_vars, tuple(clauses), node_map)


def write_dimacs(cnf: CnfFormula) -> str:
    """Standard DIMACS text; the node map travels in ``c map`` comment lines."""
    lines = [f"c map {v} {note}" for v, note in sorted(cnf.node_map.items())]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    # one %-format over every literal at once prints the same text as
    # joining each clause, without building a string per clause; the
    # format holds one shared piece per clause length
    clauses = cnf.clauses
    piece = ["%d " * k + "0\n" for k in range(max(map(len, clauses), default=0) + 1)]
    body = "".join([piece[len(clause)] for clause in clauses])
    return "\n".join(lines) + body % tuple(chain.from_iterable(clauses))


def parse_dimacs(text: str) -> CnfFormula:
    """Inverse of write_dimacs; unknown comment lines are ignored."""
    node_map: dict[int, str] = {}
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split(maxsplit=3)
            if len(parts) == 4 and parts[1] == "map":
                node_map[int(parts[2])] = parts[3]
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            if num_vars is not None:
                raise ValueError(f"second problem line: {line!r}")
            num_vars = int(parts[2])
            num_clauses = int(parts[3])
            continue
        if num_vars is None:
            raise ValueError(f"clause line before the problem line: {line!r}")
        literals.extend(map(int, parts))
    if num_vars is None or num_clauses is None:
        raise ValueError("missing problem line")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ValueError("clause not terminated by 0")
    if len(clauses) != num_clauses:
        raise ValueError(f"expected {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses), node_map)
