"""Serialization of term DAGs: let-text, s-expressions, DOT, and DIMACS CNF.

All emitters are pure functions of a frozen DAG plus its system and produce
byte-identical output on identical input.  Each reads the DAG's roots
before it writes anything, so a DAG still being built is refused with the
RuntimeError that ``TermDag.roots`` raises.  The CNF emitter performs a
Tseitin encoding whose satisfiability, for a DAG that is a closed form of
the least fixpoint, matches the existence of a parameter assignment giving
the queried fixpoint coordinate the queried bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import And, Const, Formula, Param, System, Var
from .dag import Apply, BOTTOM, TOP, TermDag, dag_stats

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
    variable order, each node listed at its first completion.
    """
    order: list[int] = []
    done: set[int] = set()
    for root in dag.roots:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            tid, expanded = stack.pop()
            if tid in done or dag.is_leaf(tid):
                continue
            if expanded:
                done.add(tid)
                order.append(tid)
                continue
            stack.append((tid, True))
            node = dag.node(tid)
            assert isinstance(node, Apply)
            for _, arg in reversed(node.args):
                if arg not in done:
                    stack.append((arg, False))
    return order


def to_let_text(dag: TermDag, system: System) -> str:
    """One let binding per reachable application, closing with the root tuple.

    Binders are named t0, t1, ... in topological order; bottom and top
    print as ``bot`` and ``top``.
    """
    order = _topological(dag)
    binder = {BOTTOM: "bot", TOP: "top"}
    lines = []
    for k, tid in enumerate(order):
        node = dag.node(tid)
        assert isinstance(node, Apply)
        name = f"t{k}"
        args = ", ".join(binder[a] for _, a in node.args)
        lines.append(f"let {name} = {system.var_names[node.func]}({args}) in")
        binder[tid] = name
    lines.append("(" + ", ".join(binder[r] for r in dag.roots) + ")")
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
    stats = dag_stats(dag)
    if stats.tree_size > max_tree_size:
        raise TreeSizeLimitError(stats.tree_size, max_tree_size)
    rendered = {BOTTOM: "bot", TOP: "top"}
    for tid in _topological(dag):
        node = dag.node(tid)
        assert isinstance(node, Apply)
        parts = [system.var_names[node.func]] + [rendered[a] for _, a in node.args]
        rendered[tid] = "(" + " ".join(parts) + ")"
    roots = [rendered[r] for r in dag.roots]
    if len(roots) == 1:
        return roots[0] + "\n"
    return "(" + " ".join(roots) + ")\n"


def to_dot(dag: TermDag, system: System) -> str:
    """DOT digraph: one node per reachable id, edges labeled by argument variable."""
    lines = ["digraph bes {"]
    reach = dag.reachable()
    for tid in reach:
        node = dag.node(tid)
        label = node if isinstance(node, str) else system.var_names[node.func]
        lines.append(f'  n{tid} [label="{label}"];')
    for tid in reach:
        node = dag.node(tid)
        if isinstance(node, Apply):
            for v, arg in node.args:
                lines.append(f'  n{tid} -> n{arg} [label="{system.var_names[v]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CnfFormula:
    """Clauses in DIMACS convention plus a variable-to-meaning map."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    node_map: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


class _Tseitin:
    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[tuple[int, ...]] = []
        self.node_map: dict[int, str] = {}
        self._const: dict[int, int] = {}

    def fresh(self, note: str | None = None) -> int:
        self.num_vars += 1
        if note is not None:
            self.node_map[self.num_vars] = note
        return self.num_vars

    def const_lit(self, value: int) -> int:
        v = self._const.get(value)
        if v is None:
            v = self.fresh()
            self._const[value] = v
            self.clauses.append((v,) if value else (-v,))
        return v

    def formula(self, f: Formula, env: dict[int, int], params: list[int]) -> int:
        """Literal equivalent to f, with env mapping variable index to a literal."""
        if isinstance(f, Var):
            return env[f.index]
        if isinstance(f, Param):
            lit = params[f.index]
            return -lit if f.negated else lit
        if isinstance(f, Const):
            return self.const_lit(f.value)
        a = self.formula(f.left, env, params)
        b = self.formula(f.right, env, params)
        g = self.fresh()
        if isinstance(f, And):
            self.clauses.extend([(-g, a), (-g, b), (g, -a, -b)])
        else:
            self.clauses.extend([(-a, g), (-b, g), (-g, a, b)])
        return g


def to_cnf(dag: TermDag, system: System, query: tuple[int, int]) -> CnfFormula:
    """Tseitin encoding of the DAG with a unit clause pinning one root.

    Allocates one variable per parameter and per reachable node, plus one
    per internal gate of each equation's formula.  ``query`` is (variable
    index, bit); the result is satisfiable exactly when some parameter
    assignment makes that root evaluate to that bit.
    """
    qvar, qbit = query
    if not 0 <= qvar < system.n:
        raise ValueError("query variable out of range")
    if qbit not in (0, 1):
        raise ValueError("query bit must be 0 or 1")

    enc = _Tseitin()
    params = [enc.fresh(f"param {name}") for name in system.param_names]
    node_var: dict[int, int] = {}
    for tid in dag.reachable():
        node = dag.node(tid)
        if node == "bot":
            v = enc.fresh(f"term {tid} bot")
            enc.clauses.append((-v,))
        elif node == "top":
            v = enc.fresh(f"term {tid} top")
            enc.clauses.append((v,))
        else:
            assert isinstance(node, Apply)
            v = enc.fresh(f"term {tid} {system.var_names[node.func]}")
            env = {varidx: node_var[arg] for varidx, arg in node.args}
            lit = enc.formula(system.formulas[node.func], env, params)
            enc.clauses.extend([(-v, lit), (v, -lit)])
        node_var[tid] = v

    root = node_var[dag.roots[qvar]]
    enc.clauses.append((root,) if qbit else (-root,))
    return CnfFormula(enc.num_vars, tuple(enc.clauses), enc.node_map)


def write_dimacs(cnf: CnfFormula) -> str:
    """Standard DIMACS text; the node map travels in ``c map`` comment lines."""
    lines = [f"c map {v} {note}" for v, note in sorted(cnf.node_map.items())]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    # Tseitin clauses have 1 to 3 literals; %-formatting them is about twice
    # as fast as joining, and prints the same text.
    formats = (None, "%d 0", "%d %d 0", "%d %d %d 0")
    for clause in cnf.clauses:
        if len(clause) <= 3:
            lines.append(formats[len(clause)] % clause)
        else:
            lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


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
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            num_vars = int(parts[2])
            num_clauses = int(parts[3])
            continue
        literals.extend(int(tok) for tok in line.split())
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
