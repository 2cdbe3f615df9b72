"""Serialization of term DAGs: let-text, s-expressions, DOT, and DIMACS CNF.

All emitters are pure functions of a frozen DAG plus its system and produce
byte-identical output on identical input.  Each refuses a DAG made for
another system's layout with the ValueError that ``eval_dag`` raises, and
reads the DAG's roots before it writes anything, so a DAG still being built
is refused with the RuntimeError that ``TermDag.roots`` raises.  The CNF
emitter performs a Tseitin encoding whose satisfiability, for a DAG that is
a closed form of the least fixpoint, matches the existence of a parameter
assignment giving the queried fixpoint coordinate the queried bit.  It
prints each node's ``c map`` line and clauses straight to DIMACS text, the
clauses from a clause template compiled once per equation shape, and joins
the formula's whole text once.  ``CnfFormula`` is an immutable value over
that text, which ``write_dimacs`` returns, with its ``clauses`` and
``node_map`` read-only views over it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .core import _INT_RE, And, Const, System, _Program
from .dag import BOTTOM, TOP, TermDag, _check_layout, dag_stats

DEFAULT_TREE_SIZE_LIMIT = 1_000_000

_decimal = int.__repr__  # an int's decimal text; faster than str()


class TreeSizeLimitError(ValueError):
    """Unshared rendering refused over the size limit; a ValueError, as every input refusal is."""

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
    beyond ``max_tree_size``, which must be a nonnegative int (a bool is
    not one here).  A single-equation system prints its root alone;
    otherwise the roots form one parenthesized tuple.
    """
    if type(max_tree_size) is not int or max_tree_size < 0:
        raise ValueError(f"tree size limit {max_tree_size!r} is not a nonnegative int")
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
    """DOT digraph: one node per reachable id, edges labeled by argument variable.

    Each reachable node's ``n<id>`` text and each variable's label tail are
    made once, so an edge line only joins three strings.
    """
    _check_layout(dag, system)
    names = system.var_names
    table = dag.table
    supports = dag.supports
    lines = ["digraph bes {"]
    reach = dag.reachable()
    ref = [""] * len(table)
    for tid in reach:
        ref[tid] = r = f"n{tid}"
        label = table[tid] if tid <= TOP else names[table[tid][0]]
        lines.append(f'  {r} [label="{label}"];')
    tail = [f' [label="{name}"];' for name in names]
    for tid in reach:
        if tid > TOP:
            func, ids = table[tid]
            head = f"  {ref[tid]} -> "
            for v, arg in zip(supports[func], ids):
                lines.append(head + ref[arg] + tail[v])
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Clauses(Sequence):
    """Read-only view of a formula's clauses over its DIMACS text.

    The clause lines, one ``lit lit ... 0`` line per clause as
    ``write_dimacs`` prints them, run from offset ``start`` to the end of
    the text.  ``len`` reads the stored count; iteration, indexing and
    comparison with a tuple or another view read the lines once, with the
    clause reader that ``parse_dimacs`` uses, into a tuple of int tuples and
    keep it.
    """

    __slots__ = ("_text", "_start", "_count", "_parsed")

    def __init__(self, text: str, start: int, count: int):
        self._text = text
        self._start = start
        self._count = count
        self._parsed: tuple[tuple[int, ...], ...] | None = None

    def _tuples(self) -> tuple[tuple[int, ...], ...]:
        if self._parsed is None:
            self._parsed = _read_clauses(list(map(int, self._text[self._start:].split())))
        return self._parsed

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._tuples()[index]

    def __iter__(self):
        return iter(self._tuples())

    def __eq__(self, other) -> bool:
        if type(other) is _Clauses:
            other = other._tuples()
        if type(other) is tuple:
            return self._tuples() == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._tuples())


def _read_clauses(literals: list[int]) -> tuple[tuple[int, ...], ...]:
    """The clauses of a DIMACS literal list, each closed by a 0."""
    clauses: list[tuple[int, ...]] = []
    start = 0
    end = len(literals)
    while start < end:
        try:
            stop = literals.index(0, start)
        except ValueError:
            raise ValueError("clause not terminated by 0") from None
        clauses.append(tuple(literals[start:stop]))
        start = stop + 1
    return tuple(clauses)


class CnfFormula:
    """Clauses in DIMACS convention plus a variable-to-meaning map.

    A formula is an immutable value over its whole DIMACS text, the one
    ``write_dimacs`` returns: its ``c map`` lines in ascending variable
    order, the ``p cnf`` header and its clause lines.  One printer makes
    that text canonical, so two formulas are equal exactly when their texts
    are.  A formula is unhashable, like the views it hands out: ``clauses``
    is a ``_Clauses`` view over the clause lines, whose count costs nothing,
    and ``node_map`` is a read-only ``MappingProxyType`` over a dict parsed
    from the ``c map`` lines on first read, which leaves the clause lines
    unread.

    The constructor takes the clauses as a tuple of tuples and the node map
    as a dict or another formula's ``node_map``.  It refuses a variable
    count that is not a nonnegative int, clauses that are not a tuple of
    nonempty tuples of int literals in range (bools are not ints here), and
    a node map that is not a dict from variables 1..num_vars to notes of one
    nonblank line without outer whitespace, since ``write_dimacs`` could not
    print any other map for ``parse_dimacs`` to read back.  It then renders
    the text once.  ``to_cnf`` numbers every literal in range itself, writes
    well-formed notes and prints its lines directly, so it builds its result
    with ``_trusted``, which skips these walks.
    """

    __slots__ = ("num_vars", "clauses", "_text", "_map_end", "_node_map")
    __hash__ = None

    def __new__(
        cls, num_vars: int, clauses: tuple, node_map: Mapping[int, str] = MappingProxyType({})
    ) -> CnfFormula:
        if type(num_vars) is not int:
            raise ValueError(f"variable count {num_vars!r} is not an int")
        if num_vars < 0:
            raise ValueError(f"variable count {num_vars} is negative")
        if type(clauses) is not tuple:
            raise ValueError(f"clauses {clauses!r} are not a tuple")
        for clause in clauses:
            if type(clause) is not tuple:
                raise ValueError(f"clause {clause!r} is not a tuple")
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if type(lit) is not int or lit == 0 or abs(lit) > num_vars:
                    raise ValueError(
                        f"literal {lit!r} is not a nonzero int between -{num_vars} and {num_vars}"
                    )
        if type(node_map) is not dict and type(node_map) is not MappingProxyType:
            raise ValueError(f"node map {node_map!r} is not a dict")
        for v, note in node_map.items():
            if type(v) is not int or not 1 <= v <= num_vars:
                raise ValueError(f"node map key {v!r} is not an int between 1 and {num_vars}")
            if type(note) is not str or note.strip() != note or note.splitlines() != [note]:
                raise ValueError(
                    f"node map note {note!r} is not one nonblank line without outer whitespace"
                )
        map_lines = [f"c map {v} {note}\n" for v, note in sorted(node_map.items())]
        fmt = "".join(["%d " * len(clause) + "0\n" for clause in clauses])
        clause_lines = [fmt % tuple(chain.from_iterable(clauses))]
        return cls._trusted(num_vars, map_lines, clause_lines, len(clauses))

    @classmethod
    def _trusted(
        cls, num_vars: int, map_lines: list[str], clause_lines: list[str], count: int
    ) -> CnfFormula:
        """The formula over its ``c map`` lines, in ascending variable order,
        and the texts of its ``count`` clause lines, each ending in a newline,
        without the constructor's checks, for input that meets them by
        construction.  Joins one list: ``map_lines``, extended in place."""
        map_end = sum(map(len, map_lines))
        header = f"p cnf {num_vars} {count}\n"
        map_lines.append(header)
        map_lines += clause_lines
        text = "".join(map_lines)
        cnf = object.__new__(cls)
        init = object.__setattr__
        init(cnf, "num_vars", num_vars)
        init(cnf, "clauses", _Clauses(text, map_end + len(header), count))
        init(cnf, "_text", text)
        init(cnf, "_map_end", map_end)
        init(cnf, "_node_map", None)
        return cnf

    @property
    def node_map(self) -> Mapping[int, str]:
        if self._node_map is None:
            lines = self._text[: self._map_end].splitlines()
            notes = {int(v): note for _, _, v, note in (line.split(" ", 3) for line in lines)}
            object.__setattr__(self, "_node_map", MappingProxyType(notes))
        return self._node_map

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a CnfFormula is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle read the text back
        return parse_dimacs, (self._text,)

    def __eq__(self, other) -> bool:
        return self._text == other._text if type(other) is CnfFormula else NotImplemented

    def __repr__(self) -> str:
        return (
            f"CnfFormula(num_vars={self.num_vars!r}, clauses={self.clauses!r}, "
            f"node_map={dict(self.node_map)!r})"
        )


# A clause template prints the clauses of one node that applies an equation.
# The node's literal row holds the decimal text of its argument variables,
# of the parameters' variables, of the variables of the constants 0 and 1,
# of its own variable v and of its fresh variables v+1..v+m.  Every entry is
# a positive variable, so the format carries each literal's sign itself.
_Template = tuple[itemgetter, str, int, int, tuple[tuple[int, int], ...]]


def _template(program: _Program, num_args: int, num_params: int, known: int) -> _Template:
    """Compile one equation's gate list (see ``core._gate_list``) into its clause template.

    ``known`` has bit c set when the constant c already has a variable.  A
    constant without one takes the next fresh variable at its first use in
    the gate list, pinned there by a unit clause.  Each And/Or gate takes
    the next fresh variable and its three clauses, and the node's variable
    is tied to the output with two.  The template holds the getter of these
    literals from the row, the format that prints them, the clause count,
    the fresh-variable count m, and (constant, row index) for each constant
    it numbers.
    """
    gates, out = program
    const_base = num_args + num_params
    node = const_base + 2
    fresh = node + 1
    # each slot's literal: its row index, then its format and its negation's
    lit_of = [(k, "%s", "-%s") for k in range(num_args)]
    for k in range(num_args, const_base):
        lit_of += ((k, "%s", "-%s"), (k, "-%s", "%s"))
    fmt: list[str] = []
    picks: list[int] = []
    numbered: dict[int, int] = {}
    for op, a, b in gates:
        if op is Const:
            if known >> a & 1:
                g = const_base + a
            elif a in numbered:
                g = numbered[a]
            else:
                g = numbered[a] = fresh
                fresh += 1
                fmt.append("%s 0\n" if a else "-%s 0\n")
                picks.append(g)
        else:
            x, xp, xn = lit_of[a]
            y, yp, yn = lit_of[b]
            g = fresh
            fresh += 1
            if op is And:  # g -> x, g -> y, x & y -> g
                fmt.append(f"-%s {xp} 0\n-%s {yp} 0\n%s {xn} {yn} 0\n")
                picks += (g, x, g, y, g, x, y)
            else:  # x -> g, y -> g, g -> x | y
                fmt.append(f"{xn} %s 0\n{yn} %s 0\n-%s {xp} {yp} 0\n")
                picks += (x, g, y, g, g, x, y)
        lit_of.append((g, "%s", "-%s"))
    x, xp, xn = lit_of[out]
    fmt.append(f"-%s {xp} 0\n%s {xn} 0\n")  # v <-> output
    picks += (node, x, node, x)
    m = fresh - node - 1
    num_clauses = 2 + 3 * (m - len(numbered)) + len(numbered)
    return itemgetter(*picks), "".join(fmt), num_clauses, m, tuple(numbered.items())


def to_cnf(dag: TermDag, system: System, query: tuple[int, int]) -> CnfFormula:
    """Tseitin encoding of the DAG with a unit clause pinning one root.

    Allocates one variable per parameter and per reachable node, plus one
    per internal gate of each equation's formula and one per constant value
    used.  ``query`` is (variable index, bit); the result is satisfiable
    exactly when some parameter assignment makes that root evaluate to that
    bit.

    Variables are numbered in node order: each reachable node takes the
    next variable, then one per And/Or gate of its equation's gate list in
    post-order.  A constant's one shared variable is numbered at its first
    use, between those gates.  Each equation shape (support length, output
    slot and gate list) is compiled once per system into a clause template
    (see ``_template``) for each set of constants that already have a
    variable, so the node that first uses a constant applies a variant that
    numbers it.  ``System._clause_templates`` keeps them: a node finds its
    template by its equation's slot, and only an empty slot looks its shape
    up.  A node then costs one row of decimal texts, one ``itemgetter`` and
    one %-format, which print its clauses as DIMACS text, and one f-string
    for its ``c map`` line.  The map lines, the header and the clause lines
    are joined once, into the text the result holds.
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
    by_known = system._clause_templates
    maps = [f"c map {k} param {name}\n" for k, name in enumerate(system.param_names, 1)]
    # the row's parameter variables, then those of the constants 0 and 1
    fixed = [*map(_decimal, range(1, num_params + 1)), "", ""]
    known = 0
    templates, by_shape = by_known.setdefault(known, ([None] * system.n, {}))
    parts: list[str] = []
    count = 1  # the query's unit clause
    node_text = [""] * len(dag)
    num_vars = num_params
    for tid in dag.reachable():
        num_vars += 1
        if tid <= TOP:
            node_text[tid] = v = _decimal(num_vars)
            maps.append(f"c map {v} term {tid} {table[tid]}\n")
            parts.append((v if tid == TOP else "-" + v) + " 0\n")
            count += 1
            continue
        func, ids = table[tid]
        template = templates[func]
        if template is None:
            program = gates, out = programs[func]
            shape = (len(ids), out, *gates)
            template = by_shape.get(shape)
            if template is None:
                template = by_shape[shape] = _template(program, len(ids), num_params, known)
            templates[func] = template
        getter, fmt, num_clauses, m, numbered = template
        row = [*map(node_text.__getitem__, ids), *fixed]
        row += map(_decimal, range(num_vars, num_vars + m + 1))
        node_text[tid] = v = row[-m - 1]
        maps.append(f"c map {v} term {tid} {names[func]}\n")
        parts.append(fmt % getter(row))
        count += num_clauses
        num_vars += m
        if numbered:
            for c, index in numbered:
                fixed[num_params + c] = row[index]
                known |= 1 << c
            templates, by_shape = by_known.setdefault(known, ([None] * system.n, {}))

    root = node_text[dag.roots[qvar]]
    parts.append((root if qbit else "-" + root) + " 0\n")
    return CnfFormula._trusted(num_vars, maps, parts, count)


def write_dimacs(cnf: CnfFormula) -> str:
    """Standard DIMACS text; the node map travels in ``c map`` comment lines.

    This is the text the formula holds (see ``CnfFormula``), returned
    itself, not a copy.
    """
    return cnf._text


def _int(token: str, line: str) -> int:
    """One token of a DIMACS line as an int, or a ValueError that names the line."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"{token!r} is not an int, in line {line!r}")
    return int(token)


def parse_dimacs(text: str) -> CnfFormula:
    """Inverse of write_dimacs; unknown comment lines are ignored.

    Refuses, with ValueError, a token that is not an int (an optional ``-``
    and ASCII digits) in a clause line, a problem line or as a map key, and
    a second ``c map`` line for one variable.
    """
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
                v = _int(parts[2], line)
                if v in node_map:
                    raise ValueError(f"second map line for variable {v}: {line!r}")
                node_map[v] = parts[3]
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            if num_vars is not None:
                raise ValueError(f"second problem line: {line!r}")
            num_vars = _int(parts[2], line)
            num_clauses = _int(parts[3], line)
            continue
        if num_vars is None:
            raise ValueError(f"clause line before the problem line: {line!r}")
        literals += [_int(token, line) for token in parts]
    if num_vars is None or num_clauses is None:
        raise ValueError("missing problem line")
    clauses = _read_clauses(literals)
    if len(clauses) != num_clauses:
        raise ValueError(f"expected {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, clauses, node_map)
