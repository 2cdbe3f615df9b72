"""Monotone boolean equation systems and their concrete semantics.

A system is an ordered list of equations x_i = f_i(x_1, ..., x_n) over the
two-point lattice {0, 1}.  Right-hand sides are built from constants, state
variables, free parameters (of either polarity), conjunction, and
disjunction.  Negation of state variables is excluded by construction, so
every f_i is monotone in the state: the least fixpoint is reached by
iterating from the all-zeros tuple in at most n steps, the greatest from
the all-ones tuple.

Bits are plain ints.  Evaluation works bitwise, so callers may pack many
boolean scenarios into one int (pass the all-ones mask as ``ones``); the
default ``ones=1`` gives ordinary 0/1 semantics.  Everything here is
immutable and side-effect free.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
import re

Valuation = tuple[int, ...]        # one bit per state variable
ParamAssignment = tuple[int, ...]  # one bit per parameter
_Program = tuple[list[tuple[type, int, int]], int]  # gates and output slot (see _gate_list)
IndexSet = frozenset[int]          # set of variable indices

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a name; the text tokenizer uses it too


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    """Occurrence of a state variable; never negated."""

    index: int


@dataclass(frozen=True)
class Param:
    """Occurrence of a free parameter, positive or negated."""

    index: int
    negated: bool = False


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Const | Var | Param | And | Or


def _leaves(f: Formula) -> Iterator[Formula]:
    """The nodes of f that are not exactly an And or an Or, left to right, by an explicit stack."""
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) is And or type(node) is Or:
            stack += node.right, node.left
        else:
            yield node


def support(f: Formula) -> IndexSet:
    """The set of state variables occurring syntactically in f."""
    return frozenset(node.index for node in _leaves(f) if type(node) is Var)


@dataclass(frozen=True)
class System:
    """An ordered tuple of monotone equations plus declared names.

    ``formulas[i]`` is the right-hand side defining ``var_names[i]``.
    Validation happens at construction; a System that exists is well formed:
    every node is exactly a Const, Var, Param, And or Or, every constant the
    int 0 or 1, every index an int in range and every polarity a bool.  The
    parser builds only such nodes, with distinct names, so it builds its
    result with ``_trusted``, which skips these checks.
    """

    formulas: tuple[Formula, ...]
    var_names: tuple[str, ...]
    param_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.formulas)
        if n < 1:
            raise ValueError("a system needs at least one equation")
        if len(self.var_names) != n:
            raise ValueError("var_names length must match formula count")
        names = self.var_names + self.param_names
        if len(set(names)) != len(names):
            raise ValueError("variable and parameter names must be distinct")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid identifier: {name!r}")
        num_params = len(self.param_names)
        for i, f in enumerate(self.formulas):
            for node in _leaves(f):
                kind = type(node)
                if kind is Const:
                    ok = type(node.value) is int and node.value in (0, 1)
                elif kind is Var:
                    ok = type(node.index) is int and 0 <= node.index < n
                elif kind is Param:
                    ok = type(node.index) is int and 0 <= node.index < num_params
                    ok = ok and type(node.negated) is bool
                else:
                    raise ValueError(f"equation {i} contains {node!r}, not a formula node")
                if not ok:
                    raise ValueError(
                        f"equation {i} uses {node!r}: a constant must be the int 0 or 1, "
                        "an index an int in range and a polarity a bool"
                    )

    @classmethod
    def _trusted(
        cls, formulas: tuple[Formula, ...], var_names: tuple[str, ...], param_names: tuple[str, ...]
    ) -> "System":
        """The system without the constructor's checks, for input that meets
        them by construction."""
        system = object.__new__(cls)
        object.__setattr__(system, "formulas", formulas)
        object.__setattr__(system, "var_names", var_names)
        object.__setattr__(system, "param_names", param_names)
        return system

    @property
    def n(self) -> int:
        return len(self.formulas)

    @property
    def num_params(self) -> int:
        return len(self.param_names)

    def supports(self) -> list[tuple[int, ...]]:
        """Sorted support of each equation, by equation index."""
        return list(self._supports)

    # Computed once per system on first use and kept in the instance dict,
    # outside the dataclass fields, so equality and hashing never see them.
    @cached_property
    def _supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(support(f))) for f in self.formulas)

    @cached_property
    def _readers(self) -> tuple[tuple[int, ...], ...]:
        """For each variable j, the equations whose support contains j."""
        readers: list[list[int]] = [[] for _ in self.formulas]
        for i, supp in enumerate(self._supports):
            for j in supp:
                readers[j].append(i)
        return tuple(map(tuple, readers))

    @cached_property
    def _sccs(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The strongly connected components of the support graph, an edge
        running from each variable to each variable of its support.

        Returns ``(components, component_of)``: each component's members,
        ascending, with the components in reverse topological order (every
        edge that leaves a component enters an earlier one), and each
        variable's index into ``components``.  One iterative pass of
        Tarjan's algorithm (SIAM J. Comput. 1972), so a long chain cannot
        reach the recursion limit.
        """
        supports = self._supports
        n = self.n
        number = [0] * n  # depth-first number from 1; 0 while unvisited
        low = [0] * n
        component_of = [-1] * n  # -1 until a component is closed
        components: list[tuple[int, ...]] = []
        path: list[int] = []
        count = 0
        for start in range(n):
            if number[start]:
                continue
            count += 1
            number[start] = low[start] = count
            path.append(start)
            work = [(start, iter(supports[start]))]
            while work:
                v, edges = work[-1]
                for w in edges:
                    if not number[w]:
                        count += 1
                        number[w] = low[w] = count
                        path.append(w)
                        work.append((w, iter(supports[w])))
                        break
                    if component_of[w] < 0 and number[w] < low[v]:
                        low[v] = number[w]  # w is on the path, below v
                else:
                    work.pop()
                    if low[v] == number[v]:
                        at = len(path) - 1
                        while path[at] != v:
                            at -= 1
                        members = path[at:]
                        del path[at:]
                        for w in members:
                            component_of[w] = len(components)
                        members.sort()
                        components.append(tuple(members))
                    elif low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
        return tuple(components), tuple(component_of)

    @cached_property
    def _cones(self) -> tuple[int, ...]:
        """For each variable, the bitmask of the variables reachable from it, itself included.

        Read off ``_sccs``: a component's cone is its members OR the cones of
        the components its edges enter, which come earlier, so one OR per
        edge.  An edge inside the component ORs the 0 not yet replaced.
        """
        components, component_of = self._sccs
        supports = self._supports
        cones = [0] * len(components)
        for c, members in enumerate(components):
            cone = 0
            for v in members:
                cone |= 1 << v
                for w in supports[v]:
                    cone |= cones[component_of[w]]
            cones[c] = cone
        return tuple([cones[c] for c in component_of])

    @cached_property
    def _programs(self) -> tuple[_Program, ...]:
        """Each equation compiled once into its gate list (see ``_gate_list``)."""
        num_params = self.num_params
        return tuple(_gate_list(f, s, num_params) for f, s in zip(self.formulas, self._supports))

    @cached_property
    def _shapes(self) -> tuple[tuple[int, ...], ...]:
        """For each equation, the equations of its shape, itself included.

        A shape is the support length plus the gate list and output slot in
        ``_programs``.  The equations of one shape share the tuple, and
        ``emit.to_cnf`` compiles one clause template for all of them.
        """
        groups: dict[tuple, list[int]] = {}
        for i, (supp, (gates, out)) in enumerate(zip(self._supports, self._programs)):
            groups.setdefault((len(supp), out, *gates), []).append(i)
        shapes: list[tuple[int, ...]] = [()] * self.n
        for members in groups.values():
            peers = tuple(members)
            for i in peers:
                shapes[i] = peers
        return tuple(shapes)

    @cached_property
    def _clause_templates(self) -> dict[int, list]:
        """``emit.to_cnf``'s clause templates, compiled from ``_programs`` on
        first use: per set of constants already numbered (a bitmask), one
        slot per equation.  A template is compiled once per shape (see
        ``_shapes``) and fills the slots of every equation of that shape, so
        a node still finds its template by one list index."""
        return {}


def _gate_list(f: Formula, support: tuple[int, ...], num_params: int) -> _Program:
    """Post-order gate list of one equation's formula, and its output slot.

    Slots name the values a gate reads and writes: first the equation's
    support variables in support order, then each parameter's positive and
    negated literal, then the gate outputs in list order.  A gate is
    ``(And|Or, left slot, right slot)``, or ``(Const, value, 0)`` for a
    constant.  This is the one compiled form of an equation: ``_run``
    evaluates it, ``text.format_system`` prints it, and ``emit.to_cnf``
    compiles it once more into the clause template that prints the clauses
    of every node applying an equation of its shape (see ``System._shapes``
    and ``emit._template``).
    """
    slot_of_var = {v: k for k, v in enumerate(support)}
    param_base = len(support)
    gate_base = param_base + 2 * num_params
    gates: list[tuple[type, int, int]] = []

    def slot(g: Formula) -> int:
        if isinstance(g, Var):
            return slot_of_var[g.index]
        if isinstance(g, Param):
            return param_base + 2 * g.index + g.negated
        if isinstance(g, Const):
            gates.append((Const, g.value, 0))
        elif isinstance(g, (And, Or)):
            left = slot(g.left)
            right = slot(g.right)
            gates.append((type(g), left, right))
        else:
            raise TypeError(f"not a formula node: {g!r}")
        return gate_base + len(gates) - 1

    out = slot(f)
    return gates, out


def _run(program: _Program, slots: list[int], ones: int) -> int:
    """Value of a compiled equation (see ``_gate_list``).

    ``slots`` holds the equation's support values, then each parameter's
    bits and their complement; each gate's value is appended to it.  Bits
    may be packed bitmasks covering many scenarios at once; ``ones`` is then
    the all-ones mask of that width.
    """
    gates, out = program
    for op, a, b in gates:
        if op is And:
            slots.append(slots[a] & slots[b])
        elif op is Or:
            slots.append(slots[a] | slots[b])
        else:
            slots.append(ones if a else 0)
    return slots[out]


def _check_params(system: System, p: ParamAssignment, ones: int) -> None:
    """Refuse a lane mask ``ones`` that is not an int 2**w - 1 with w >= 1,
    and a parameter tuple that does not give one int, a mask no wider than
    ``ones``, per parameter.  A bool is not an int here."""
    if not (type(ones) is int and ones > 0 and not ones & (ones + 1)):
        raise ValueError(f"lane mask {ones!r} is not an int of the form 2**w - 1 with w >= 1")
    if len(p) != system.num_params:
        raise ValueError(f"expected {system.num_params} parameter bits, got {len(p)}")
    for bits in p:
        if type(bits) is not int:
            raise ValueError(f"parameter bits {bits!r} are not an int")
        if bits | ones != ones:
            raise ValueError(
                f"parameter bits {bits:#x} lie outside the {ones.bit_length()}-bit mask"
            )


def _check_masked(system: System, sets: Iterable[IndexSet]) -> None:
    """Refuse a masked set with an index outside 0..n-1."""
    indices = frozenset(range(system.n))
    for s in sets:
        if not indices.issuperset(s):
            raise ValueError(f"masked set {sorted(s)} has an index outside 0..{system.n - 1}")


def _changing_rounds(
    system: System,
    x: list[int],
    live: Sequence[int],
    p: ParamAssignment,
    ones: int,
    own: Sequence[int] | None = None,
) -> Iterator[None]:
    """Apply the system in rounds to x in place; yield after each round that
    changed x, and stop at the first round that changes nothing.

    Equation i sets x_i to f_i(x) & live[i]: a bit of ``live[i]`` that is 0
    pins x_i to 0 there, and an equation with no live bit is never
    evaluated.  Where ``own[i]`` has a bit, f_i reads its own variable x_i
    as 0 there, as if x_i were replaced by 0 inside f_i; by default it reads
    x_i as it is.  Round 1 evaluates every other equation; each later round
    re-evaluates only the readers of the variables the previous round
    changed.  That is exact: f_i reads only its support, so if no variable in
    it changed, neither does x_i.  Every round evaluates against the previous
    iterate, so the rounds are the parallel applications x^{k+1} = f(x^k)
    themselves.
    """
    supports = system._supports
    programs = system._programs
    readers = system._readers
    pslots = [lit for bits in p for lit in (bits, bits ^ ones)]
    pinned = {i for i, lanes in enumerate(live) if not lanes}
    dirty = set(range(system.n)).difference(pinned)
    while True:
        changed = []
        for i in dirty:
            xi = x[i]
            if own is not None:
                x[i] = xi & ~own[i]  # hidden from f_i for this evaluation only
            slots = [x[v] for v in supports[i]]
            slots += pslots
            value = _run(programs[i], slots, ones) & live[i]
            x[i] = xi
            if value != xi:
                changed.append((i, value))
        if not changed:
            return
        dirty = set()
        for j, value in changed:
            x[j] = value
            dirty.update(readers[j])
        dirty.difference_update(pinned)
        yield


def _settle(
    system: System,
    x: list[int],
    p: ParamAssignment,
    ones: int,
    own: Sequence[int] | None = None,
) -> tuple[Valuation, int]:
    """Iterate from x until a round changes nothing; return (fixpoint, depth).

    Depth counts the rounds that changed something.  From a bottom or top
    start a monotone system settles within n of them, so one more raises
    RuntimeError: only a faulty evaluator gets there, since every System is
    monotone by construction.  ``own`` is passed on to ``_changing_rounds``; reading
    x_i as 0 inside f_i leaves every f_i monotone, so the bound still holds.
    """
    _check_params(system, p, ones)
    depth = 0
    for _ in _changing_rounds(system, x, [ones] * system.n, p, ones, own):
        depth += 1
        if depth > system.n:
            raise RuntimeError("iteration exceeded the lattice height; system is not monotone")
    return tuple(x), depth


def kleene_lfp(
    system: System, p: ParamAssignment = (), ones: int = 1
) -> tuple[Valuation, int]:
    """Least fixpoint by ascending iteration from the all-zeros tuple.

    Returns (fixpoint, depth) where depth is the least number of
    applications after which the iterate stops changing.  The depth is at
    most n.

    Each application after the first re-evaluates only the equations with a
    variable in their support that the one before changed.  The others would
    return the value they already have, so the iterates, and with them the
    depth, are those of applying every equation in every round.
    """
    return _settle(system, [0] * system.n, p, ones)


def greatest_fixpoint(system: System, p: ParamAssignment = ()) -> tuple[Valuation, int]:
    """Greatest fixpoint by descending iteration from the all-ones tuple.

    The mirror image of ``kleene_lfp``: the iterates descend and settle
    within n applications, and depth counts the applications that changed
    something.
    """
    return _settle(system, [1] * system.n, p, 1)


def masked_iterates(
    system: System,
    masked: IndexSet,
    m: int,
    p: ParamAssignment = (),
    ones: int = 1,
) -> list[Valuation]:
    """Iterates x^0 .. x^m where equations in ``masked`` are pinned to 0.

    Runs the system whose i-th component is the constant 0 when i is in
    ``masked`` and f_i otherwise, starting from all zeros.  Like
    ``kleene_lfp``, each round re-evaluates only the equations with a variable
    in their support that the round before changed; once a round changes
    nothing, the rest of the iterates repeat the last one.
    """
    if type(m) is not int or m < 0:
        raise ValueError(f"iteration count must be a nonnegative int, got {m!r}")
    _check_params(system, p, ones)
    _check_masked(system, (masked,))
    return _iterates(system, [0 if i in masked else ones for i in range(system.n)], m, p, ones)


def _iterates(
    system: System, live: Sequence[int], m: int, p: ParamAssignment, ones: int
) -> list[Valuation]:
    """Iterates x^0 .. x^m from all zeros with x_i <- f_i(x) & live[i]."""
    x = [0] * system.n
    out = [tuple(x)]
    for _ in islice(_changing_rounds(system, x, live, p, ones), m):
        out.append(tuple(x))
    out.extend([out[-1]] * (m + 1 - len(out)))
    return out


def param_masks(num_params: int) -> tuple[ParamAssignment, int]:
    """Packed truth-table masks enumerating all 2**P assignments at once.

    Returns (masks, ones) where bit j of masks[k] is the value of parameter
    k in assignment j, and ones is the all-ones mask of width 2**P.  Feeding
    these to the evaluation functions computes all assignments in one pass.
    """
    width = 1 << num_params
    ones = (1 << width) - 1
    masks = []
    for k in range(num_params):
        m = 0
        for j in range(width):
            if (j >> k) & 1:
                m |= 1 << j
        masks.append(m)
    return tuple(masks), ones


def decode_param_slice(num_params: int, j: int) -> ParamAssignment:
    """The concrete assignment behind bit position j of a packed run."""
    return tuple((j >> k) & 1 for k in range(num_params))
