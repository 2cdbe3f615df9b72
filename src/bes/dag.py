"""Symbolic closed forms of the least fixpoint as hash-consed term DAGs.

Two builders produce an expression for the fixpoint without evaluating it:

* ``build_expanded``: the k-fold unrolling of the whole system applied to
  bottom, with one shared node per (iteration level, equation), so at most
  k*n applications.
* ``build_pruned``: the recursion that replaces a nested application of an
  equation by bottom whenever that equation is already being applied in the
  enclosing context.  Sharing comes from hash-consing plus a memo key that
  drops masked indices the subterm can never consult.

Nodes are uninterpreted applications of equation i to one subterm per
support variable of f_i, in ascending variable order.  A DAG is made for
one layout, the sorted support of each equation, so a node stores only
``(i, ids)``: the equation and its argument ids in support order.  That
plain tuple is the node's entry in the table and its key in the
hash-consing index.  ``TermDag.node`` pairs the ids with their variables
again, as an ``Apply``, for a reader that wants them.  The two leaves bottom
and top occupy ids 0 and 1 of every DAG.  A builder ends with
``freeze(roots)``, which sets one root per equation and closes the table;
everything downstream reads a DAG with roots, and a DAG is frozen exactly
when it has them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, islice
from typing import NamedTuple

from .core import ParamAssignment, System, Valuation, _check_params, _run

BOTTOM = 0
TOP = 1


class Apply(NamedTuple):
    """Application of equation ``func`` to one argument per support variable."""

    func: int
    args: tuple[tuple[int, int], ...]  # (variable index, term id), ascending


class TermDag:
    """Append-only, hash-consed table of term nodes with one root per equation.

    ``supports`` is the DAG's layout: for each equation, the variables its
    arguments stand for, in order.  ``arity`` is the number of equations.
    Entry ``tid`` of ``table`` is ``"bot"`` and ``"top"`` for the leaves 0
    and 1, and ``(func, ids)`` for an application, one id per variable of
    ``supports[func]``.

    Nodes are added with ``apply`` until ``freeze`` sets the roots; after
    that the table is read-only, and reading ``roots`` before it raises.
    ``apply`` refuses an argument that is not an int id already in the
    table, so every argument id is lower than its node's id.  The passes
    over a frozen DAG rely on that rule: one sweep up the table meets every
    argument before its node, and one sweep down meets every node before its
    arguments.
    """

    def __init__(self, supports: Sequence[Sequence[int]]):
        self.supports: tuple[tuple[int, ...], ...] = tuple(map(tuple, supports))
        self.arity = len(self.supports)
        self._nodes: list[tuple[int, tuple[int, ...]] | str] = ["bot", "top"]
        self._index: dict[tuple[int, tuple[int, ...]], int] = {}
        self._roots: tuple[int, ...] | None = None
        self._reached: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def table(self) -> list[tuple[int, tuple[int, ...]] | str]:
        """The node table itself, indexed by id; callers must not change it."""
        return self._nodes

    def node(self, tid: int) -> Apply | str:
        """The leaf's name, or the application with each id beside its variable.

        Refuses an id that is not an int (a bool included) in
        ``range(len(self))``, as ``apply`` refuses an argument id.
        """
        if not (type(tid) is int and 0 <= tid < len(self._nodes)):
            raise ValueError(f"id {tid!r} is not the id of a node in the table")
        node = self._nodes[tid]
        if tid <= TOP:
            return node
        func, ids = node
        return Apply(func, tuple(zip(self.supports[func], ids)))

    @property
    def roots(self) -> tuple[int, ...]:
        if self._roots is None:
            raise RuntimeError("DAG has no roots yet")
        return self._roots

    def apply(self, func: int, ids: tuple[int, ...]) -> int:
        """Intern equation ``func`` applied to ``ids``, in the order of its
        support; structurally equal nodes share one id.

        The public entry point: it refuses an index or id that is not an int
        (a bool included) in range, ids that are not a tuple of the
        equation's support length, and a frozen DAG.  The builders pass only
        ids they got from the table, so they call ``_intern`` directly.
        """
        if self._roots is not None:
            raise RuntimeError("DAG is frozen")
        if not (type(func) is int and 0 <= func < self.arity):
            raise ValueError(f"equation index {func!r} is not an int in range({self.arity})")
        if not isinstance(ids, tuple):
            raise ValueError(f"argument ids {ids!r} are not a tuple")
        if len(ids) != len(self.supports[func]):
            raise ValueError("argument count does not match the equation's support")
        size = len(self._nodes)
        for arg in ids:
            if not (type(arg) is int and 0 <= arg < size):
                raise ValueError(f"argument {arg!r} is not the id of a node in the table")
        return self._intern(func, ids)

    def _intern(self, func: int, ids: tuple[int, ...]) -> int:
        """``apply`` without its checks: the one place a node enters the table.

        The caller vouches that the DAG is not frozen, that ``func`` is an
        equation index and that ``ids`` is a tuple of the support's length
        holding ids already in the table.
        """
        node = (func, ids)
        tid = self._index.get(node)
        if tid is None:
            tid = self._index[node] = len(self._nodes)
            self._nodes.append(node)
        return tid

    def freeze(self, roots: tuple[int, ...]) -> "TermDag":
        """Set one root per equation and end construction; returns the DAG."""
        if self._roots is not None:
            raise RuntimeError("DAG is frozen")
        roots = tuple(roots)  # a caller's list must not change the frozen DAG
        if len(roots) != self.arity:
            raise ValueError("need exactly one root per equation")
        if not all(type(r) is int and 0 <= r < len(self._nodes) for r in roots):
            raise ValueError(f"roots {roots!r} are not all ids of nodes in the table")
        self._roots = roots
        return self

    def reachable(self) -> list[int]:
        """Ids reachable from the roots, ascending (hence topologically sorted).

        One sweep down the table: a node is marked before the sweep reaches
        it, since its readers all have higher ids.  A frozen table never
        changes, so the sweep runs once per DAG; each call returns a fresh
        list of the kept ids.
        """
        roots = self.roots
        if self._reached is None:
            nodes = self._nodes
            marks = bytearray(len(nodes))
            for root in roots:
                marks[root] = 1
            for tid in range(len(nodes) - 1, 1, -1):
                if marks[tid]:
                    for arg in nodes[tid][1]:
                        marks[arg] = 1
            # the ids as the index holds them, in table order, so the kept
            # tuple shares the table's int objects instead of making more
            self._reached = (
                *compress((BOTTOM, TOP), marks), *compress(self._index.values(), marks[2:])
            )
        return list(self._reached)


class PrunedBuilder:
    """Shared construction of pruned subterms for any (masked set, equation) pair.

    A masked set is an int bitmask, bit i standing for equation i.  Each
    equation has a memo of its own, ``_memo[i]``, keyed by the int
    ``masked & _key_sets[i]``: the masked set restricted to the equation's
    cone (``System._cones``), or with ``canonical_keys=False`` all of it,
    which builds the same terms with less sharing.  The equation's own index
    is in its cone but never in a key: ``term`` returns bottom first.
    ``_children[i]`` holds, per support variable j of equation i, what the
    child loop reads: j's bit, memo and key set, and j itself.
    """

    def __init__(self, system: System, canonical_keys: bool = True):
        self.dag = TermDag(system._supports)
        memo = self._memo = [{} for _ in range(system.n)]
        key_sets = self._key_sets = system._cones if canonical_keys else (-1,) * system.n
        self._children = [
            tuple([(1 << j, memo[j], key_sets[j], j) for j in support])
            for support in system._supports
        ]

    def term(self, masked: int, i: int) -> int:
        """Id of the subterm for equation i under the masked set ``masked``.

        A child that is masked (bottom) or already in its memo is resolved
        in the child loop, so the recursion enters ``term`` only on a memo
        miss.  A memoized id is an application's, 2 or more, so never false.
        """
        bit = 1 << i
        if masked & bit:
            return BOTTOM
        memo = self._memo[i]
        key = masked & self._key_sets[i]
        tid = memo.get(key)
        if tid is None:
            inner = masked | bit
            ids = tuple([
                BOTTOM if inner & j_bit else j_memo.get(inner & j_keys) or self.term(inner, j)
                for j_bit, j_memo, j_keys, j in self._children[i]
            ])
            tid = memo[key] = self.dag._intern(i, ids)
        return tid


def build_pruned(system: System) -> TermDag:
    """The pruned closed form: one root per equation, nothing masked at the top."""
    builder = PrunedBuilder(system)
    return builder.dag.freeze(tuple(builder.term(0, i) for i in range(system.n)))


def build_pruned_reference(system: System) -> TermDag:
    """Pruned form built with unrestricted memo keys; oracle for key soundness."""
    builder = PrunedBuilder(system, canonical_keys=False)
    return builder.dag.freeze(tuple(builder.term(0, i) for i in range(system.n)))


def build_expanded(system: System, k: int | None = None) -> TermDag:
    """The k-fold unrolled closed form; k defaults to the lattice height n.

    Root i is equation i applied to the (k-1)-fold unrolling of every
    support variable; with k = 0 every root is bottom.  Nodes are shared per
    (level, equation), so the DAG holds at most k*n applications.
    """
    n = system.n
    if k is None:
        k = n
    if type(k) is not int or k < 0:
        raise ValueError(f"unrolling depth must be a nonnegative int, got {k!r}")
    dag = TermDag(system._supports)
    level = [BOTTOM] * n
    for _ in range(k):
        level = [
            dag._intern(i, tuple([level[j] for j in support]))
            for i, support in enumerate(dag.supports)
        ]
    return dag.freeze(tuple(level))


def with_top_leaves(dag: TermDag) -> TermDag:
    """Copy of the DAG with every bottom leaf replaced by top.

    The builders unroll the system from bottom, where ascending iteration
    starts; the copy unrolls the same equations from top, where descending
    iteration starts.  So where the DAG evaluates to the least fixpoint (the
    pruned form, or the expanded form at the default depth n), the copy
    evaluates to the greatest.
    """
    out = TermDag(dag.supports)
    remap = [TOP, TOP]
    for func, ids in islice(dag.table, 2, None):
        remap.append(out._intern(func, tuple([remap[a] for a in ids])))
    return out.freeze(tuple([remap[r] for r in dag.roots]))


def _check_layout(dag: TermDag, system: System) -> None:
    """Refuse a DAG made for another system's layout.

    A node's ids stand for the variables of its equation's support in the
    DAG's layout, so read with another system they would be wrong arguments.
    """
    if dag.arity != system.n:
        raise ValueError("DAG arity does not match the system")
    if dag.supports != system._supports:
        raise ValueError("DAG argument layout does not match the system's supports")


def node_values(
    dag: TermDag, system: System, p: ParamAssignment = (), ones: int = 1
) -> list[int]:
    """Value of every node in table order, computed bottom-up in one pass.

    The parameters are fixed within a call, so a node's value depends only on
    its equation and its arguments' values.  Each distinct such application
    runs its gate list once; every other node with the same key reuses that
    value.
    """
    _check_layout(dag, system)
    _check_params(system, p, ones)
    programs = system._programs
    pslots = [lit for bits in p for lit in (bits, bits ^ ones)]
    values = [0, ones]
    known: list[dict[tuple[int, ...], int]] = [{} for _ in programs]
    for func, ids in islice(dag.table, 2, None):
        args = tuple([values[a] for a in ids])
        value = known[func].get(args)
        if value is None:
            value = known[func][args] = _run(programs[func], [*args, *pslots], ones)
        values.append(value)
    return values


def eval_dag(dag: TermDag, system: System, p: ParamAssignment = (), ones: int = 1) -> Valuation:
    """Evaluate the DAG's roots; bottom is 0, top is all-ones, nodes memoized."""
    values = node_values(dag, system, p, ones)
    return tuple(values[r] for r in dag.roots)


@dataclass(frozen=True)
class DagStats:
    """Size measures of a DAG; tree_size counts the fully unshared rendering."""

    apply_count: int
    edge_count: int
    dag_depth: int
    tree_size: int


def dag_stats(dag: TermDag) -> DagStats:
    """Counts over the nodes reachable from the roots.

    ``tree_size`` sums, over the roots, the node count of each root's
    unshared tree; it is exact (arbitrary precision) since it grows
    exponentially for dense systems.
    """
    apply_count = 0
    edge_count = 0
    table = dag.table
    depth = [0] * len(table)
    size = [1] * len(table)
    for tid in dag.reachable():
        if tid <= TOP:
            continue
        ids = table[tid][1]
        apply_count += 1
        edge_count += len(ids)
        deepest = -1
        total = 1
        for arg in ids:
            if depth[arg] > deepest:
                deepest = depth[arg]
            total += size[arg]
        depth[tid] = deepest + 1
        size[tid] = total
    return DagStats(
        apply_count=apply_count,
        edge_count=edge_count,
        dag_depth=max((depth[r] for r in dag.roots), default=0),
        tree_size=sum(size[r] for r in dag.roots),
    )
