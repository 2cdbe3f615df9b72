"""Symbolic closed forms of the least fixpoint as hash-consed term DAGs.

Two builders produce an expression for the fixpoint without evaluating it:

* ``build_expanded``: the k-fold unrolling of the whole system applied to
  bottom, with one shared node per (iteration level, equation), so at most
  k*n applications.
* ``build_pruned``: the recursion that replaces a nested application of an
  equation by bottom whenever that equation is already being applied in the
  enclosing context.  Sharing comes from hash-consing plus a memo key that
  drops masked indices the subterm can never consult.

Nodes are uninterpreted applications ``Apply(i, args)`` of equation i to
one subterm per support variable of f_i, in ascending variable order.  The
two leaves bottom and top occupy ids 0 and 1 of every DAG.  A DAG is
mutable only while its builder runs; everything downstream sees it frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    IndexSet,
    ParamAssignment,
    System,
    Valuation,
    eval_formula,
)

BOTTOM = 0
TOP = 1


@dataclass(frozen=True)
class Apply:
    """Application of equation ``func`` to one argument per support variable."""

    func: int
    args: tuple[tuple[int, int], ...]  # (variable index, term id), ascending


class TermDag:
    """Append-only, hash-consed table of term nodes with one root per equation."""

    def __init__(self, arity: int):
        self.arity = arity
        self._nodes: list[Apply | str] = ["bot", "top"]
        self._index: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
        self._roots: tuple[int, ...] | None = None
        self._frozen = False

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, tid: int) -> Apply | str:
        return self._nodes[tid]

    def is_leaf(self, tid: int) -> bool:
        return tid < 2

    @property
    def roots(self) -> tuple[int, ...]:
        if self._roots is None:
            raise RuntimeError("DAG has no roots yet")
        return self._roots

    @property
    def frozen(self) -> bool:
        return self._frozen

    def apply(self, func: int, args: tuple[tuple[int, int], ...]) -> int:
        """Intern an application node; structurally equal nodes share one id."""
        if self._frozen:
            raise RuntimeError("DAG is frozen")
        key = (func, args)
        tid = self._index.get(key)
        if tid is None:
            for _, arg in args:
                if not 0 <= arg < len(self._nodes):
                    raise ValueError("argument refers to a node that does not exist yet")
            tid = len(self._nodes)
            self._nodes.append(Apply(func, args))
            self._index[key] = tid
        return tid

    def set_roots(self, roots: tuple[int, ...]) -> None:
        if self._frozen:
            raise RuntimeError("DAG is frozen")
        if len(roots) != self.arity:
            raise ValueError("need exactly one root per equation")
        self._roots = roots

    def freeze(self) -> "TermDag":
        if self._roots is None:
            raise RuntimeError("cannot freeze a DAG without roots")
        self._frozen = True
        return self

    def reachable(self) -> list[int]:
        """Ids reachable from the roots, ascending (hence topologically sorted)."""
        seen = set(self.roots)
        stack = list(self.roots)
        while stack:
            tid = stack.pop()
            node = self._nodes[tid]
            if isinstance(node, Apply):
                for _, arg in node.args:
                    if arg not in seen:
                        seen.add(arg)
                        stack.append(arg)
        return sorted(seen)


def _cones(system: System) -> list[frozenset[int]]:
    """For each variable, the set of variables reachable from it, itself included."""
    supports = system.supports()
    cones: list[frozenset[int]] = []
    for start in range(system.n):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in supports[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        cones.append(frozenset(seen))
    return cones


class PrunedBuilder:
    """Shared construction of pruned subterms for any (masked set, equation) pair.

    ``canonical_keys`` switches the memo key between the raw masked set and
    its restriction to the indices actually consultable from the equation's
    support; both produce semantically identical terms, the restricted key
    just shares more work.
    """

    def __init__(self, system: System, canonical_keys: bool = True):
        self.system = system
        self.dag = TermDag(system.n)
        self._supports = system.supports()
        self._memo: dict[tuple[int, IndexSet], int] = {}
        if canonical_keys:
            cones = _cones(system)
            self._key_sets = [
                frozenset().union(*(cones[j] for j in supp)) if supp else frozenset()
                for supp in self._supports
            ]
        else:
            self._key_sets = None

    def term(self, masked: IndexSet, i: int) -> int:
        """Id of the subterm for equation i under the given masked set."""
        if i in masked:
            return BOTTOM
        key_set = masked if self._key_sets is None else masked & self._key_sets[i]
        key = (i, key_set)
        tid = self._memo.get(key)
        if tid is None:
            inner = masked | {i}
            args = tuple((j, self.term(inner, j)) for j in self._supports[i])
            tid = self.dag.apply(i, args)
            self._memo[key] = tid
        return tid


def build_pruned(system: System) -> TermDag:
    """The pruned closed form: one root per equation, nothing masked at the top."""
    builder = PrunedBuilder(system)
    empty: IndexSet = frozenset()
    builder.dag.set_roots(tuple(builder.term(empty, i) for i in range(system.n)))
    return builder.dag.freeze()


def build_pruned_reference(system: System) -> TermDag:
    """Pruned form built with unrestricted memo keys; oracle for key soundness."""
    builder = PrunedBuilder(system, canonical_keys=False)
    empty: IndexSet = frozenset()
    builder.dag.set_roots(tuple(builder.term(empty, i) for i in range(system.n)))
    return builder.dag.freeze()


def build_expanded(system: System, k: int | None = None) -> TermDag:
    """The k-fold unrolled closed form; k defaults to the lattice height n.

    Root i is equation i applied to the (k-1)-fold unrolling of every
    support variable; with k = 0 every root is bottom.  Nodes are shared per
    (level, equation), so the DAG holds at most k*n applications.
    """
    n = system.n
    if k is None:
        k = n
    if k < 0:
        raise ValueError("unrolling depth must be nonnegative")
    supports = system.supports()
    dag = TermDag(n)
    level = [BOTTOM] * n
    for _ in range(k):
        level = [
            dag.apply(i, tuple((j, level[j]) for j in supports[i])) for i in range(n)
        ]
    dag.set_roots(tuple(level))
    return dag.freeze()


def with_top_leaves(dag: TermDag) -> TermDag:
    """Copy of the DAG with every bottom leaf replaced by top.

    The builders unroll the system from bottom, where ascending iteration
    starts; the copy unrolls the same equations from top, where descending
    iteration starts.  So where the DAG evaluates to the least fixpoint (the
    pruned form, or the expanded form at the default depth n), the copy
    evaluates to the greatest.
    """
    out = TermDag(dag.arity)
    remap = {BOTTOM: TOP, TOP: TOP}
    for tid in range(2, len(dag)):
        node = dag.node(tid)
        assert isinstance(node, Apply)
        args = tuple((v, remap[a]) for v, a in node.args)
        remap[tid] = out.apply(node.func, args)
    out.set_roots(tuple(remap[r] for r in dag.roots))
    return out.freeze()


def node_values(
    dag: TermDag, system: System, p: ParamAssignment = (), ones: int = 1
) -> list[int]:
    """Value of every node in table order, computed bottom-up in one pass."""
    if dag.arity != system.n:
        raise ValueError("DAG arity does not match the system")
    supports = [list(supp) for supp in system.supports()]
    formulas = system.formulas
    # One argument buffer serves every node: a node writes exactly the
    # support slots of its equation, which are all that equation reads.
    x = [0] * system.n
    values = [0, ones]
    for tid in range(2, len(dag)):
        node = dag.node(tid)
        assert isinstance(node, Apply)
        if [v for v, _ in node.args] != supports[node.func]:
            raise ValueError("DAG argument layout does not match the system's supports")
        for v, arg in node.args:
            x[v] = values[arg]
        values.append(eval_formula(formulas[node.func], x, p, ones))
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
    reach = dag.reachable()
    apply_count = 0
    edge_count = 0
    depth = {BOTTOM: 0, TOP: 0}
    size = {BOTTOM: 1, TOP: 1}
    for tid in reach:
        node = dag.node(tid)
        if not isinstance(node, Apply):
            continue
        apply_count += 1
        edge_count += len(node.args)
        depth[tid] = 1 + max((depth[a] for _, a in node.args), default=-1)
        size[tid] = 1 + sum(size[a] for _, a in node.args)
    return DagStats(
        apply_count=apply_count,
        edge_count=edge_count,
        dag_depth=max((depth[r] for r in dag.roots), default=0),
        tree_size=sum(size[r] for r in dag.roots),
    )
