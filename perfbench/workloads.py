"""Inputs of the four workloads, made from the workload seed.

Each input is a ``Request``: BES text plus the benchmark's own copy of the
system (formulas as nested tuples, see ``oracle``), which the oracle
evaluates.  Named families come from ``bes.gen``; the seeded systems are
drawn here.  Every seeded system keeps a shape that does not depend on the
seed (its support graph up to renaming, and the number of leaves of each
formula), so the closed forms, the CNF and the work per request have the
same size for every seed; the seed changes operators, parameters, variable
order and link targets, and with them every value the checks compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import param_masks

WORKLOADS = ("sparse-expanded", "dense-pruned", "deep-solve", "verify-random")

# Sizes per workload; "smoke" runs every code path and check in seconds.
SIZES = {
    "full": {
        "chain": (160,),
        "banded": (170, 190),
        "complete": (11,),
        "dense": (11, 12),
        "deep": (1000, 1400),
        "deep_depth": 8,
        "wide": 3000,
        "verify": 504,
    },
    "smoke": {
        "chain": (8,),
        "banded": (10,),
        "complete": (5,),
        "dense": (6,),
        "deep": (40,),
        "deep_depth": 4,
        "wide": 3000,
        "verify": 24,
    },
}

DENSE_DENSITY = 0.6
DENSE_PARAMS = 3
BANDED_PARAMS = 3
DEEP_PARAMS = 4
VERIFY_MAX_N = 6
VERIFY_MAX_PARAMS = 2
VERIFY_MAX_DEPTH = 4


@dataclass
class Request:
    """One input system and what the checks need to know about it."""

    name: str
    kind: str  # "compile", "deep" or "verify"
    text: str
    var_names: tuple[str, ...]
    param_names: tuple[str, ...]  # numbered by first occurrence, as the parser does
    formulas: tuple  # benchmark formulas over var and param_names indices
    query: tuple[int, int]
    family: tuple[str, int] | None = None
    depth: int | None = None  # unrolling depth of the bounded form ("deep")
    subsets: list = field(default_factory=list)  # masked sets for "verify"

    @property
    def masks(self) -> tuple[tuple[int, ...], int]:
        return param_masks(len(self.param_names))


def render(var_names, formulas, param_names) -> tuple[str, tuple, tuple[str, ...]]:
    """BES text of a system, in the format's canonical layout.

    Returns (text, formulas, params): parameters are renumbered in order of
    first occurrence in the text, which is how the parser numbers them, and
    unused parameters are dropped.
    """
    order: dict[int, int] = {}
    lines = []
    renumbered = []
    for name, f in zip(var_names, formulas):
        parts: list[str] = []
        stack = [f]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            kind = item[0]
            if kind == "c":
                parts.append(str(item[1]))
            elif kind == "v":
                parts.append(var_names[item[1]])
            elif kind == "p":
                order.setdefault(item[1], len(order))
                parts.append(("!?" if item[2] else "?") + param_names[item[1]])
            else:
                seq: list = []
                for pos, child in enumerate(item[1]):
                    if pos:
                        seq.append(" & " if kind == "and" else " | ")
                    wrap = child[0] == "or" and (kind == "and" or pos > 0)
                    wrap = wrap or (child[0] == "and" and kind == "and" and pos > 0)
                    seq.extend(("(", child, ")") if wrap else (child,))
                stack.extend(reversed(seq))
        lines.append(f"{name} = {''.join(parts)};")
        renumbered.append(_renumber(f, order))
    params = tuple(param_names[k] for k in sorted(order, key=order.get))
    return "\n".join(lines) + "\n", tuple(renumbered), params


def _renumber(f, order: dict[int, int]):
    """Copy of f with parameter k replaced by order[k]."""
    done: list = []
    stack = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        kind = node[0]
        if kind == "p":
            done.append(("p", order[node[1]], node[2]))
        elif kind in ("c", "v"):
            done.append(node)
        elif expanded:
            k = len(node[1])
            children = tuple(done[-k:])
            del done[-k:]
            done.append((kind, children))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node[1]))
    return done[0]


def from_bes(system) -> tuple:
    """The benchmark's copy of a bes System's formulas."""
    out = []
    for f in system.formulas:
        done: list = []
        stack = [(f, False)]
        while stack:
            node, expanded = stack.pop()
            kind = type(node).__name__
            if kind == "Const":
                done.append(("c", node.value))
            elif kind == "Var":
                done.append(("v", node.index))
            elif kind == "Param":
                done.append(("p", node.index, node.negated))
            elif expanded:
                right = done.pop()
                left = done.pop()
                done.append(("and" if kind == "And" else "or", (left, right)))
            else:
                stack.extend(((node, True), (node.right, False), (node.left, False)))
        out.append(done[0])
    return tuple(out)


def _request(name, kind, var_names, formulas, param_names, rng, **extra) -> Request:
    text, formulas, params = render(var_names, formulas, param_names)
    query = (rng.randrange(len(var_names)), 1)
    return Request(name, kind, text, tuple(var_names), params, formulas, query, **extra)


def _tree(rng: random.Random, leaves: list):
    """Random binary and/or tree with each leaf used once."""
    nodes = leaves[:]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        right = nodes.pop()
        left = nodes.pop()
        nodes.append(("and" if rng.random() < 0.5 else "or", (left, right)))
    return nodes[0]


def _param_leaf(rng: random.Random, num_params: int):
    return ("p", rng.randrange(num_params), rng.random() < 0.5)


def banded(n: int, rng: random.Random) -> tuple[list[str], list]:
    """Sparse system: x_i reads its pair partner and the next two variables.

    Pairs {2k, 2k+1} are the only cycles, so both the pruned form and the
    components are small while the expanded form has n^2 applications.
    """
    formulas = []
    for i in range(n):
        supp = sorted({i ^ 1} | {j for j in (i + 1, i + 2) if j < n})
        leaves = [("v", j) for j in supp]
        leaves += [_param_leaf(rng, BANDED_PARAMS) for _ in range(2)]
        formulas.append(_tree(rng, leaves))
    return [f"b{i}" for i in range(n)], formulas


def dense(n: int, rng: random.Random) -> tuple[list[str], list]:
    """Densely coupled system on a fixed random support graph, renamed by the seed."""
    shape = random.Random(f"dense-{n}-{DENSE_DENSITY}")
    graph = []
    for _ in range(n):
        row = [j for j in range(n) if shape.random() < DENSE_DENSITY]
        graph.append(row or [shape.randrange(n)])
    perm = list(range(n))
    rng.shuffle(perm)
    formulas: list = [None] * n
    for i, row in enumerate(graph):
        leaves = [("v", perm[j]) for j in row]
        leaves += [_param_leaf(rng, DENSE_PARAMS) for _ in range(2)]
        formulas[perm[i]] = _tree(rng, leaves)
    return [f"y{i}" for i in range(n)], formulas


def deep(n: int, rng: random.Random) -> tuple[list[str], list]:
    """System whose least fixpoint takes exactly n rounds.

    d_i = d_{i-1} & ?a | d_j & !?b with seeded a, b and j.  Under the
    all-ones assignment the negated terms vanish and d_0 = ?a, so the chain
    turns on one variable per round.
    """
    formulas = []
    for i in range(n):
        a = ("p", rng.randrange(DEEP_PARAMS), False)
        link = ("and", (("v", rng.randrange(n)), ("p", rng.randrange(DEEP_PARAMS), True)))
        head = a if i == 0 else ("and", (("v", i - 1), a))
        formulas.append(("or", (head, link)))
    return [f"d{i}" for i in range(n)], formulas


def wide(disjuncts: int) -> tuple[list[str], list]:
    """Four equations, one of them a disjunction of ``disjuncts`` terms.

    The parser reads it as a left-deep chain of binary ``|`` nodes.  The
    system does not depend on the seed.
    """
    terms = []
    for t in range(disjuncts):
        var = ("v", t % 4)
        param = ("p", t % 3, t % 2 == 1)
        terms.append(("and", (var, param)))
    formulas = [
        ("or", tuple(terms)),
        ("and", (("v", 0), ("p", 0, False))),
        ("or", (("v", 1), ("p", 1, False))),
        ("and", (("v", 2), ("v", 3))),
    ]
    return ["w0", "w1", "w2", "w3"], formulas


def build(workload: str, seed: int, size: str, bes) -> list[Request]:
    """Every request of one pass over the workload; bes supplies ``gen``."""
    sizes = SIZES[size]
    rng = random.Random(f"{workload}-{seed}")
    reqs: list[Request] = []
    if workload in ("sparse-expanded", "dense-pruned"):
        family = "chain" if workload == "sparse-expanded" else "complete"
        for n in sizes[family]:
            system = bes.gen.gen_family(bes.gen.FamilySpec(family, n))
            reqs.append(_request(
                f"{family}-{n}", "compile", system.var_names, from_bes(system), (),
                rng, family=(family, n),
            ))
        make, key, params = (
            (banded, "banded", BANDED_PARAMS)
            if workload == "sparse-expanded"
            else (dense, "dense", DENSE_PARAMS)
        )
        for n in sizes[key]:
            names, formulas = make(n, rng)
            pnames = [f"p{k + 1}" for k in range(params)]
            reqs.append(_request(f"{key}-{n}", "compile", names, formulas, pnames, rng))
    elif workload == "deep-solve":
        depth = sizes["deep_depth"]
        pnames = [f"q{k + 1}" for k in range(DEEP_PARAMS)]
        for n in sizes["deep"]:
            names, formulas = deep(n, rng)
            reqs.append(_request(f"deep-{n}", "deep", names, formulas, pnames, rng, depth=depth))
        names, formulas = wide(sizes["wide"])
        reqs.append(_request(
            f"wide-{sizes['wide']}", "deep", names, formulas, ["r1", "r2", "r3"],
            random.Random("wide"), depth=depth,
        ))
    elif workload == "verify-random":
        # Drawn as `bes verify --random` draws them, but stratified: every
        # (n, P) class appears equally often, so the mix does not move with
        # the seed.
        classes = [(n, p) for n in range(1, VERIFY_MAX_N + 1) for p in range(VERIFY_MAX_PARAMS + 1)]
        for t in range(sizes["verify"]):
            n, num_params = classes[t % len(classes)]
            system = bes.gen.gen_random_monotone(
                n, num_params, VERIFY_MAX_DEPTH, rng.randrange(2**62)
            )
            reqs.append(_request(
                f"random-{t}", "verify", system.var_names, from_bes(system),
                system.param_names, rng,
                subsets=[
                    frozenset(i for i in range(n) if (m >> i) & 1) for m in range(1 << n)
                ],
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs
