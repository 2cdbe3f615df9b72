"""Instance generators: benchmark families and seeded random systems.

The named families reproduce the shapes used for size scaling: ``chain``
couples neighbouring pairs only, ``complete`` makes every equation depend
on every variable, ``sparse3`` is the three-variable instance with supports
{x,y}, {x}, {y,z}, and ``random`` draws supports by density.  Generation is
a pure function of the spec, so equal seeds give structurally identical
systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from numbers import Real

from .core import And, Const, Formula, Or, Param, System, Var, support

FAMILIES = ("chain", "complete", "sparse3", "random")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    seed: int = 0
    density: float = 0.5

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if type(self.n) is not int:
            raise ValueError(f"arity {self.n!r} is not an int")
        if type(self.seed) is not int:  # random.Random(None) would seed from the OS
            raise ValueError(f"seed {self.seed!r} is not an int")
        if isinstance(self.density, bool) or not isinstance(self.density, Real):
            raise ValueError(f"density {self.density!r} is not a real number")
        if self.family == "chain":
            if self.n < 2 or self.n % 2:
                raise ValueError("chain needs an even arity of at least 2")
        elif self.family == "sparse3":
            if self.n != 3:
                raise ValueError("sparse3 is a fixed 3-variable family")
        elif self.n < 1:
            raise ValueError("arity must be at least 1")
        if self.family == "random" and not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")


def _or_all(indices) -> Formula:
    f: Formula | None = None
    for i in indices:
        f = Var(i) if f is None else Or(f, Var(i))
    assert f is not None
    return f


def _random_tree(rng: random.Random, leaves: list[Formula]) -> Formula:
    """Random binary op tree with each given leaf appearing exactly once."""
    nodes = leaves[:]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        right = nodes.pop()
        left = nodes.pop()
        op = And if rng.random() < 0.5 else Or
        nodes.append(op(left, right))
    return nodes[0]


def gen_family(spec: FamilySpec) -> System:
    """Build the named family instance."""
    n = spec.n
    if spec.family == "chain":
        # Pairwise coupling: equation i (0-based) depends on {i, i+1} when i
        # is even and on {i-1, i} when i is odd, joined by disjunction.
        formulas = tuple(
            Or(Var(i), Var(i + 1)) if i % 2 == 0 else Or(Var(i - 1), Var(i))
            for i in range(n)
        )
        names = tuple(f"f{i + 1}" for i in range(n))
        return System(formulas, names)
    if spec.family == "complete":
        formulas = tuple(_or_all(range(n)) for _ in range(n))
        names = tuple(f"x{i + 1}" for i in range(n))
        return System(formulas, names)
    if spec.family == "sparse3":
        return System(
            (Or(Var(0), Var(1)), Var(0), Or(Var(1), Var(2))),
            ("x", "y", "z"),
        )
    rng = random.Random(spec.seed)
    formulas = []
    for _ in range(n):
        members = [i for i in range(n) if rng.random() < spec.density]
        if not members:
            formulas.append(Const(rng.randrange(2)))
        else:
            formulas.append(_random_tree(rng, [Var(i) for i in members]))
    names = tuple(f"x{i + 1}" for i in range(n))
    return System(tuple(formulas), names)


def _random_formula(
    rng: random.Random, n: int, num_params: int, depth: int
) -> Formula:
    if depth > 1 and rng.random() < 0.7:
        op = And if rng.random() < 0.5 else Or
        return op(
            _random_formula(rng, n, num_params, depth - 1),
            _random_formula(rng, n, num_params, depth - 1),
        )
    roll = rng.random()
    if roll < 0.6 or (num_params == 0 and roll < 0.8):
        return Var(rng.randrange(n))
    if roll < 0.8:
        return Param(rng.randrange(num_params), negated=rng.random() < 0.5)
    return Const(rng.randrange(2))


def gen_random_monotone(n: int, num_params: int, max_depth: int, seed: int) -> System:
    """Seed-deterministic random system with formula depth at most max_depth.

    A drawn formula whose support is empty is redrawn a few times so that
    most equations actually consult the state; after eight attempts it is
    kept as-is to avoid skewing the distribution.
    """
    for name, value in (
        ("n", n), ("num_params", num_params), ("max_depth", max_depth), ("seed", seed)
    ):
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an int")
    if n < 1 or num_params < 0 or max_depth < 1:
        raise ValueError("need n >= 1, num_params >= 0, max_depth >= 1")
    rng = random.Random(seed)
    formulas = []
    for _ in range(n):
        f = _random_formula(rng, n, num_params, max_depth)
        for _ in range(8):
            if support(f):
                break
            f = _random_formula(rng, n, num_params, max_depth)
        formulas.append(f)
    var_names = tuple(f"x{i + 1}" for i in range(n))
    param_names = tuple(f"p{k + 1}" for k in range(num_params))
    return System(tuple(formulas), var_names, param_names)
