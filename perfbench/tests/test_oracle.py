"""The oracle against brute-force enumeration on every small system.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Systems with n <= 3 range over every monotone function of the state (each
one an antichain of variable sets, read as a disjunction of conjunctions);
systems with n <= 2 also range over every function of one parameter,
written ``?p & g1 | !?p & g0``.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402


def antichains(n: int) -> list[list[frozenset[int]]]:
    subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    out = []
    for pick in range(1 << len(subsets)):
        chosen = [s for k, s in enumerate(subsets) if pick >> k & 1]
        if all(not a < b for a in chosen for b in chosen):
            out.append(chosen)
    return out


def dnf(chain) -> tuple:
    if not chain:
        return ("c", 0)
    terms = [("and", tuple(("v", i) for i in sorted(s))) if s else ("c", 1) for s in chain]
    return ("or", tuple(terms))


def truth(chain, x) -> int:
    return int(any(all(x[i] for i in s) for s in chain))


def brute(step, n):
    """(least fixpoint, depth, iterates) by enumeration of all valuations."""
    vals = list(itertools.product((0, 1), repeat=n))
    fixed = [x for x in vals if step(x) == x]
    least = tuple(min(x[i] for x in fixed) for i in range(n))
    assert least in fixed
    iterates = [(0,) * n]
    while len(iterates) < n + 3:
        iterates.append(step(iterates[-1]))
    depth = next(k for k in range(n + 2) if iterates[k] == iterates[k + 1])
    assert iterates[depth] == least
    return least, depth, iterates


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iterate_matches_enumeration_without_parameters(n):
    funcs = antichains(n)
    assert len(funcs) == {1: 3, 2: 6, 3: 20}[n]  # Dedekind numbers
    for system in itertools.product(funcs, repeat=n):
        eqs = oracle.Equations([dnf(c) for c in system])
        least, depth, iterates = brute(lambda x: tuple(truth(c, x) for c in system), n)
        assert eqs.iterate((), 1) == (least, depth)
        for d in range(n + 2):
            assert eqs.iterate((), 1, d)[0] == iterates[d]


@pytest.mark.parametrize("n", [1, 2])
def test_iterate_matches_enumeration_with_one_parameter(n):
    funcs = antichains(n)
    cases = list(itertools.product(funcs, funcs))  # (g0, g1) per equation
    masks, ones = oracle.param_masks(1)
    assert (masks, ones) == ((0b10,), 0b11)
    for system in itertools.product(cases, repeat=n):
        formulas = [
            ("or", (("and", (("p", 0, False), dnf(g1))), ("and", (("p", 0, True), dnf(g0)))))
            for g0, g1 in system
        ]
        eqs = oracle.Equations(formulas)
        packed, packed_depth = eqs.iterate(masks, ones)
        depths = []
        for p in (0, 1):
            least, depth, iterates = brute(
                lambda x: tuple(truth(g1 if p else g0, x) for g0, g1 in system), n
            )
            assert tuple(v >> p & 1 for v in packed) == least
            depths.append(depth)
            for d in range(n + 2):
                assert tuple(v >> p & 1 for v in eqs.iterate(masks, ones, d)[0]) == iterates[d]
        assert packed_depth == max(depths)


def test_formula_walks_do_not_recurse():
    wide = ("or", tuple(("and", (("v", 0), ("p", 0, False))) for _ in range(50_000)))
    deep = ("v", 0)
    for _ in range(50_000):
        deep = ("and", (deep, ("c", 1)))
    for f in (wide, deep):
        eqs = oracle.Equations([f])
        assert eqs.iterate((0b10,), 0b11) == ((0,), 0)


def brute_sat(num_vars, clauses, units) -> bool:
    for bits in range(1 << num_vars):
        val = [None] + [bits >> (v - 1) & 1 for v in range(1, num_vars + 1)]
        sat = lambda lit: val[abs(lit)] == (lit > 0)  # noqa: E731
        if all(sat(u) for u in units) and all(any(sat(l) for l in c) for c in clauses):
            return True
    return False


def dimacs(num_vars, clauses, params) -> str:
    lines = [f"c map {v} param {name}" for name, v in params.items()]
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def test_unit_propagation_is_sound_on_random_cnfs():
    rng = random.Random(7)
    decided = 0
    for _ in range(400):
        num_vars = rng.randint(3, 9)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 14))
        ]
        params = {f"p{k}": k + 1 for k in range(rng.randint(1, 3))}
        assignment = rng.randrange(1 << len(params))
        parsed = oracle.parse_dimacs(dimacs(num_vars, clauses, params))
        got = oracle.decide_dimacs(parsed, tuple(params), assignment)
        units = [v if assignment >> k & 1 else -v for k, v in enumerate(params.values())]
        if got != "undecided":
            decided += 1
            assert (got == "sat") == brute_sat(num_vars, clauses, units)
    assert decided > 100


def test_unit_propagation_decides_circuits():
    """A Tseitin encoding with every input fixed is decided exactly."""
    rng = random.Random(11)
    for _ in range(300):
        num_inputs = rng.randint(1, 4)
        clauses, wires = [], list(range(1, num_inputs + 1))
        for _ in range(rng.randint(1, 6)):
            g = len(wires) + 1
            a, b = rng.choice(wires), rng.choice(wires)
            if rng.random() < 0.5:  # g = a & b
                clauses += [(-g, a), (-g, b), (g, -a, -b)]
            else:  # g = a | b
                clauses += [(-a, g), (-b, g), (-g, a, b)]
            wires.append(g)
        out = wires[-1]
        want = rng.choice((out, -out))
        clauses.append((want,))
        num_vars = len(wires)
        params = {f"i{k}": k + 1 for k in range(num_inputs)}
        assignment = rng.randrange(1 << num_inputs)
        parsed = oracle.parse_dimacs(dimacs(num_vars, clauses, params))
        got = oracle.decide_dimacs(parsed, tuple(params), assignment)
        units = [v if assignment >> k & 1 else -v for k, v in enumerate(params.values())]
        assert got == ("sat" if brute_sat(num_vars, clauses, units) else "unsat")


def test_parse_dimacs_rejects_malformed_text():
    with pytest.raises(ValueError):
        oracle.parse_dimacs("c no problem line\n1 0\n")
    with pytest.raises(ValueError):
        oracle.parse_dimacs("p cnf 2 2\n1 -2 0\n")
    with pytest.raises(ValueError):
        oracle.parse_dimacs("p cnf 2 1\n1 -2\n")
