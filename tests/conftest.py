"""Shared fixtures: the two worked protocol graphs, the running CNF
example, and seeded random-instance generators used by property tests."""

from __future__ import annotations

import random

import pytest

from mfskit import CnfFormula, LabeledDigraph, make_poulidor, make_tree

# depth-3 tree labeling, breadth-first: root, level 1, level 2, level 3
EXAMPLE_TREE_LABELS = ("0", "1", "0", "0", "1", "1", "1", "0", "0", "1", "0", "0", "1", "0", "0")

# 8-vertex ring labeling, clockwise from the start vertex
EXAMPLE_POULIDOR_LABELS = ("0", "1", "1", "0", "1", "1", "0", "1")


@pytest.fixture
def example_tree() -> LabeledDigraph:
    return make_tree(3, EXAMPLE_TREE_LABELS)


@pytest.fixture
def example_poulidor() -> LabeledDigraph:
    return make_poulidor(4, EXAMPLE_POULIDOR_LABELS)


@pytest.fixture
def example_formula() -> CnfFormula:
    # (x1 | -x2) & (x2 | -x3) & (-x1 | -x2 | -x3)
    return CnfFormula(3, ((1, -2), (2, -3), (-1, -2, -3)))


# `walks._gathers` forced to each side of the scorer's switch
SCORER_PATHS = {"gather": lambda walks, states: walks > 0,
                "search": lambda walks, states: False}


def random_binary_graph(
    rng: random.Random, max_vertices: int = 10, alphabet: tuple[str, ...] | None = None
) -> LabeledDigraph:
    """Random digraph with out-degrees <= 2, over the binary alphabet unless
    another `alphabet` is given."""
    n = rng.randint(1, max_vertices)
    if alphabet is None:
        labels = tuple(str(rng.getrandbits(1)) for _ in range(n))
    else:
        labels = tuple(rng.choice(alphabet) for _ in range(n))
    out = []
    for _ in range(n):
        deg = rng.randint(0, 2)
        out.append(tuple(rng.randrange(n) for _ in range(deg)))
    return LabeledDigraph(alphabet or ("0", "1"), labels, tuple(out))


def random_cnf(rng: random.Random, max_vars: int = 6, max_clauses: int = 6) -> CnfFormula:
    """Random valid formula: no tautologies, no empty clauses, n >= 2."""
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, n)
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.getrandbits(1) else -v for v in variables))
    return CnfFormula(n, tuple(clauses))
