"""Constructors for the canonical protocol graphs.

All generators number vertices breadth-first from the start vertex so that
explicit label vectors in tests read level by level.  The vertex labeling
is either an explicit list, drawn from a seeded generator, or all "0" when
labels do not matter (structure-only analyses relabel anyway).
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import GraphError
from .graphs import LabeledDigraph

BINARY = ("0", "1")


def _resolve_labels(count: int, labeling, seed) -> tuple[str, ...]:
    if labeling is not None:
        labels = tuple(labeling)
        if len(labels) != count:
            raise GraphError(
                f"explicit labeling has {len(labels)} entries for {count} vertices"
            )
        return labels
    if seed is not None:
        rng = random.Random(seed)
        return tuple(str(rng.getrandbits(1)) for _ in range(count))
    return ("0",) * count


def make_tree(
    n: int,
    labeling: Sequence[str] | str | None = None,
    *,
    seed: int | None = None,
) -> LabeledDigraph:
    """Full binary tree of depth n: 2**(n+1) - 1 vertices, root = 0.

    Vertex i has children 2i+1 and 2i+2; the first child edge is labeled
    "0", the second "1".  This is the generalized tree with m = 1.
    """
    if n < 1:
        raise GraphError("tree depth must be >= 1")
    return make_generalized_tree(1, n, labeling, seed=seed)


def make_poulidor(
    n: int,
    labeling: Sequence[str] | str | None = None,
    *,
    seed: int | None = None,
) -> LabeledDigraph:
    """Poulidor ring of 2n vertices: i -> (i+1) mod 2n and (i+2) mod 2n.

    The start vertex is 0.  The step-1 edge is labeled "0", the step-2
    edge "1"; which edge carries which label is a convention fixed only
    for reproducible transcripts, the analysis is label-symmetric.
    """
    if n < 2:
        raise GraphError("poulidor needs at least 2 rounds")
    count = 2 * n
    out = tuple(((v + 1) % count, (v + 2) % count) for v in range(count))
    elabs = tuple(BINARY for _ in range(count))
    names = ("start",) + (None,) * (count - 1)
    return LabeledDigraph(
        BINARY, _resolve_labels(count, labeling, seed), out, elabs, names
    )


def make_generalized_tree(
    m: int,
    n: int,
    labeling: Sequence[str] | str | None = None,
    *,
    seed: int | None = None,
) -> LabeledDigraph:
    """Root with 2m children, each child rooting a full binary tree of
    depth n-1.  m = 0 yields the single root; m = 1 is the full binary
    tree of depth n."""
    if m < 0 or n < 1:
        raise GraphError("need m >= 0 and n >= 1")
    count = 1 + 2 * m * ((1 << n) - 1)
    internal = count - (m << n)  # the root and every vertex above depth n
    # the root points to 1..2m; an internal v >= 1 to 2v+2m-1 and 2v+2m
    out = [tuple(range(1, 2 * m + 1))]
    out += [(2 * v + 2 * m - 1, 2 * v + 2 * m) if v < internal else ()
            for v in range(1, count)]
    # edge labels are only well defined when every out-degree is <= 2
    elabs = None
    if m == 1:
        elabs = tuple(BINARY if row else () for row in out)
    names = ("root",) + (None,) * (count - 1)
    return LabeledDigraph(
        BINARY, _resolve_labels(count, labeling, seed), out, elabs, names
    )
