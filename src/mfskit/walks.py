"""Walk counting, the most-frequent-sequence solver, and labeling helpers.

A walk of k vertices realizes the label sequence of its vertices; only
full-length walks count, so dead ends shorter than the query length
contribute nothing.  One step, `frontier_step`, carries walk counts per
end vertex one edge further, optionally split by the label reached.  Walk
and occurrence counts, the prefix search behind the walk-sequence
multiset and the MFS solver, the greedy adversary and the reduction's
maximal-walk check all advance through it instead of enumerating walks
one by one.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from struct import Struct
from typing import Sequence

from .errors import (
    DEFAULT_LIMITS,
    GraphError,
    LabelingConflictError,
    Limits,
    ResourceLimitError,
)
from .graphs import LabeledDigraph


def as_sequence(g: LabeledDigraph, t: str | Sequence[str]) -> tuple[str, ...]:
    """Normalize a label sequence; a plain string is read symbol by symbol."""
    seq = tuple(t)
    if not seq:
        raise GraphError("label sequences must have length >= 1")
    alpha = set(g.alphabet)
    for sym in seq:
        if sym not in alpha:
            raise GraphError(f"symbol {sym!r} not in alphabet {sorted(alpha)}")
    return seq


def frontier_step(out_edges, counts: dict, labels=None) -> dict:
    """Walk counts per end vertex one edge further; with `labels`, split
    by the label reached as {label: {vertex: count}}."""
    if labels is None:
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            for w in out_edges[v]:
                nxt[w] = nxt.get(w, 0) + c
        return nxt
    split: dict[str, dict[int, int]] = {}
    for v, c in counts.items():
        for w in out_edges[v]:
            part = split.get(labels[w])
            if part is None:
                split[labels[w]] = {w: c}
            else:
                part[w] = part.get(w, 0) + c
    return split


def count_walks(g: LabeledDigraph, start: int, k: int) -> int:
    """Number of walks of k vertices from `start`, ignoring labels."""
    g.check_vertex(start)
    if k < 1:
        raise GraphError("walk length must be >= 1")
    counts = {start: 1}
    for _ in range(k - 1):
        counts = frontier_step(g.out_edges, counts)
    return sum(counts.values())


def occ_count(g: LabeledDigraph, start: int, t: str | Sequence[str]) -> int:
    """Number of walks from `start` whose label sequence equals `t`.

    Dynamic programming over (position, vertex); cost O(len(t) * edges).
    """
    seq = as_sequence(g, t)
    g.check_vertex(start)
    if g.labels[start] != seq[0]:
        return 0
    counts = {start: 1}
    for sym in seq[1:]:
        counts = frontier_step(g.out_edges, counts, g.labels).get(sym)
        if counts is None:
            return 0
    return sum(counts.values())


def check_walk_limit(total: int, k: int, limits: Limits) -> None:
    if total > limits.max_walks:
        raise ResourceLimitError(
            f"{total} walks of {k} vertices exceed the limit {limits.max_walks}"
        )


def check_search_limit(
    mode: str, walks: int | None, symbols: int, k: int, limits: Limits
) -> None:
    """The refusal `most_frequent_sequence` makes before its search:
    "walk" checks the `walks` of k vertices against max_walks, "seq" checks
    the symbols**k candidate sequences against max_sequences, and "auto"
    checks whichever of the two numbers is smaller (the walks on a tie)."""
    candidates = symbols ** k
    if mode == "auto":
        mode = "walk" if walks <= candidates else "seq"
    if mode == "walk":
        check_walk_limit(walks, k, limits)
    elif candidates > limits.max_sequences:
        raise ResourceLimitError(
            f"{symbols}^{k} candidate sequences exceed the limit "
            f"{limits.max_sequences}"
        )


def _sequence_counts(g: LabeledDigraph, start: int, k: int):
    """Yield (sequence, occurrences) for every length-k sequence some walk
    realizes, in ascending lexicographic order.

    Depth-first over label prefixes, carrying walk counts per end vertex:
    walks sharing a prefix and an end vertex are counted together, each
    frontier is split by the next vertex's label in one `frontier_step`,
    and prefixes realized by no walk are never visited.
    """
    labels, out_edges = g.labels, g.out_edges
    if k == 1:
        yield (labels[start],), 1
        return
    stack = [((labels[start],), {start: 1})]
    while stack:
        prefix, counts = stack.pop()
        if len(prefix) == k - 1:
            # the last step needs only the total per symbol
            occ: dict[str, int] = {}
            for v, c in counts.items():
                for w in out_edges[v]:
                    occ[labels[w]] = occ.get(labels[w], 0) + c
            for sym in sorted(occ):
                yield prefix + (sym,), occ[sym]
            continue
        split = frontier_step(out_edges, counts, labels)
        for sym in sorted(split, reverse=True):
            stack.append((prefix + (sym,), split[sym]))


def enumerate_walk_sequences(
    g: LabeledDigraph,
    start: int,
    k: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Counter:
    """Multiset of label sequences realized by walks of k vertices.

    The multiplicity of t equals occ_count(g, start, t); sequences realized
    by no walk are absent.  Refuses when the exact walk count exceeds the
    configured limit.
    """
    check_walk_limit(count_walks(g, start, k), k, limits)
    return Counter(dict(_sequence_counts(g, start, k)))


def walks_from(g: LabeledDigraph, start: int, k: int) -> list[tuple[int, ...]]:
    """All walks of k vertices from `start` as vertex tuples (no limit check)."""
    walks = [(start,)]
    for _ in range(k - 1):
        walks = [w + (t,) for w in walks for t in g.out_edges[w[-1]]]
    return walks


def walk_keys(walks: list[tuple[int, ...]]):
    """Key function for one fixed, non-empty list of walks from one start:
    labels -> one key per walk, in walk order.

    `labels` is a string or a tuple of one-character ASCII labels, vertex v
    at index v.  A walk's key is the bytes of the labels of its vertices
    after the first: every walk shares the start's label, so the keys
    compare and count as the full sequences do.  Set-up gathers those
    vertex ids into one `itemgetter` and builds a `Struct` that cuts the
    joined labels into one key per walk, so keying a labeling is one
    gather, one join and one unpack, with no Python loop over walks.
    """
    gather = itemgetter(*[v for w in walks for v in w[1:]])
    split = Struct(f"{len(walks[0]) - 1}s" * len(walks)).unpack
    # a single gathered label comes back bare; joining it still works
    return lambda labels: split("".join(gather(labels)).encode())


@dataclass(frozen=True)
class MfsResult:
    sequence: tuple[str, ...]
    count: int
    tie_count: int

    @property
    def sequence_str(self) -> str:
        return "".join(self.sequence)


def most_frequent_sequence(
    g: LabeledDigraph,
    start: int,
    k: int,
    *,
    mode: str = "auto",
    limits: Limits = DEFAULT_LIMITS,
) -> MfsResult:
    """Most frequent length-k label sequence over walks from `start`.

    Ties break to the lexicographically smallest maximizer and the number
    of maximizers is reported.  There is one search, over realized label
    prefixes; `mode` only picks the limit `check_search_limit` checks
    before it.
    """
    g.check_vertex(start)
    if k < 1:
        raise GraphError("sequence length must be >= 1")
    if mode not in ("auto", "walk", "seq"):
        raise ValueError(f"unknown mode {mode!r}")
    walks = count_walks(g, start, k) if mode != "seq" else None
    check_search_limit(mode, walks, len(g.alphabet), k, limits)
    best_seq, best_count, tie_count = None, 0, 0
    # sequences arrive in ascending order: the first maximizer is the smallest
    for seq, occ in _sequence_counts(g, start, k):
        if occ > best_count:
            best_seq, best_count, tie_count = seq, occ, 1
        elif occ == best_count:
            tie_count += 1
    if best_seq is None:
        # no full-length walk exists: every sequence has zero occurrences
        return MfsResult((min(g.alphabet),) * k, 0, len(g.alphabet) ** k)
    return MfsResult(best_seq, best_count, tie_count)


# -- complementary sibling labeling -------------------------------------------


class _ParityUnion:
    """Union-find where each member carries a parity relative to its root."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n

    def find(self, v) -> tuple[int, int]:
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        p = 0
        for u in reversed(path):  # closest to the root first
            p ^= self.parity[u]
            self.parent[u] = v
            self.parity[u] = p
        return v, p

    def union(self, a, b, rel) -> bool:
        """Impose parity(a) xor parity(b) == rel; False on contradiction."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == rel
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ rel
        return True


def complementary_sibling_labeling(g: LabeledDigraph, seed: int) -> LabeledDigraph:
    """Relabel so that the two children of any vertex carry opposite bits.

    Each sibling pair keeps one free bit, drawn from the seeded generator
    along with every unconstrained label (vertices in ascending order).  On
    a tree this forces every walk from a fixed vertex to realize a distinct
    sequence.  Raises LabelingConflictError when overlapping sibling pairs
    impose contradictory constraints (possible in non-tree graphs).
    """
    if not {"0", "1"} <= set(g.alphabet):
        raise GraphError("complementary labeling needs a binary alphabet")
    uf = _ParityUnion(g.vertex_count)
    for v in range(g.vertex_count):
        row = g.out_edges[v]
        if len(row) > 2:
            raise GraphError(f"vertex {v} has out-degree {len(row)} > 2")
        if len(row) == 2:
            a, b = row
            if a == b or not uf.union(a, b, 1):
                raise LabelingConflictError(
                    f"children {a} and {b} of vertex {v} cannot be complementary"
                )
    rng = random.Random(seed)
    root_bit: dict[int, int] = {}
    labels = []
    for v in range(g.vertex_count):
        r, p = uf.find(v)
        if r not in root_bit:
            root_bit[r] = rng.getrandbits(1)
        labels.append(str(root_bit[r] ^ p))
    return g.with_labels(labels)
