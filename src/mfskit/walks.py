"""Walk counting, the most-frequent-sequence solver, and labeling helpers.

A walk of k vertices realizes the label sequence of its vertices; only
full-length walks count, so dead ends shorter than the query length
contribute nothing.  One step, `frontier_step`, carries walk counts per
end vertex one edge further, optionally split by the label reached.  Walk
and occurrence counts, the prefix search behind the walk-sequence
multiset and the MFS solver, the greedy adversary and the reduction's
maximal-walk check all advance through it instead of enumerating walks
one by one.  The label-blind levels are one pass, `_frontiers`: its last
level sums to `count_walks`, the prefix search takes its walk count and
reach sets from it, `MfsScorer` its walk count and switch (`_gathers`), and
the maximal-walk check stops one past full length.

The prefix search stops L symbols short of full length and reads the last
L symbols from packed integers: one per vertex, with one fixed-width slot
per suffix of L symbols, in lexicographic order of the suffixes.  A
stopping prefix then costs one big-integer sum and one unpack, and the
MFS solver takes the largest slot, its first index and its ties in C.

`MfsScorer` scores many labelings of one structure.  Where walks are few
against their frontier states, it splits the walks themselves: a labeling
gives one bit plane per position, the walks reading "1" there, and a
depth-first search splits the set of walks by each plane in turn, so a
class holds the walks of one label prefix and its size bounds every count
below it.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, compress, islice, product, repeat
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


def _frontiers(g: LabeledDigraph, start: int, k: int):
    """Yield {end vertex: walks of d + 1 vertices} for depths d = 0 .. k-1."""
    g.check_vertex(start)
    if k < 1:
        raise GraphError("walk length must be >= 1")
    counts = {start: 1}
    yield counts
    for _ in range(k - 1):
        yield (counts := frontier_step(g.out_edges, counts))


def count_walks(g: LabeledDigraph, start: int, k: int) -> int:
    """Number of walks of k vertices from `start`, ignoring labels."""
    return sum(deque(_frontiers(g, start, k), maxlen=1).pop().values())


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


def check_search_limit(walks: int, symbols: int, k: int, limits: Limits) -> None:
    """The one refusal of the prefix search: of the `walks` of k vertices
    and the symbols**k candidate sequences, the smaller (the walks on a
    tie) is checked against its limit, max_walks or max_sequences."""
    candidates = symbols ** k
    if walks <= candidates:
        if walks > limits.max_walks:
            raise ResourceLimitError(
                f"{walks} walks of {k} vertices exceed the limit {limits.max_walks}"
            )
    elif candidates > limits.max_sequences:
        raise ResourceLimitError(
            f"{symbols}^{k} candidate sequences exceed the limit "
            f"{limits.max_sequences}"
        )


# the most slots one packed count holds: the prefix search stops L symbols
# short of full length, for the largest L with |alphabet|**L <= _SLOT_CAP
_SLOT_CAP = 256


def _sequence_counts(g: LabeledDigraph, start: int, k: int, limits: Limits):
    """Yield (prefix, slots) for every realized prefix of length k - L, in
    ascending lexicographic order; slot s holds the occurrences of the
    prefix followed by the s-th suffix of `product(sorted(alphabet),
    repeat=L)`, so slot order is lexicographic order too.

    L is the largest tail with |alphabet|**L <= _SLOT_CAP (at most k - 1).
    Depth-first over label prefixes, carrying walk counts per end vertex:
    walks sharing a prefix and an end vertex are counted together, each
    frontier is split by the next vertex's label in one `frontier_step`,
    and prefixes realized by no walk are never visited.  The last L symbols
    come from one packed integer per vertex, built backwards beforehand:
    slot s of V(v) counts the walks of L more vertices from v that spell
    suffix s, first suffix symbol most significant.  A stopping prefix then
    costs one big-integer sum, sum of c_v * V(v), and one unpack.

    The last L + 1 levels of `_frontiers` give the walk count (refused by
    `check_search_limit`; it sets the slot width) and the vertices to pack.
    """
    labels, out_edges = g.labels, g.out_edges
    symbols = sorted(g.alphabet)
    size = len(symbols)
    tail = 0
    while tail < k - 1 and size ** (tail + 1) <= _SLOT_CAP:
        tail += 1
    levels = deque(_frontiers(g, start, k), maxlen=tail + 1)
    walks = sum(levels.pop().values())
    check_search_limit(walks, size, k, limits)
    width = 1  # bytes per slot
    while walks >> 8 * width:
        width *= 2
    slots = size ** tail
    if width <= 8:
        unpack = Struct(f"<{slots}{'BHIQ'[width.bit_length() - 1]}").unpack
    else:
        def unpack(raw):
            return [int.from_bytes(raw[i:i + width], "little")
                    for i in range(0, len(raw), width)]

    # packed[v] holds V(v) for a tail of r symbols, already shifted to the
    # block of slots of its own label in the level above (the top level is
    # not shifted); level 0, the empty tail, is one list over all vertices
    bits = 8 * width
    unit = {sym: 1 << bits * i if tail else 1 for i, sym in enumerate(symbols)}
    packed = list(map(unit.__getitem__, labels))
    for r in range(1, tail + 1):
        block = bits * size ** r if r < tail else 0
        shift = {sym: block * i for i, sym in enumerate(symbols)}
        get = packed.__getitem__
        packed = {v: sum(map(get, out_edges[v])) << shift[labels[v]]
                  for v in levels.pop()}  # depth k - 1 - r
    stop = k - tail
    stack = [((labels[start],), {start: 1})]
    while stack:
        prefix, counts = stack.pop()
        if len(prefix) == stop:
            total = sum([c * packed[v] for v, c in counts.items()])
            yield prefix, unpack(total.to_bytes(slots * width, "little"))
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
    by no walk are absent.  Refuses as `most_frequent_sequence` does.
    """
    symbols = sorted(g.alphabet)
    found = Counter()
    for prefix, slots in _sequence_counts(g, start, k, limits):
        suffixes = product(symbols, repeat=k - len(prefix))
        for suffix, occ in zip(suffixes, slots):
            if occ:
                found[prefix + suffix] = occ
    return found


def walks_from(g: LabeledDigraph, start: int, k: int) -> list[tuple[int, ...]]:
    """All walks of k vertices from `start` as vertex tuples (no limit check)."""
    walks = [(start,)]
    for _ in range(k - 1):
        walks = [w + (t,) for w in walks for t in g.out_edges[w[-1]]]
    return walks


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
    limits: Limits = DEFAULT_LIMITS,
) -> MfsResult:
    """Most frequent length-k label sequence over walks from `start`.

    Ties break to the lexicographically smallest maximizer and the number
    of maximizers is reported.  The search runs over realized label
    prefixes, after the refusal of `check_search_limit`.
    """
    best, best_count, tie_count = None, 0, 0
    # prefixes and slots arrive in ascending order: the first maximizer is
    # the smallest
    for prefix, slots in _sequence_counts(g, start, k, limits):
        top = max(slots)
        if top > best_count:
            best, best_count = (prefix, slots.index(top)), top
            tie_count = slots.count(top)
        elif top and top == best_count:
            tie_count += slots.count(top)
    if best is None:
        # no full-length walk exists: every sequence has zero occurrences
        return MfsResult((min(g.alphabet),) * k, 0, len(g.alphabet) ** k)
    prefix, slot = best
    suffixes = product(sorted(g.alphabet), repeat=k - len(prefix))
    return MfsResult(prefix + next(islice(suffixes, slot, None)), best_count, tie_count)


# -- one scorer per structure ---------------------------------------------------

# the most mask bits one scorer keeps over all its positions (1 MiB); the
# positions past it read their walk column per labeling instead
_MASK_BITS = 1 << 23
# so does a position of more than _MASK_WIDTH vertices, whose masks cost
# more to sum than its column costs to gather
_MASK_WIDTH = 256

# labels "0" and "1" as the bytes 0 and 1 that select masks
_BITS = bytes.maketrans(b"01", b"\0\1")


def _gathers(walks: int, states: int) -> bool:
    """The scorer's switch: split walk classes when 0 < walks <= 64 *
    sum_d |frontier_d|, at most 2**16.  Trees merge no walks and always
    split up to the cap; Poulidor rings merge them, and from n = 13 the
    prefix search is faster."""
    return 0 < walks <= min(1 << 16, 64 * states)


def _walk_planes(out_edges, levels: list[dict], walks: int):
    """Labels -> the bit planes of one labeling: for each position d = 1 ..
    k-1, the walks of k vertices whose vertex d reads "1", walk j at bit j
    in depth-first out-edge order; bits from `walks` up are not walks.
    `levels` are the k label-blind levels of `_frontiers`, `walks` the walk
    count, and labels a string of "0" and "1", vertex v at index v.

    Walks sharing a prefix are adjacent, so the walks at t in position d
    form runs of e_d(t) walks, e_d(t) counting the walks of k - 1 - d more
    edges from t; with S the run starts, their mask is (S << e_d(t)) - S.
    The first positions keep these masks while they fit in _MASK_BITS and
    none has more than _MASK_WIDTH vertices, all of a vertex's positions in
    one integer, one block of `walks` bits per position: one sum of the
    integers of the vertices that read "1" then holds those planes side by
    side.  Each remaining position gathers its walk column from the labels,
    read as one binary number.
    """
    # ends[d][v] = e_d(v) for the vertices of level d
    ends = [dict.fromkeys(levels[-1], 1)]
    for level in reversed(levels[:-1]):
        get = ends[-1].__getitem__
        ends.append({v: sum(map(get, out_edges[v])) for v in level})
    ends.reverse()
    # position d of the first `kept` is block kept - d, so each position
    # kept adds a block to the integer of every vertex seen so far
    kept, seen, cost = 0, set(), 0
    for size in ends[1:]:
        here = [v for v, e in size.items() if e]
        seen.update(here)
        cost += len(seen) * walks
        if cost > _MASK_BITS or len(here) > _MASK_WIDTH:
            break
        kept += 1
    masks, columns = {}, []
    (start,) = levels[0]
    starts, prefixes = {start: 1}, [start]
    for d, size in enumerate(ends[1:], 1):
        if d <= kept:
            runs = {}
            for v, first in starts.items():
                offset = 0
                for t in out_edges[v]:
                    if size[t]:
                        runs[t] = runs.get(t, 0) + (first << offset)
                        offset += size[t]
            starts, block = runs, (kept - d) * walks
            for t, first in runs.items():
                masks[t] = masks.get(t, 0) + ((first << size[t]) - first << block)
        if kept < len(ends) - 1:  # some position reads its column
            prefixes = [t for v in prefixes for t in out_edges[v] if size[t]]
        if d > kept:
            # reversed, so that walk 0 is the last, least significant digit
            tail = prefixes[::-1]
            columns.append(itemgetter(*chain.from_iterable(
                map(repeat, tail, map(size.__getitem__, tail)))))
    # the shortest integers first keep the running sum short; two zero masks
    # keep the gather a tuple
    order = sorted(masks, key=lambda v: masks[v].bit_length())
    gather = itemgetter(start, start, *order)
    values = (0, 0, *map(masks.__getitem__, order))
    blocks = range((kept - 1) * walks, -1, -walks)

    def planes(labels: str) -> list[int]:
        # the planes of earlier positions stay above bit `walks`; a class
        # of walks masks them off
        total = sum(compress(values, gather(labels.encode().translate(_BITS))))
        return list(map(total.__rshift__, blocks))

    def gathered(labels: str) -> list[int]:
        # a gather of one walk is one bare character; joining it still works
        return planes(labels) + [int("".join(column(labels)), 2) for column in columns]

    return gathered if columns else planes


class MfsScorer:
    """The early-reply count of each labeling of one structure: over the
    walks of k vertices from `start`, max_t occ(t) and the smallest t
    reaching it.  One `_frontiers` pass gives the walk count and the switch
    (`_gathers`).  Below it a labeling costs its bit planes
    (`_walk_planes`) and a depth-first split of the walks into classes of
    one label prefix each, pruned by the best count so far; above it, one
    `most_frequent_sequence`.  Both answer alike, after one refusal,
    `check_search_limit`."""

    def __init__(self, structure: LabeledDigraph, start: int, k: int):
        self.out_edges, self.start, self.k = structure.out_edges, start, k
        levels = list(_frontiers(structure, start, k))
        self.walks = sum(levels[-1].values())
        self.planes = None
        if _gathers(self.walks, sum(map(len, levels))):
            self.planes = _walk_planes(structure.out_edges, levels, self.walks)
        self.alphabet = None  # the last alphabet found to fit
        self.to_bits = self.from_bits = None  # its two symbols and "0", "1"

    def fits(self, labeled: LabeledDigraph) -> bool:
        """A labeling of the structure: the same out-edges, and symbols of
        one ASCII character each, as the planes read them."""
        alphabet = labeled.alphabet
        if alphabet is not self.alphabet:
            if not all(isinstance(sym, str) and len(sym) == 1 and sym.isascii()
                       for sym in alphabet):
                return False
            self.alphabet = alphabet
            symbols = "".join(sorted(alphabet))
            self.to_bits = self.from_bits = None
            if len(symbols) <= 2:
                self.to_bits = str.maketrans(symbols, "01"[:len(symbols)])
                self.from_bits = str.maketrans("01"[:len(symbols)], symbols)
        return labeled.out_edges == self.out_edges

    def counter(self, limits: Limits):
        """Labeling bits -> max_t occ(t), bit v being the label of vertex v,
        after refusing a start with no walk and the search for two symbols."""
        if not self.walks:
            raise GraphError(
                f"no walk of {self.k} vertices starts at vertex {self.start}")
        check_search_limit(self.walks, 2, self.k, limits)
        out_edges, start, k = self.out_edges, self.start, self.k
        top = 1 << len(out_edges)
        planes_of, walks = self.planes, self.walks
        every = (1 << walks) - 1
        depth = k - 1

        def count(bits: int) -> int:
            # reversed binary with a sentinel top bit: labels[v] is bit v
            labels = format(bits | top, "b")[:0:-1]
            if planes_of is None:
                g = LabeledDigraph._unchecked(("0", "1"), tuple(labels), out_edges,
                                              None, None)
                return most_frequent_sequence(g, start, k, limits=limits).count
            planes = planes_of(labels)
            # the heavier class first, so the first leaf is the greedy one;
            # a class no larger than the best count so far is cut
            most, stack = (0, [(walks, every, 0)]) if depth else (walks, [])
            pop, push = stack.pop, stack.append
            while stack:
                size, part, d = pop()
                if size <= most:
                    continue
                one = part & planes[d]
                ones = one.bit_count()
                rest = size - ones
                d += 1
                if d == depth:  # two leaves
                    most = max(most, ones, rest)
                elif ones > rest:
                    if rest > most:
                        push((rest, part ^ one, d))
                    push((ones, one, d))
                else:
                    if ones > most:
                        push((ones, one, d))
                    push((rest, part ^ one, d))
            return most

        return count

    def best(self, labeled: LabeledDigraph, limits: Limits) -> tuple[str, ...]:
        """The smallest most frequent sequence of `labeled`: from its planes
        when it fits with at most two symbols, else from the prefix search
        on `labeled` itself, as for a labeler hook that changes the
        out-edges or the symbols."""
        if self.planes is None or not self.fits(labeled) or self.to_bits is None:
            return most_frequent_sequence(labeled, self.start, self.k,
                                          limits=limits).sequence
        check_search_limit(self.walks, len(labeled.alphabet), self.k, limits)
        labels = labeled.labels
        planes = self.planes("".join(labels).translate(self.to_bits))
        # descending to the heavier class bounds the largest count below
        walks = most = self.walks
        part = every = (1 << walks) - 1
        for plane in planes:
            one = part & plane
            ones = one.bit_count()
            if 2 * ones >= most:
                part, most = one, ones
            else:
                part, most = part ^ one, most - ones
        # "0" before "1", and only a larger count replaces the best: the
        # class kept is the smallest maximizer; path starts with a sentinel 1
        most, found, depth = most - 1, 1, len(planes)
        stack = [(walks, every, 0, 1)] if depth else []
        pop, push = stack.pop, stack.append
        while stack:
            size, part, d, path = pop()
            if size <= most:
                continue
            one = part & planes[d]
            ones = one.bit_count()
            rest = size - ones
            path <<= 1
            d += 1
            if d == depth:  # two leaves
                if rest > most:
                    most, found = rest, path
                if ones > most:
                    most, found = ones, path | 1
                continue
            if ones > most:
                push((ones, one, d, path | 1))
            if rest > most:
                push((rest, part ^ one, d, path))
        return (labels[self.start], *format(found, "b")[1:].translate(self.from_bits))


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
