"""Reduction from SAT to the binary most-frequent-sequence problem.

The constructed graph has three parts, glued per clause:

* a leaf tree: a binary tree from a root whose m leaves c_1..c_m (one per
  clause) all sit at depth ceil(log2 m);
* one lane per clause: vertex pairs u_i^j / v_i^j for variable positions
  j = 1..n-1, where u carries label 1 ("variable j true") and v label 0;
* a shared backbone u_0^j / v_0^j for j = 2..n, completely chained level
  to level.

Lane wiring encodes the clause: at position j, the vertex whose truth
value satisfies the clause exits to the backbone; everything else stays in
its lane.  Position n attaches lane ends straight to the last backbone
pair.  A sequence of length n+1+ceil(log2 m) then occurs once per clause
whose lane can reach the backbone under the suffix read as an assignment,
so the maximum frequency is m exactly when the formula is satisfiable, and
the suffix of a maximizer decodes a satisfying assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Sequence

from .cnf import CnfFormula, brute_force_sat, satisfies
from .errors import DEFAULT_LIMITS, Limits, ReductionError, ResourceLimitError
from .graphs import LabeledDigraph
from .walks import frontier_step, most_frequent_sequence


def _tree_depth(m: int) -> int:
    return ceil(log2(m)) if m > 1 else 0


@dataclass(frozen=True)
class ReductionParams:
    variable_count: int
    clause_count: int
    tree_depth: int
    target_length: int


@dataclass(frozen=True)
class ReductionOutput:
    graph: LabeledDigraph
    roles: tuple[str, ...]
    params: ReductionParams

    def vertex(self, role: str) -> int:
        try:
            return self.roles.index(role)
        except ValueError:
            raise KeyError(f"no vertex with role {role!r}") from None

    @property
    def role_map(self) -> dict[int, str]:
        return dict(enumerate(self.roles))


class _Builder:
    """Vertex/edge accumulator; edge insertion is set-like (duplicates
    collapse) while preserving first-insertion order."""

    def __init__(self):
        self.roles: list[str] = []
        self.out: list[list[int]] = []
        self._seen: list[set[int]] = []

    def add_vertex(self, role: str) -> int:
        self.roles.append(role)
        self.out.append([])
        self._seen.append(set())
        return len(self.roles) - 1

    def add_edge(self, src: int, dst: int):
        if dst not in self._seen[src]:
            self._seen[src].add(dst)
            self.out[src].append(dst)


def build_leaf_tree(m: int) -> tuple[_Builder, list[int]]:
    """Binary tree with m leaves, all at depth ceil(log2 m).

    For non-powers of two this is the complete tree of that depth keeping
    the leftmost m leaves, with childless branches pruned (out-degree may
    drop to 1, which the binary instance permits).  Returns the builder
    and the leaf ids in left-to-right order.
    """
    if m < 1:
        raise ValueError("need at least one leaf")
    depth = _tree_depth(m)
    b = _Builder()
    if depth == 0:
        b.add_vertex("c_1")
        return b, [0]
    b.add_vertex("root")
    # a node at (depth k, index i) survives iff its subtree holds a kept leaf,
    # i.e. iff i * 2**(depth-k) < m
    level = [(0, 0)]  # (vertex id, index within level)
    internal_count = 0
    for k in range(1, depth + 1):
        new_level = []
        for vid, idx in level:
            for child in (2 * idx, 2 * idx + 1):
                if child * (1 << (depth - k)) >= m:
                    continue
                if k == depth:
                    cid = b.add_vertex(f"c_{child + 1}")
                else:
                    internal_count += 1
                    cid = b.add_vertex(f"t_{internal_count}")
                b.add_edge(vid, cid)
                new_level.append((cid, child))
        level = new_level
    leaves = [vid for vid, _ in level]
    return b, leaves


def reduce_sat_to_mfs(f: CnfFormula) -> ReductionOutput:
    """Build the frequency-gadget graph for a CNF formula.

    The output is a binary instance whose most frequent sequence of the
    target length occurs clause_count times iff the formula is satisfiable.
    """
    n = f.variable_count
    m = f.clause_count
    depth = _tree_depth(m)
    b, leaves = build_leaf_tree(m)

    backbone: dict[tuple[str, int], int] = {}
    for j in range(2, n + 1):
        backbone[("u", j)] = b.add_vertex(f"u_0^{j}")
        backbone[("v", j)] = b.add_vertex(f"v_0^{j}")
    for j in range(2, n):
        for kind in ("u", "v"):
            b.add_edge(backbone[(kind, j)], backbone[("u", j + 1)])
            b.add_edge(backbone[(kind, j)], backbone[("v", j + 1)])

    for i, clause in enumerate(f.clauses, 1):
        lits = set(clause)
        lane: dict[tuple[str, int], int] = {}
        for j in range(1, n):
            lane[("u", j)] = b.add_vertex(f"u_{i}^{j}")
            lane[("v", j)] = b.add_vertex(f"v_{i}^{j}")
        b.add_edge(leaves[i - 1], lane[("u", 1)])
        b.add_edge(leaves[i - 1], lane[("v", 1)])
        for j in range(1, n):
            # the satisfying side exits to the backbone, the other stays in
            # lane; lane vertices for position n do not exist, so in-lane
            # edges at j = n-1 vanish and position n is wired below
            for kind, lit in (("u", j), ("v", -j)):
                src = lane[(kind, j)]
                if lit in lits:
                    b.add_edge(src, backbone[("u", j + 1)])
                    b.add_edge(src, backbone[("v", j + 1)])
                elif j + 1 <= n - 1:
                    b.add_edge(src, lane[("u", j + 1)])
                    b.add_edge(src, lane[("v", j + 1)])
        if n in lits:
            b.add_edge(lane[("u", n - 1)], backbone[("u", n)])
            b.add_edge(lane[("v", n - 1)], backbone[("u", n)])
        if -n in lits:
            b.add_edge(lane[("u", n - 1)], backbone[("v", n)])
            b.add_edge(lane[("v", n - 1)], backbone[("v", n)])

    labels = tuple("0" if role.startswith("v_") else "1" for role in b.roles)
    graph = LabeledDigraph(
        ("0", "1"),
        labels,
        tuple(tuple(row) for row in b.out),
        None,
        tuple(b.roles),
    )
    params = ReductionParams(n, m, depth, n + 1 + depth)
    return ReductionOutput(graph, tuple(b.roles), params)


@dataclass(frozen=True)
class WalkLengthVerdict:
    """Outcome of checking the two admissible maximal-walk shapes."""

    ok: bool
    full_walks: int
    dead_end_walks: int
    offenders: tuple[str, ...] = ()


def check_maximal_walks(
    r: ReductionOutput, *, limits: Limits = DEFAULT_LIMITS
) -> WalkLengthVerdict:
    """Verify every maximal walk from the root either spans the full
    target (ending at the last backbone pair) or stops one position short
    at a lane dead end, and that at least one full walk exists."""
    g = r.graph
    n, depth = r.params.variable_count, r.params.tree_depth
    full_len = n + depth  # edges
    tail = {f"u_0^{n}", f"v_0^{n}"}
    full = dead = 0
    offenders: list[str] = []
    # walks of `length` edges from the root, counted per end vertex
    counts, length = {0: 1}, 0
    while counts:
        for v, c in counts.items():
            if g.out_edges[v]:
                continue
            seen = full + dead + len(offenders) + c
            if seen > limits.max_walks:
                raise ResourceLimitError(
                    "maximal-walk enumeration exceeds limit max_walks="
                    f"{limits.max_walks}: at least {seen} maximal walks"
                )
            role = r.roles[v]
            if length == full_len and role in tail:
                full += c
            elif length == full_len - 1 and role not in tail:
                dead += c
            else:
                offenders += [f"walk of {length} edges ends at {role}"] * c
        counts, length = frontier_step(g.out_edges, counts), length + 1
    ok = not offenders and full > 0
    if full == 0:
        offenders.append("no full-length walk reaches the backbone tail")
    return WalkLengthVerdict(ok, full, dead, tuple(offenders))


def extract_assignment(
    r: ReductionOutput, sequence: Sequence[str] | str
) -> tuple[bool, ...]:
    """Decode a target-length sequence into the assignment its suffix
    spells (position j of the suffix is variable j, "1" = true)."""
    seq = tuple(sequence)
    params = r.params
    if len(seq) != params.target_length:
        raise ReductionError(
            f"sequence has {len(seq)} symbols, expected {params.target_length}"
        )
    prefix_len = params.tree_depth + 1
    if any(sym != "1" for sym in seq[:prefix_len]):
        raise ReductionError(
            f"the first {prefix_len} symbols must be '1' (tree prefix), "
            f"got {''.join(seq[:prefix_len])}"
        )
    return tuple(sym == "1" for sym in seq[prefix_len:])


@dataclass(frozen=True)
class ReductionVerdict:
    ok: bool
    clause_count: int
    mfs_count: int
    mfs_sequence: tuple[str, ...]
    satisfiable: bool
    assignment: tuple[bool, ...] | None
    detail: str


def verify_reduction(
    f: CnfFormula,
    *,
    limits: Limits = DEFAULT_LIMITS,
    reduction: ReductionOutput | None = None,
) -> ReductionVerdict:
    """Cross-check the reduction against exhaustive satisfiability.

    Confirms that the most frequent target-length sequence occurs exactly
    clause_count times iff the formula is satisfiable, never more, and
    that a maximizer's suffix decodes to a satisfying assignment.  A caller
    that already holds `reduce_sat_to_mfs(f)` passes it as `reduction`, so
    the gadget is not built twice.
    """
    r = reduce_sat_to_mfs(f) if reduction is None else reduction
    mfs = most_frequent_sequence(
        r.graph, 0, r.params.target_length, limits=limits
    )
    witness = brute_force_sat(f)
    m = f.clause_count
    problems = []
    if mfs.count > m:
        problems.append(f"count {mfs.count} exceeds clause count {m}")
    if (mfs.count == m) != (witness is not None):
        problems.append(
            f"count {mfs.count} vs clause count {m} disagrees with "
            f"satisfiable={witness is not None}"
        )
    assignment = None
    if witness is not None and mfs.count == m:
        try:
            assignment = extract_assignment(r, mfs.sequence)
        except ReductionError as exc:
            problems.append(f"maximizer not decodable: {exc}")
        if assignment is not None and not satisfies(f, assignment):
            problems.append(f"decoded assignment {assignment} does not satisfy")
    return ReductionVerdict(
        ok=not problems,
        clause_count=m,
        mfs_count=mfs.count,
        mfs_sequence=mfs.sequence,
        satisfiable=witness is not None,
        assignment=assignment,
        detail="; ".join(problems) if problems else "equivalence holds",
    )
