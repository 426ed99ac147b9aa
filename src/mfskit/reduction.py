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

Vertex ids follow one layout, so every out-row is computed once, in id
order.  The leaf tree comes first, level by level: the root is 0, the
internal nodes t_1, t_2, ... have the ids in their names, and the leaves
c_1..c_m are last.  With T tree vertices, the backbone pair u_0^j / v_0^j
follows at T + 2(j-2), then lane i's pair u_i^j / v_i^j at
T + 2(n-1)i + 2(j-1); each v sits right after its u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cnf import CnfFormula, brute_force_sat, satisfies
from .errors import DEFAULT_LIMITS, Limits, ReductionError, ResourceLimitError
from .graphs import LabeledDigraph
from .walks import frontier_step, most_frequent_sequence


def _tree_depth(m: int) -> int:
    return (m - 1).bit_length()


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


def build_leaf_tree(m: int) -> tuple[list[str], list[tuple[int, ...]], list[int]]:
    """Binary tree with m leaves, all at depth ceil(log2 m).

    For non-powers of two this is the complete tree of that depth keeping
    the leftmost m leaves, with childless branches pruned (out-degree may
    drop to 1, which the binary instance permits).  Depth k keeps
    ceil(m / 2**(depth-k)) nodes, numbered level by level; node i of a
    level has children 2i and 2i+1 on the next when they survive.  Returns
    the roles, the out-rows (leaf rows empty) and the leaf ids in
    left-to-right order, which are the last m ids.
    """
    if m < 1:
        raise ValueError("need at least one leaf")
    depth = _tree_depth(m)
    widths = [-(-m >> (depth - k)) for k in range(depth + 1)]
    out: list[tuple[int, ...]] = []
    for width, below in zip(widths, widths[1:]):
        nxt = len(out) + width  # id of the next level's first node
        out += [tuple(range(nxt + 2 * i, nxt + min(2 * i + 2, below)))
                for i in range(width)]
    internal = len(out)
    roles = [f"t_{v}" if v else "root" for v in range(internal)]
    roles += [f"c_{i}" for i in range(1, m + 1)]
    return roles, out + [()] * m, list(range(internal, internal + m))


def reduce_sat_to_mfs(f: CnfFormula) -> ReductionOutput:
    """Build the frequency-gadget graph for a CNF formula.

    The output is a binary instance whose most frequent sequence of the
    target length occurs clause_count times iff the formula is satisfiable.
    """
    n = f.variable_count
    m = f.clause_count
    depth = _tree_depth(m)
    roles, out, leaves = build_leaf_tree(m)
    base = len(roles)  # u_0^j is base + 2(j-2)
    lane = 2 * (n - 1)  # ids per lane; lane i starts at base + lane * i
    last = base + lane - 2  # u_0^n

    roles += [f"{kind}_0^{j}" for j in range(2, n + 1) for kind in "uv"]
    roles += [f"{kind}_{i}^{j}" for i in range(1, m + 1)
              for j in range(1, n) for kind in "uv"]
    # a leaf enters its lane at u_i^1 / v_i^1
    rows = out[: leaves[0]]
    rows += [(s, s + 1) for s in range(base + lane, base + lane * (m + 1), lane)]
    # the backbone pair j chains to pair j+1; the pair n ends every full walk
    for j in range(2, n):
        rows += [(base + 2 * j - 2, base + 2 * j - 1)] * 2
    rows += [(), ()]
    for i, clause in enumerate(f.clauses, 1):
        lits = set(clause)
        # position n: lane ends attach straight to the last backbone pair
        hook = tuple(v for v, lit in ((last, n), (last + 1, -n)) if lit in lits)
        for j in range(1, n):
            stay = base + lane * i + 2 * j  # u_i^{j+1}
            backbone = base + 2 * j - 2  # u_0^{j+1}
            for lit in (j, -j):
                # the satisfying side exits to the backbone, the other stays
                # in lane; lane vertices for position n do not exist
                if lit in lits:
                    rows.append((backbone, backbone + 1))
                else:
                    rows.append((stay, stay + 1) if j < n - 1 else hook)

    # tree vertices read 1, then every u/v pair reads 1, 0
    labels = ("1",) * base + ("1", "0") * (n - 1) * (m + 1)
    graph = LabeledDigraph(("0", "1"), labels, rows, None, roles)
    params = ReductionParams(n, m, depth, n + 1 + depth)
    return ReductionOutput(graph, graph.names, params)


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
    the gadget is not built twice.  The exhaustive oracle runs first, so a
    formula over its cap is refused before the MFS solve.
    """
    witness = brute_force_sat(f)
    r = reduce_sat_to_mfs(f) if reduction is None else reduction
    mfs = most_frequent_sequence(
        r.graph, 0, r.params.target_length, limits=limits
    )
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
