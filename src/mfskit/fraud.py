"""Distance-fraud success probability: exact recursion, brute force, Monte Carlo.

The exact engine works on the family of "fan trees": a root with 2m
children, each child rooting a full binary tree of depth n-1 (m = 1 is the
full binary tree of depth n).  Over uniform random binary labelings, let
M(m, n) be the maximum occurrence count among all label sequences of n+1
symbols read along walks from the root.  Conditioning on how many root
children are labeled 0 splits the tree into two independent halves one
level down, which yields a recursion on threshold probabilities
Pr(M(m, n) < x) with closed-form values at depth 1.

One bottom-up level sweep (`_level_sweep`) evaluates that recursion at
every depth up to n at once; one helper (`_sweep`) builds the table a set
of thresholds reads and sweeps each.  It serves the fan tree
(`recursive_prob`) and the one tree driver, `expected_max_tree_range`,
with the arithmetic, exact integers or floats, as the only parameter.
Depth 1 is a binomial tail advanced by a recurrence in m, so the table
holds only the rows m <= m_top * 2**(n-2) that levels >= 2 read.

The full binary tree needs no sweep above x = 2**(n-1).  The occurrence
count of one sequence is generation n of the critical Galton-Watson
process Z with Bin(2, 1/2) offspring, and the 2**n walks leave room for
at most one sequence past 2**(n-1), so there Pr(M >= x) =
2**n * Pr(Z_n >= x) exactly (`_one_sequence_tail`).  The tree driver
sweeps rounds lo .. hi once, at depth hi and x <= 2**(hi-1): round n reads
level n at x <= 2**(n-1) and the pmf of Z_n above, rounded once for floats.

The paper's O(2**(2n) * n) bound counts recursion states (x, level, m).
Here each state is a convolution of up to m pair terms, so the pair terms
of a sweep of the depth-n tree grow as Theta(8**n): over x <= 2**(n-1)
they number 2,823, 21,991, 173,319, 1,375,751 and 10,962,311 for
n = 6 .. 10 (every x: 5,623, 42,279, 327,239, 2,573,831 and 20,414,599).
Most of them multiply by probability one, which the sweep replaces by
shifts and prefix sums of the binomial row; the products of two factors
that are not one number 381, 3,394, 28,450, 232,573 and 1,879,733, all
at x <= 2**(n-1).

All such probabilities are dyadic.  Internally a value at level n with
parameter m is stored as an integer numerator over 2**(c_n * m) where
c_1 = 2 and c_n = 2*c_{n-1} + 2; that exponent is linear in m, which makes
the recursion pure integer arithmetic with no normalization.  Exact results
leave as `DyadicProbability`, that numerator and exponent in lowest terms;
callers do arithmetic on them through `as_fraction()`.  Float mode runs
the same sweep on the pmf rows C(2m, i) / 2**(2m), where the powers of two
are already divided out and probability one is 1.0.

Two exact facts prune the state space: M(m, n) >= m always, so the
probability is 0 when x <= m; and M(m, n) <= m * 2**n with equality on the
all-equal labeling, so the probability is 1 when x exceeds that.

Brute force and Monte Carlo work on any graph.  They score each labeling
with `walks.MfsScorer`, the one scorer the early-reply sessions of
`protocol` use too: bit planes of the walks and a pruned split of them
into classes on trees and on rings up to n = 12, one prefix search on rings
from n = 13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from itertools import accumulate
from operator import mul

from .errors import DEFAULT_LIMITS, Limits, MfskitError, ResourceLimitError
from .graphs import LabeledDigraph
from .walks import MfsScorer
from .walks import count_walks, walks_from  # noqa: F401  bench/run.py traces them here

try:
    import resource
except ImportError:  # not POSIX: no address-space limit to read
    resource = None


@dataclass(frozen=True)
class DyadicProbability:
    """A probability numerator / 2**log2_denominator in lowest terms: the
    numerator is odd, or zero over 2**0.  The value lies in [0, 1];
    arithmetic goes through `as_fraction()`."""

    numerator: int
    log2_denominator: int = 0

    def __post_init__(self):
        num, exp = self.numerator, self.log2_denominator
        if num < 0 or exp < 0:
            raise ValueError("negative numerator or exponent")
        shift = min((num & -num).bit_length() - 1, exp) if num else exp
        if num >> shift > 1 << (exp - shift):
            raise ValueError(f"{num}/2^{exp} is larger than 1")
        object.__setattr__(self, "numerator", num >> shift)
        object.__setattr__(self, "log2_denominator", exp - shift)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.log2_denominator)


def _binom_rows(mmax: int):
    # rows[m] = (C(2m, i) for i <= m, prefix sums of that half row): the
    # mirrored sweep reads nothing right of the middle
    rows = []
    for m in range(mmax + 1):
        row = [1] * (m + 1)
        for i in range(1, m + 1):
            row[i] = row[i - 1] * (2 * m - i + 1) // i
        rows.append(_with_sums(row))
    return rows


def _pmf_rows(mmax: int):
    # the rows of _binom_rows over 2**(2m) as floats, each half row built by
    # ratio steps down from the mode so no value underflows before it has to
    rows = []
    for m in range(mmax + 1):
        row = [0.0] * (m + 1)
        row[m] = float(Fraction(comb(2 * m, m), 1 << (2 * m)))
        for i in range(m, 0, -1):
            row[i - 1] = row[i] * i / (2 * m - i + 1)
        rows.append(_with_sums(row))
    return rows


def _with_sums(row):
    # sums[k] = row[0] + ... + row[k-1] for k = 0 .. len(row) - 1
    return row, list(accumulate(row[:-1], initial=0 * row[0]))


def _level_exponent(level: int) -> int:
    # c_1 = 2, c_l = 2*c_{l-1} + 2  ->  2**(l+1) - 2
    return (1 << (level + 1)) - 2


def _level_one(x: int, top: int):
    """Pr(M(m, 1) < x) numerators over 4**m for m = 0 .. top, as 4**m - 2 T(m)
    with the tail T(m) = C(2m, x) + C(2m, x+1) + ...: 0 while 2m < x, then
    4 T(m-1) + 3 C(2m-2, x-1) + C(2m-2, x-2), from one ratio step per m."""
    s = (x - 1) // 2  # 2m < x iff m <= s
    yield from (1 << 2 * m for m in range(min(s, top) + 1))
    tail, b = 0, x - 1 if x & 1 else 1  # T(s) = 0 and C(2s, x-2)
    for m in range(s + 1, top + 1):  # b: C(2m-2, x-2) -> C(2m, x-2)
        tail = 4 * tail + 3 * (b * (2 * m - x) // (x - 1)) + b
        b = b * (2 * m - 1) * 2 * m // ((2 * m + 1 - x) * (2 * m + 2 - x))
        yield (1 << 2 * m) - 2 * tail


def _level_sweep(m_top: int, n: int, x: int, rows, scale) -> list:
    """Pr(M(m_top, l) < x) for l = 1 .. n, level by level from depth 1.

    Level l holds parameters m = 0 .. min(m_top * 2**(n-l), x - 1); each
    pass consumes the level below through the binomial-weighted symmetric
    sum, which reads no index at or above x; level 1 reads no row
    (`_level_one`), and floats divide its numerators once.  The arithmetic
    is the caller's: rows[m] holds the half row C(2m, i) for i <= m with
    its prefix sums, and scale(v, e) is v * 2**e, so integer rows with
    `_shift` give exact numerators over 2**(c_l * m_top), and float pmf
    rows with scale(v, e) = v give floats.

    A value at level l is probability one, 2**(c_l * m) in exact numerators,
    when x > m * 2**l.  With t the first index of the level below that is
    not one, a pair term row[i] * prev[i] * prev[2m-i] (i < m) takes no
    product when both factors are one (2m - t < i < t: a prefix sum of the
    row, shifted), one product when only prev[2m-i] is not (i < t), and two
    products when neither is (i >= t).  The one-factor terms, times
    2**(c*i), read the level below lifted once to prev[j] * 2**(c*(last-j)),
    so a state's window is one sum scaled once, by 2**(c*(2m-last)).
    """
    one = rows[0][0][0]  # C(0, 0): 1 or 1.0, in the caller's arithmetic
    if x <= m_top:
        return [0 * one] * n
    prev = [v if type(one) is int else v / (1 << 2 * m)
            for m, v in enumerate(_level_one(x, min(m_top << (n - 1), x - 1)))]
    depths = [prev[m_top]]
    for level in range(2, n + 1):
        c = _level_exponent(level - 1)
        t = ((x - 1) >> (level - 1)) + 1  # prev[j] is one iff j < t
        last = len(prev) - 1
        # the one-factor windows read prev[j] at j >= t only; each term
        # carries at least 2**(c*(last-2m)), so the window's shift is exact
        lifted = prev[:t] + list(map(scale, prev[t:], range(c * (last - t), -1, -c)))
        top = min(m_top << (n - level), x - 1)
        ones = min(top + 1, ((x - 1) >> level) + 1)  # cur[m] is one iff m < ones
        cur = [scale(one, (2 * c + 2) * m) for m in range(ones)]
        for m in range(ones, top + 1):
            row, sums = rows[m]
            lo = max(0, 2 * m - x + 1)
            e = min(t, 2 * m - t + 1)  # lo <= i < e: only prev[2m-i] is not one
            acc = scale(sum(map(mul, row[lo:e], lifted[2 * m - lo : 2 * m - e : -1])),
                        c * (2 * m - last))
            if m < t:  # every later pair and the middle are one
                b = max(lo, e)
                both = row[m] + 2 * (sums[m] - sums[b])
                cur.append(acc + acc + scale(both, 2 * c * m))
                continue
            k = max(lo, t)  # k <= i < m: neither factor is one
            acc += sum(
                map(mul, map(mul, row[k:m], prev[k:m]), prev[2 * m - k : m : -1])
            )
            pm = prev[m]
            cur.append(acc + acc + row[m] * pm * pm)
        prev = cur
        depths.append(prev[m_top])
    return depths


def base_case_prob(m: int, x: int) -> DyadicProbability:
    """Pr(M(m, 1) < x): the depth-1 stop condition of the recursion.

    In priority order: 1 if m = 0 (a bare root realizes no sequence of
    length >= 2); 0 if x <= m (one child label must repeat at least m
    times); 1 if x > 2m; otherwise the binomial tail
    (C(2m, m) + 2 * sum_{i=m+1}^{x-1} C(2m, i)) / 2**(2m).
    """
    return recursive_prob(m, 1, x)


def recursive_prob(m: int, n: int, x: int) -> DyadicProbability:
    """Exact Pr(M(m, n) < x) for the fan tree with 2m root children."""
    if m < 0 or n < 1 or x < 1:
        raise ValueError("need m >= 0, n >= 1 and x >= 1")
    check_table_size(_top_row(m, n, x) + 1, f"m = {m}, n = {n}, x = {x}")
    [[numer]] = _sweep((m, n, [(x, n)], True))
    return DyadicProbability(numer, _level_exponent(n) * m)


def _top_row(m_top: int, n: int, x: int) -> int:
    # the last row levels >= 2 of a depth-n sweep of x' <= x read; row 0 if none
    return min(m_top << (n - 2), x - 1) if n > 1 else 0


def _shift(v: int, e: int) -> int:
    # v * 2**e, the exact sweep's scale: for e < 0 its v is a multiple of 2**-e
    return v << e if e >= 0 else v >> -e


def _sweep(args: tuple[int, int, list, bool]) -> list:
    """For each (x, first) of `reads`, ascending in x, Pr(M(m_top, l) < x)
    at depths l = n down to first, over one table of the rows
    m <= _top_row(m_top, n, max x) they read: numerators over
    2**(c_l * m_top) if `exact`, else floats from pmf rows, where scaling
    by a power of two is the identity."""
    m_top, n, reads, exact = args
    mmax = _top_row(m_top, n, reads[-1][0])
    rows = _binom_rows(mmax) if exact else _pmf_rows(mmax)
    scale = _shift if exact else (lambda v, e: v)
    return [_level_sweep(m_top, n, x, rows, scale)[first - 1 :][::-1]
            for x, first in reads]


def _one_sequence_pmf(n: int) -> list[int]:
    """Pr(Z_n = k) numerators over 2**_level_exponent(n) for k = 0 .. 2**n.

    The pgf numerators of Z_n (module docstring) are
    P_l = (2**c_{l-1} + P_{l-1})**2 over 2**c_l from P_0 = s, each square
    one big-integer product by Kronecker substitution: byte-aligned slots
    wide enough that no carry crosses one, packed and unpacked as bytes.
    """
    poly = [0, 1]
    for level in range(1, n + 1):
        poly[0] += 1 << _level_exponent(level - 1)
        width = (2 * max(poly).bit_length() + len(poly).bit_length() + 7) // 8
        slots = b"".join(c.to_bytes(width, "little") for c in poly)
        square = int.from_bytes(slots, "little") ** 2
        raw = square.to_bytes(width * (2 * len(poly) - 1), "little")
        poly = [int.from_bytes(raw[i : i + width], "little")
                for i in range(0, len(raw), width)]
    return poly


def _one_sequence_tail(n: int) -> list[int]:
    """Pr(M(1, n) < x) numerators over 2**_level_exponent(n) for
    x = 2**(n-1) + 1 .. 2**n + 1, as 1 - 2**n * Pr(Z_n >= x): past 2**(n-1)
    at most one sequence can reach x (see the module docstring)."""
    pmf = _one_sequence_pmf(n)
    # suffix sums of the pmf, from x = 2**n + 1 down to 2**(n-1) + 1
    tails = accumulate(reversed(pmf[(1 << (n - 1)) + 1 :]), initial=0)
    whole = 1 << _level_exponent(n)
    return [whole - (t << n) for t in tails][::-1]


@dataclass(frozen=True)
class CdfTable:
    """Threshold probabilities Pr(M(1, n) < x) for x = 1 .. 2**n + 1."""

    rounds: int
    values: tuple[DyadicProbability, ...]

    def prob_below(self, x: int) -> DyadicProbability:
        if not (1 <= x <= (1 << self.rounds) + 1):
            raise ValueError(f"x must be in 1..2^{self.rounds}+1")
        return self.values[x - 1]


def _table_bytes(rows: int, exact: bool = True) -> int:
    # about the size of table rows m < `rows`, each with m+1 binomials and
    # m+1 prefix sums, each one list slot (8 bytes) and an int of 24 bytes
    # plus 4 per 30-bit digit (below 2**(2m)) or a float of 24 bytes; a float
    # row adds 1/8 slot of list growth per value and 224 bytes of headers
    if exact:
        return sum(2 * (m + 1) * (32 + 4 * max(1, -(-2 * m // 30)))
                   for m in range(rows))
    return 65 * rows * (rows + 1) // 2 + 224 * rows


def check_table_size(rows: int, what: str, exact: bool = True) -> None:
    """Refuse a binomial table of `rows` rows for `what`, exact or float,
    that would not fit under the soft address-space limit (RLIMIT_AS),
    before any of it is built.  A sweep's workers build the same table
    under the same limit, so one check covers them all."""
    if resource is None:
        return
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    need = _table_bytes(rows, exact)
    if cap != resource.RLIM_INFINITY and need > cap:
        raise ResourceLimitError(
            f"{what} needs about {need >> 20} MiB for its binomial table, "
            f"above the address-space limit of {cap >> 20} MiB"
        )


@dataclass(frozen=True)
class TreeExpectation:
    rounds: int
    expected_max: Fraction
    cdf: CdfTable


def expected_max_tree_range(lo: int, hi: int, *, limits: Limits = DEFAULT_LIMITS,
                            workers: int = 1, exact: bool = True) -> list:
    """[expected_max_tree(n) for n = lo .. hi], or expected_max_tree_float(n)
    if not `exact`, from one sweep of round hi: the tree driver.

    Refuses hi past `limits.max_exact_rounds`, in either arithmetic, then
    a table too large for the address-space limit, before any sweep.
    Level n of the sweep of depth hi at x <= 2**(hi-1) is round n's
    Pr(M(1, n) < x), read at x <= 2**(n-1); the one-sequence law gives the
    rest, rounded once for floats.  Worker i of `workers`, at most one per
    swept threshold, sweeps x = 1+i, 1+i+workers, ... with its own table
    and returns only the values the range reads; the stride balances the
    uneven cost per threshold.  Only `workers` > 1 imports the process
    pool, and a broken pool raises `ResourceLimitError`.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if not 1 <= lo <= hi:
        raise ValueError("need n >= 1" if lo < 1 else f"need lo <= hi, got {lo}:{hi}")
    if hi > limits.max_exact_rounds:
        raise ResourceLimitError(
            f"n = {hi} exceeds max_exact_rounds = {limits.max_exact_rounds}; "
            "raise it with --max-exact-rounds or MFSKIT_MAX_EXACT_ROUNDS"
        )
    half = 1 << (hi - 1)
    check_table_size(_top_row(1, hi, half) + 1, f"n = {hi}", exact)
    workers = min(workers, half)
    # threshold x is read at the rounds n >= lo with x <= 2**(n-1)
    tasks = [(1, hi, [(x, max(lo, (x - 1).bit_length() + 1))
                      for x in range(1 + i, half + 1, workers)], exact)
             for i in range(workers)]
    if workers > 1:  # swept[x-1][hi-n] is round n's Pr(M < x)
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        swept = [None] * half
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for i, part in enumerate(pool.map(_sweep, tasks)):
                    swept[i::workers] = part
        except BrokenExecutor as exc:
            raise ResourceLimitError(f"worker process failed: {exc}") from exc
    else:
        swept = _sweep(tasks[0])
    results = []
    for n in range(lo, hi + 1):
        d = _level_exponent(n)
        cdf = [depths[hi - n] for depths in swept[: 1 << (n - 1)]]
        cdf += [t if exact else t / (1 << d) for t in _one_sequence_tail(n)]
        if exact:  # E[M] = sum_{x=1}^{2^n} Pr(M >= x)
            expected = Fraction((1 << (n + d)) - sum(cdf[:-1]), 1 << d)
            table = CdfTable(n, tuple(DyadicProbability(nu, d) for nu in cdf))
            results.append(TreeExpectation(n, expected, table))
        else:
            results.append((float(1 << n) - sum(cdf[:-1]), tuple(cdf)))
    return results


def expected_max_tree(
    n: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
    workers: int = 1,
) -> TreeExpectation:
    """Exact expectation of the maximum occurrence count for the full
    binary tree of depth n under uniform random labeling, from the tree
    driver (`expected_max_tree_range`) in integers."""
    return expected_max_tree_range(n, n, limits=limits, workers=workers)[0]


def expected_max_tree_float(
    n: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[float, tuple[float, ...]]:
    """Floating-point variant of expected_max_tree: (expectation, cdf values
    for x = 1..2**n+1) from the same driver in floats, on one worker.
    Probabilities below roughly 1e-300 round to zero."""
    return expected_max_tree_range(n, n, limits=limits, exact=False)[0]


# -- brute force and Monte Carlo ------------------------------------------------


def _scores(g: LabeledDigraph, start: int, n: int, limits: Limits):
    # labeling bits -> maximum occurrence over the walks of n+1 vertices
    g.check_vertex(start)
    if n < 1:
        raise ValueError("need n >= 1 rounds")
    return MfsScorer(g, start, n + 1).counter(limits)


def brute_force_expected_max(
    g: LabeledDigraph,
    start: int,
    n: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Fraction:
    """Exact expectation of the maximum occurrence count by enumerating
    every binary labeling of the graph (labels of `g` are ignored).

    Complementing every label leaves the maximum unchanged, so only the
    labelings whose top vertex reads 0 are scored, each standing for its
    complement too.  Works for any structure; the cost is 2**(V-1)
    labelings times the number of walks, and V is capped by
    limits.max_brute_vertices.
    """
    nv = g.vertex_count
    if nv > limits.max_brute_vertices:
        raise ResourceLimitError(
            f"{nv} vertices exceed the brute-force limit "
            f"{limits.max_brute_vertices} (2^{nv} labelings)"
        )
    score = _scores(g, start, n, limits)
    # bit V-1 is the top vertex's label: these are the labelings where it reads 0
    return Fraction(sum(map(score, range(1 << (nv - 1)))), 1 << (nv - 1))


@dataclass(frozen=True)
class DistanceFraudReport:
    """Success probability of the optimal early-reply distance fraud."""

    method: str
    rounds: int
    expected_max: Fraction
    success_probability: Fraction
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None

    def to_json_dict(self) -> dict:
        def frac(f: Fraction) -> dict:
            entry = {
                "numerator": f.numerator,
                "denominator": f.denominator,
                "decimal": float(f),
            }
            if f.denominator & (f.denominator - 1) == 0:
                entry["log2_denominator"] = f.denominator.bit_length() - 1
            return entry

        out = {
            "method": self.method,
            "rounds": self.rounds,
            "expected_max": frac(self.expected_max),
            "success_probability": frac(self.success_probability),
        }
        if self.samples is not None:
            out["samples"] = self.samples
            out["seed"] = self.seed
            out["std_error"] = self.std_error
        return out


def distance_fraud_probability(
    expected_max: Fraction,
    rounds: int,
    method: str,
    *,
    samples: int | None = None,
    seed: int | None = None,
    std_error: float | None = None,
) -> DistanceFraudReport:
    """Wrap an expected maximum into a success-probability report."""
    success = Fraction(expected_max, 1 << rounds)
    if not Fraction(1, 1 << rounds) <= success <= 1:
        raise MfskitError(
            f"success probability {success} outside [2^-{rounds}, 1]; "
            "inconsistent expected maximum"
        )
    return DistanceFraudReport(
        method=method,
        rounds=rounds,
        expected_max=expected_max,
        success_probability=success,
        samples=samples,
        seed=seed,
        std_error=std_error,
    )


def monte_carlo_expected_max(
    g: LabeledDigraph,
    start: int,
    n: int,
    samples: int,
    seed: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> DistanceFraudReport:
    """Estimate the expected maximum occurrence count from uniformly
    sampled labelings; deterministic for a fixed seed."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    nv = g.vertex_count
    score = _scores(g, start, n, limits)
    rng = random.Random(seed)
    total = 0
    total_sq = 0
    for _ in range(samples):
        m = score(rng.getrandbits(nv))
        total += m
        total_sq += m * m
    mean = Fraction(total, samples)
    std_error = None  # one sample has no spread to estimate; JSON null
    if samples > 1:
        var = (Fraction(total_sq, samples) - mean * mean) * samples / (samples - 1)
        std_error = sqrt(float(var) / samples) / (1 << n)
    return distance_fraud_probability(
        mean, n, "monte-carlo", samples=samples, seed=seed, std_error=std_error
    )
