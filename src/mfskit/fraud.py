"""Distance-fraud success probability: exact recursion, brute force, Monte Carlo.

The exact engine works on the family of "fan trees": a root with 2m
children, each child rooting a full binary tree of depth n-1 (m = 1 is the
full binary tree of depth n).  Over uniform random binary labelings, let
M(m, n) be the maximum occurrence count among all label sequences of n+1
symbols read along walks from the root.  Conditioning on how many root
children are labeled 0 splits the tree into two independent halves one
level down, which yields a recursion on threshold probabilities
Pr(M(m, n) < x) with closed-form values at depth 1.

One bottom-up level sweep (`_level_sweep`) evaluates that recursion for
every caller: the fan tree (`recursive_prob`, `base_case_prob`), the full
binary tree behind `expected_max_tree`, and float mode.  The arithmetic
is a parameter of the sweep.

The full binary tree needs no sweep above x = 2**(n-1).  The occurrence
count of one sequence is generation n of the critical Galton-Watson
process Z with Bin(2, 1/2) offspring, and the 2**n walks leave room for
at most one sequence past 2**(n-1), so there Pr(M >= x) =
2**n * Pr(Z_n >= x) exactly (`_one_sequence_tail`).  Exact mode sweeps
x = 1 .. 2**(n-1) and reads the rest from the pmf of Z_n.

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
the same sweep on the pmf rows C(k, i) / 2**k, where the powers of two are
already divided out and probability one is 1.0.

Two exact facts prune the state space: M(m, n) >= m always, so the
probability is 0 when x <= m; and M(m, n) <= m * 2**n with equality on the
all-equal labeling, so the probability is 1 when x exceeds that.

Brute force and Monte Carlo work on any graph.  They score each labeling
with `walks.MfsScorer`, the one scorer the early-reply sessions of
`protocol` use too: one gather over the walks and one `Counter` on trees,
one prefix search on rings from n = 8.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from itertools import accumulate
from operator import lshift, mul

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


def _with_sums(row):
    # sums[k] = row[0] + ... + row[k-1] for k = 0 .. len(row) - 1
    return row, list(accumulate(row[:-1], initial=0 * row[0]))


def _level_exponent(level: int) -> int:
    # c_1 = 2, c_l = 2*c_{l-1} + 2  ->  2**(l+1) - 2
    return (1 << (level + 1)) - 2


def _level_sweep(m_top: int, n: int, x: int, rows, scale):
    """Pr(M(m_top, n) < x), bottom-up from the depth-1 closed form.

    Level l holds parameters m = 0 .. min(m_top * 2**(n-l), x - 1); each
    pass consumes the level below through the binomial-weighted symmetric
    sum, which reads no index at or above x.  The arithmetic is the
    caller's: rows[m] holds the half row C(2m, i) for i <= m with its prefix
    sums, and scale(v, e) is v * 2**e, so integer rows with operator.lshift
    give exact numerators over 2**(c_n * m_top), and float pmf rows with
    scale(v, e) = v give floats.

    A value at level l is probability one, 2**(c_l * m) in exact numerators,
    when x > m * 2**l.  With t the first index of the level below that is
    not one, a pair term row[i] * prev[i] * prev[2m-i] (i < m) takes no
    product when both factors are one (2m - t < i < t: a prefix sum of the
    row, shifted), one product and a shift when only prev[2m-i] is not
    (i < t), and two products when neither is (i >= t).
    """
    one = rows[0][0][0]  # C(0, 0): 1 or 1.0, in the caller's arithmetic
    if x <= m_top:
        return 0 * one
    prev = []
    for m in range(min(m_top << (n - 1), x - 1) + 1):
        row, sums = rows[m]
        if x > 2 * m:
            prev.append(scale(one, 2 * m))
        else:
            # row[m] + 2 * (C(2m, m+1) + ... + C(2m, x-1)), mirrored
            prev.append(row[m] + 2 * (sums[m] - sums[2 * m - x + 1]))
    for level in range(2, n + 1):
        c = _level_exponent(level - 1)
        t = ((x - 1) >> (level - 1)) + 1  # prev[j] is one iff j < t
        top = min(m_top << (n - level), x - 1)
        ones = min(top + 1, ((x - 1) >> level) + 1)  # cur[m] is one iff m < ones
        cur = [scale(one, (2 * c + 2) * m) for m in range(ones)]
        for m in range(ones, top + 1):
            row, sums = rows[m]
            lo = max(0, 2 * m - x + 1)
            e = min(t, 2 * m - t + 1)  # lo <= i < e: only prev[2m-i] is not one
            acc = sum(
                map(scale, map(mul, row[lo:e], prev[2 * m - lo : 2 * m - e : -1]),
                    range(c * lo, c * e, c))
            )
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
    return prev[m_top]


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
    mmax = min(m << (n - 1), x - 1)  # the last row the sweep reads
    check_table_size(mmax + 1, f"m = {m}, n = {n}, x = {x}")
    rows = _binom_rows(mmax)
    numer = _level_sweep(m, n, x, rows, lshift)
    return DyadicProbability(numer, _level_exponent(n) * m)


def _sweep_stride(args: tuple[int, int, int]) -> list[int]:
    # thresholds x = 1 + first, 1 + first + step, ... <= 2**(n-1), one table
    # per call; its rows 0 .. 2**(n-1) - 1 are all those sweeps read
    n, first, step = args
    half = 1 << (n - 1)
    rows = _binom_rows(half - 1)
    xs = range(1 + first, half + 1, step)
    return [_level_sweep(1, n, x, rows, lshift) for x in xs]


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


def check_round_limit(n: int, limits: Limits) -> None:
    """Refuse n < 1, and n above `limits.max_exact_rounds` in exact and
    float mode alike.  The CLI checks a sweep once, with its top round."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > limits.max_exact_rounds:
        raise ResourceLimitError(
            f"n = {n} exceeds max_exact_rounds = {limits.max_exact_rounds}; "
            "raise it with --max-exact-rounds or MFSKIT_MAX_EXACT_ROUNDS"
        )


def _table_bytes(rows: int) -> int:
    # about the size of binomial table rows m < `rows`, each with m+1
    # binomials and m+1 prefix sums below 2**(2m); each value one list slot
    # (8 bytes) and one int of 24 bytes plus 4 per 30-bit digit
    return sum(2 * (m + 1) * (32 + 4 * max(1, -(-2 * m // 30)))
               for m in range(rows))


def check_table_size(rows: int, what: str) -> None:
    """Refuse a binomial table of `rows` rows for `what` that would not fit
    under the soft address-space limit (RLIMIT_AS), before any of it is
    built.  A sweep at n reads 2**(n-1) rows; its workers build the same
    table under the same limit, so one check covers them all."""
    if resource is None:
        return
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    need = _table_bytes(rows)
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


def expected_max_tree(
    n: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
    workers: int = 1,
) -> TreeExpectation:
    """Exact expectation of the maximum occurrence count for the full
    binary tree of depth n under uniform random labeling.

    Sweeps x = 1 .. 2**(n-1) with an independent pass per threshold, so
    memory stays at one level table per pass, and fills x > 2**(n-1) from
    the one-sequence law (`_one_sequence_tail`).  A binomial table too
    large for the address-space limit is refused first
    (`check_table_size`).  With `workers` > 1, up to
    one per swept threshold, worker i sweeps x = 1+i, 1+i+workers, ... in
    its own process with one binomial table; the stride balances the
    uneven cost per threshold, and the results interleave back
    deterministically.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    check_round_limit(n, limits)
    check_table_size(1 << (n - 1), f"n = {n}")
    top = 1 << n
    workers = min(workers, top >> 1)
    if workers > 1:
        numerators = [0] * (top >> 1)
        tasks = [(n, i, workers) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, part in enumerate(pool.map(_sweep_stride, tasks)):
                numerators[i::workers] = part
    else:
        numerators = _sweep_stride((n, 0, 1))
    numerators += _one_sequence_tail(n)
    d = _level_exponent(n)
    # E[M] = sum_{x=1}^{2^n} Pr(M >= x)
    shortfall = sum(numerators[:top])
    expected = Fraction((top << d) - shortfall, 1 << d)
    cdf = CdfTable(n, tuple(DyadicProbability(nu, d) for nu in numerators))
    return TreeExpectation(n, expected, cdf)


# -- float mode ----------------------------------------------------------------


def _binom_pmf_row(k: int) -> list[float]:
    """C(k, i) / 2**k for i <= k // 2 as floats, built by ratio steps down
    from the mode so no intermediate value underflows before it has to."""
    mid = k // 2
    row = [0.0] * (mid + 1)
    row[mid] = float(Fraction(comb(k, mid), 1 << k))
    for i in range(mid, 0, -1):
        row[i - 1] = row[i] * i / (k - i + 1)
    return row


def expected_max_tree_float(
    n: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[float, tuple[float, ...]]:
    """Floating-point variant of expected_max_tree.

    Returns (expectation, cdf values for x = 1..2**n+1), under exact mode's
    round limit.  Probabilities below roughly 1e-300 round to zero.
    """
    check_round_limit(n, limits)
    top = 1 << n
    rows = [_with_sums(_binom_pmf_row(2 * m)) for m in range(top // 2 + 1)]
    # pmf rows carry no powers of two: scaling by 2**e is the identity
    cdf = tuple(
        _level_sweep(1, n, x, rows, lambda v, e: v) for x in range(1, top + 2)
    )
    expected = float(top) - sum(cdf[:top])
    return expected, cdf


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
