import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from operator import mul

import pytest

from mfskit import (
    DyadicProbability,
    GraphError,
    Limits,
    MfskitError,
    ResourceLimitError,
    base_case_prob,
    brute_force_expected_max,
    distance_fraud_probability,
    expected_max_tree,
    expected_max_tree_float,
    expected_max_tree_range,
    make_generalized_tree,
    make_poulidor,
    make_tree,
    monte_carlo_expected_max,
    recursive_prob,
)
from mfskit import fraud
from mfskit import walks as walks_module
from mfskit.walks import walks_from
from conftest import SCORER_PATHS, random_binary_graph


def enumerate_max_distribution(g, start, n, fixed_root_label=True) -> Counter:
    """Independent oracle: distribution of the maximum occurrence count over
    all binary labelings (the start label is fixed; it shifts nothing)."""
    walks = [w for w in walks_from(g, start, n + 1) if len(w) == n + 1]
    nv = g.vertex_count
    free = nv - 1 if fixed_root_label else nv
    dist: Counter = Counter()
    for bits in range(1 << free):
        lab = bits << 1 if fixed_root_label else bits
        counts: dict[tuple, int] = {}
        best = 0
        for w in walks:
            key = tuple((lab >> v) & 1 for v in w)
            c = counts.get(key, 0) + 1
            counts[key] = c
            if c > best:
                best = c
        dist[best] += 1
    return dist


def cdf_from_distribution(dist: Counter, x: int) -> Fraction:
    total = sum(dist.values())
    return Fraction(sum(c for v, c in dist.items() if v < x), total)


# -- depth-1 stop conditions -----------------------------------------------------


def test_base_case_examples():
    assert base_case_prob(0, 3) == DyadicProbability(1)
    assert base_case_prob(1, 2) == DyadicProbability(1, 1)  # 1/2
    assert base_case_prob(2, 5) == DyadicProbability(1)
    assert base_case_prob(2, 2) == DyadicProbability(0)


def test_base_case_priority_of_empty_fan():
    # an empty fan realizes nothing, so its maximum 0 is below any threshold
    assert base_case_prob(0, 1) == DyadicProbability(1)


def test_base_case_matches_enumeration():
    for m in range(7):
        g = make_generalized_tree(m, 1)
        dist = enumerate_max_distribution(g, 0, 1)
        for x in range(1, 2 * m + 3):
            expected = cdf_from_distribution(dist, x)
            assert base_case_prob(m, x).as_fraction() == expected, (m, x)


def test_base_case_rejects_bad_arguments():
    with pytest.raises(ValueError):
        base_case_prob(-1, 1)
    with pytest.raises(ValueError):
        base_case_prob(0, 0)


# -- the recursion ----------------------------------------------------------------


def test_recursion_consistent_with_base_case():
    for m in range(9):
        for x in range(1, 2 * m + 3):
            assert recursive_prob(m, 1, x) == base_case_prob(m, x)


def test_recursion_trivial_thresholds():
    assert recursive_prob(1, 2, 5) == DyadicProbability(1)
    assert recursive_prob(1, 2, 1) == DyadicProbability(0)


def test_recursion_depth_two_value():
    # oracle: exhaustive enumeration of depth-2 tree labelings
    dist = enumerate_max_distribution(make_tree(2), 0, 2)
    expected = cdf_from_distribution(dist, 2)
    assert expected == Fraction(1, 8)
    assert recursive_prob(1, 2, 2).as_fraction() == expected


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_recursion_matches_generalized_tree_enumeration(m, n):
    g = make_generalized_tree(m, n)
    dist = enumerate_max_distribution(g, 0, n)
    for x in range(1, m * 2**n + 3):
        assert recursive_prob(m, n, x).as_fraction() == cdf_from_distribution(
            dist, x
        ), (m, n, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recursion_matches_tree_sweep(n):
    cdf = expected_max_tree(n).cdf
    for x in range(1, 2**n + 2):
        assert recursive_prob(1, n, x) == cdf.prob_below(x), (n, x)


# -- expectation sweep -------------------------------------------------------------


def test_expected_max_smallest_tree():
    result = expected_max_tree(1)
    assert result.expected_max == Fraction(3, 2)
    assert result.expected_max / 2 == Fraction(3, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expected_max_equals_brute_force(n):
    exact = expected_max_tree(n).expected_max
    brute = brute_force_expected_max(make_tree(n), 0, n)
    assert exact == brute


def test_cdf_table_shape_and_endpoints():
    for n in (1, 2, 3, 4):
        cdf = expected_max_tree(n).cdf
        assert len(cdf.values) == 2**n + 1
        assert cdf.prob_below(1) == DyadicProbability(0)
        assert cdf.prob_below(2**n + 1) == DyadicProbability(1)
        assert all(
            cdf.values[i].as_fraction() <= cdf.values[i + 1].as_fraction()
            for i in range(len(cdf.values) - 1)
        )
        with pytest.raises(ValueError):
            cdf.prob_below(0)


def test_success_probability_monotone_in_rounds():
    values = [
        Fraction(expected_max_tree(n).expected_max, 2**n) for n in range(1, 9)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_parallel_sweep_matches_serial():
    serial = expected_max_tree(4)
    # 3 workers split the 17 thresholds into uneven strides of 6, 6 and 5
    for workers in (2, 3):
        parallel = expected_max_tree(4, workers=workers)
        assert serial.expected_max == parallel.expected_max
        assert serial.cdf == parallel.cdf


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_needs_a_worker(workers):
    with pytest.raises(ValueError, match="need workers >= 1"):
        expected_max_tree(2, workers=workers)


def test_float_mode_tracks_exact():
    for n in range(1, 9):
        exact = expected_max_tree(n)
        approx, cdf = expected_max_tree_float(n)
        assert abs(approx - float(exact.expected_max)) <= 1e-12 * float(
            exact.expected_max
        )
        for a, b in zip(cdf, exact.cdf.values):
            assert type(a) is float and abs(a - float(b.as_fraction())) <= 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_float_mode_rounds_the_one_sequence_law_once(n):
    # above 2**(n-1) float mode reads the exact one-sequence law and rounds
    # each value once, to the float nearest the exact probability
    half = 1 << (n - 1)
    exact = expected_max_tree(n).cdf.values
    _, cdf = expected_max_tree_float(n)
    assert len(cdf) == len(exact)
    for x in range(half + 1, 2 * half + 2):
        assert cdf[x - 1] == float(exact[x - 1].as_fraction()), x


def level_sweep_oracle(m_top, n, x):
    """The unsplit level sweep: every pair term pays both products.

    Full even rows C(2m, i), level tables of m_top * 2**(n-l) + 1 entries,
    and probability one as an explicit power of two.
    """
    rows = [[comb(2 * m, i) for i in range(2 * m + 1)]
            for m in range((m_top << (n - 1)) + 1)]
    unit = (1).__lshift__
    zero = 0
    prev = []
    for m in range((m_top << (n - 1)) + 1):
        if x <= m:
            prev.append(zero)
        elif x > 2 * m:
            prev.append(unit(2 * m))
        else:
            row = rows[m]
            prev.append(row[m] + 2 * sum(row[m + 1 : x]))
    for level in range(2, n + 1):
        c = fraud._level_exponent(level)
        mmax = m_top << (n - level)
        cur = [zero] * (mmax + 1)
        for m in range(min(mmax, x - 1) + 1):
            if x > (m << level):
                cur[m] = unit(c * m)
                continue
            row = rows[m]
            hi = min(2 * m, x - 1)
            lo = 2 * m - hi
            acc = sum(
                map(mul, map(mul, row[lo:m], prev[lo:m]), prev[2 * m - lo : m : -1])
            )
            pm = prev[m]
            cur[m] = acc + acc + row[m] * pm * pm
        prev = cur
    return prev[m_top]


def depth_oracle(m_top, n, x):
    """Pr(M(m_top, l) < x) for l = 1 .. n, each from its own unsplit sweep."""
    return [level_sweep_oracle(m_top, depth, x) for depth in range(1, n + 1)]


@pytest.mark.parametrize("n", range(1, 8))
def test_split_sweep_matches_oracle_on_trees(n):
    # every depth of one sweep is the top of its own sweep
    rows = fraud._binom_rows(1 << (n - 1))
    for x in range(1, (1 << n) + 2):
        got = fraud._level_sweep(1, n, x, rows, fraud._shift)
        assert got == depth_oracle(1, n, x), x


@pytest.mark.parametrize("m_top", range(0, 7))
def test_split_sweep_matches_oracle_on_fan_trees(m_top):
    for n in range(1, 5):
        rows = fraud._binom_rows(m_top << (n - 1))
        d = fraud._level_exponent(n) * m_top
        for x in range(1, (m_top << n) + 3):
            want = depth_oracle(m_top, n, x)
            assert fraud._level_sweep(m_top, n, x, rows, fraud._shift) == want, (n, x)
            assert recursive_prob(m_top, n, x) == DyadicProbability(want[-1], d)


def test_split_sweep_matches_oracle_in_workers():
    # 3 workers take the 32 swept thresholds of n = 6 in strides of 11, 11
    # and 10, each at every depth it is read; the one-sequence law fills
    # the other 33
    want = [level_sweep_oracle(1, 6, x) for x in range(1, 66)]
    for i in range(3):
        xs = range(1 + i, 33, 3)
        part = fraud._sweep((1, 6, [(x, 6) for x in xs], True))
        assert part == [[v] for v in want[:32][i::3]]
        reads = [(x, (x - 1).bit_length() + 1) for x in xs]  # from depth 6 down
        part = fraud._sweep((1, 6, reads, True))
        assert part == [depth_oracle(1, 6, x)[::-1][: 7 - first] for x, first in reads]
    cdf = expected_max_tree(6, workers=3).cdf.values
    assert cdf == tuple(DyadicProbability(v, fraud._level_exponent(6)) for v in want)


@pytest.mark.parametrize("workers", [1, 3])
def test_range_reader_equals_single_rounds(workers):
    # one sweep of round hi gives each round lo .. hi what its own sweep
    # gives, value for value: exact numerators and floats alike
    exact = [expected_max_tree(n) for n in range(1, 9)]
    approx = [expected_max_tree_float(n) for n in range(1, 9)]
    for hi in range(1, 9):
        for lo in range(1, hi + 1):
            got = expected_max_tree_range(lo, hi, workers=workers)
            assert got == exact[lo - 1 : hi], (lo, hi)
            got = expected_max_tree_range(lo, hi, workers=workers, exact=False)
            assert got == approx[lo - 1 : hi], (lo, hi)


@pytest.mark.parametrize("lo, hi, err", [(0, 3, "need n >= 1"), (-1, -1, "need n >= 1"),
                                         (3, 2, "need lo <= hi, got 3:2")])
def test_range_reader_needs_an_ascending_range(lo, hi, err):
    with pytest.raises(ValueError, match=f"^{err}$"):
        expected_max_tree_range(lo, hi)


def test_split_sweep_starts_no_more_workers_than_thresholds(monkeypatch):
    # n = 1 sweeps 1 threshold and n = 2 sweeps 2: 8 workers would leave
    # most with nothing to sweep
    started, parts = [], []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            for part in map(fn, tasks):
                parts.append(len(part))
                yield part

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    for n, workers in [(1, 8), (2, 8), (2, 3), (3, 8), (4, 3)]:
        assert expected_max_tree(n, workers=workers) == expected_max_tree(n)
    assert started == [2, 2, 4, 3]
    assert parts == [1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 2]  # no worker without one


# -- the one-sequence law -------------------------------------------------------


def galton_watson_oracle(n):
    """Pr(Z_n = k) for k = 0 .. 2**n: each of the j individuals of
    generation l-1 has Bin(2, 1/2) children, so Z_l ~ Bin(2j, 1/2)."""
    dist = {1: Fraction(1)}
    for _ in range(n):
        nxt = Counter()
        for j, p in dist.items():
            for k in range(2 * j + 1):
                nxt[k] += p * Fraction(comb(2 * j, k), 1 << (2 * j))
        dist = nxt
    return [dist[k] for k in range(2**n + 1)]


@pytest.mark.parametrize("n", range(1, 11))
def test_one_sequence_pmf_is_critical(n):
    pmf = fraud._one_sequence_pmf(n)
    whole = 1 << fraud._level_exponent(n)
    assert len(pmf) == 2**n + 1
    assert sum(pmf) == whole  # a distribution
    assert sum(k * p for k, p in enumerate(pmf)) == whole  # E[Z_n] = 1
    if n <= 5:
        assert [Fraction(p, whole) for p in pmf] == galton_watson_oracle(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_one_sequence_tail_equals_the_sweep(n):
    half = 1 << (n - 1)
    rows = fraud._binom_rows(half)  # the rows the sweep of x <= 2**n + 1 reads
    tail = fraud._one_sequence_tail(n)
    assert len(tail) == half + 1
    for x in range(half + 1, 2 * half + 2):
        got = fraud._level_sweep(1, n, x, rows, fraud._shift)
        assert [tail[x - half - 1]] == got[-1:], x
        assert got == depth_oracle(1, n, x), x


@pytest.mark.parametrize("workers", [1, 3])
def test_expected_max_tree_cdf_matches_oracle(workers):
    for n in range(1, 7):
        d = fraud._level_exponent(n)
        cdf = expected_max_tree(n, workers=workers).cdf.values
        want = [level_sweep_oracle(1, n, x) for x in range(1, 2**n + 2)]
        assert cdf == tuple(DyadicProbability(v, d) for v in want), n


def test_level_one_tail_recurrence_equals_the_row_formula():
    # depth 1 from the tail recurrence gives, as exact integers, the
    # numerators over 4**m that binomial rows gave: row[m] + 2 * (sums[m] -
    # sums[2m-x+1]) for x <= 2m, else 4**m, at every x <= 2**10 + 1 and
    # m <= x - 1; each row is built once and read by every x in step
    xmax = (1 << 10) + 1
    level_one = {x: fraud._level_one(x, x - 1) for x in range(1, xmax + 1)}
    for m in range(xmax):
        row = [1] * (m + 1)
        for i in range(1, m + 1):
            row[i] = row[i - 1] * (2 * m - i + 1) // i
        row, sums = fraud._with_sums(row)
        for x in range(m + 1, xmax + 1):
            want = 1 << 2 * m
            if x <= 2 * m:
                want = row[m] + 2 * (sums[m] - sums[2 * m - x + 1])
            assert next(level_one[x]) == want, (m, x)
    assert all(next(rest, None) is None for rest in level_one.values())


def test_fan_tree_table_stops_at_the_threshold(monkeypatch):
    # levels >= 2 read rows m <= min(m_top << (n-2), x - 1) only, level 1
    # none: Pr(M(1, 11) < 3) needs 3 of 1,025
    built, build = [], fraud._binom_rows

    def recording(mmax):
        built.append(mmax)
        return build(mmax)

    monkeypatch.setattr(fraud, "_binom_rows", recording)
    recursive_prob(1, 11, 3)
    for m, n, x in [(2, 3, 100), (3, 2, 6), (0, 1, 1), (1, 8, 100), (1, 8, 50),
                    (5, 1, 9)]:
        full = fraud._level_sweep(m, n, x, build(m << (n - 1)), fraud._shift)
        assert full == depth_oracle(m, n, x), (m, n, x)
        d = fraud._level_exponent(n) * m
        assert recursive_prob(m, n, x) == DyadicProbability(full[-1], d), (m, n, x)
    assert built == [2, 4, 3, 0, 64, 49, 0]


def test_exact_mode_refuses_large_rounds():
    # one round rule for both arithmetics, lifted only by raising the limit
    small = Limits(max_exact_rounds=3)
    refusal = ("n = 4 exceeds max_exact_rounds = 3; "
               "raise it with --max-exact-rounds or MFSKIT_MAX_EXACT_ROUNDS")
    for engine in (expected_max_tree, expected_max_tree_float):
        with pytest.raises(ResourceLimitError) as info:
            engine(4, limits=small)
        assert str(info.value) == refusal
    approx, _ = expected_max_tree_float(4, limits=Limits(max_exact_rounds=4))
    assert abs(approx - float(expected_max_tree(4).expected_max)) < 1e-12


def test_expected_max_rejects_bad_rounds():
    with pytest.raises(ValueError):
        expected_max_tree(0)


@pytest.mark.parametrize("n", range(6, 11))
def test_table_estimate_covers_the_built_table(n):
    # the table of a depth-n tree sweep: rows m <= 2**(n-2)
    mmax = fraud._top_row(1, n, 1 << (n - 1))
    assert mmax == 1 << (n - 2)
    for build, exact in [(fraud._binom_rows, True), (fraud._pmf_rows, False)]:
        tracemalloc.start()
        try:
            rows = build(mmax)
            built = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        estimate = fraud._table_bytes(mmax + 1, exact)
        assert len(rows) == mmax + 1 and built <= estimate <= 1.5 * built, exact


@pytest.mark.skipif(fraud.resource is None, reason="no address-space limit to read")
def test_table_too_large_for_the_address_space_is_refused(monkeypatch):
    resource = fraud.resource
    cap = 400_000 * 1024  # ulimit -v 400000

    def getrlimit(which):
        assert which == resource.RLIMIT_AS
        return cap, resource.RLIM_INFINITY

    built, build = [], fraud._binom_rows

    def recording(mmax):
        built.append(mmax)
        return build(mmax)

    monkeypatch.setattr(resource, "getrlimit", getrlimit)
    monkeypatch.setattr(fraud, "_binom_rows", recording)
    monkeypatch.setattr(fraud, "_pmf_rows", recording)
    want = ("^n = 13 needs about 1594 MiB for its binomial table, "
            "above the address-space limit of 390 MiB$")
    for workers in (1, 2):  # refused in the parent, before any worker starts
        with pytest.raises(ResourceLimitError, match=want):
            expected_max_tree(13, workers=workers, limits=Limits(max_exact_rounds=13))
    # float rows are smaller: n = 14 is the first float table over the cap
    with pytest.raises(ResourceLimitError, match="^n = 14 needs about 521 MiB"):
        expected_max_tree_float(14, limits=Limits(max_exact_rounds=14))
    # the fan-tree recursion checks the min(m << (n-2), x-1) + 1 rows it reads
    want = ("^m = 1, n = 13, x = 4097 needs about 1594 MiB for its binomial "
            "table, above the address-space limit of 390 MiB$")
    with pytest.raises(ResourceLimitError, match=want):
        recursive_prob(1, 13, 4097)
    with pytest.raises(ResourceLimitError, match="^m = 4000, n = 2, x = 4001 needs"):
        recursive_prob(4000, 2, 4001)
    assert built == []
    # depth 1 reads no row, only row 0, whatever m: 4,000 of each label
    want = Fraction(comb(8000, 4000), 1 << 8000)
    assert base_case_prob(4000, 4001).as_fraction() == want
    assert built == [0]
    # a table at the cap is built, the next larger one is refused
    cap = fraud._table_bytes(17)
    tree = expected_max_tree(6)
    assert tree.rounds == 6
    assert recursive_prob(1, 6, 32) == tree.cdf.prob_below(32)
    with pytest.raises(ResourceLimitError, match="^n = 7 needs about 0 MiB"):
        expected_max_tree(7)
    with pytest.raises(ResourceLimitError, match="^m = 2, n = 6, x = 18 needs"):
        recursive_prob(2, 6, 18)
    cap = resource.RLIM_INFINITY
    assert expected_max_tree(7).rounds == 7
    assert built == [0, 16, 16, 32]


# -- brute force --------------------------------------------------------------------


def max_occurrence_oracle(walks, labeling_bits: int) -> int:
    """Per-walk oracle: one integer key per walk, counted in a dict."""
    counts: dict[int, int] = {}
    best = 0
    for w in walks:
        key = 0
        for v in w:
            key = (key << 1) | ((labeling_bits >> v) & 1)
        c = counts.get(key, 0) + 1
        counts[key] = c
        if c > best:
            best = c
    return best


def assert_scorer_matches_oracle(monkeypatch, g, start, n, labelings):
    # each path of the scorer's switch, forced in turn
    walks = walks_from(g, start, n + 1)
    for gathers in SCORER_PATHS.values():
        monkeypatch.setattr(walks_module, "_gathers", gathers)
        score = fraud._scores(g, start, n, Limits())
        for bits in labelings:
            assert score(bits) == max_occurrence_oracle(walks, bits), (walks, bits)
    return len(walks)


def test_scorer_matches_oracle_on_random_graphs(monkeypatch):
    rng = random.Random(61)
    walk_counts = Counter()
    for _ in range(400):
        g = random_binary_graph(rng)
        start = rng.randrange(g.vertex_count)
        n = rng.randint(1, 5)
        nv = g.vertex_count
        labelings = [0, (1 << nv) - 1] + [rng.getrandbits(nv) for _ in range(20)]
        if not walks_from(g, start, n + 1):
            want = f"^no walk of {n + 1} vertices starts at vertex {start}$"
            with pytest.raises(GraphError, match=want):
                brute_force_expected_max(g, start, n)
            walk_counts[0] += 1
            continue
        walk_counts[min(assert_scorer_matches_oracle(monkeypatch, g, start, n,
                                                     labelings), 2)] += 1
    # dead ends (no full walk, refused), a single walk, and more
    assert walk_counts[0] and walk_counts[1] and walk_counts[2]


@pytest.mark.parametrize("g, n", [(make_tree(n), n) for n in range(1, 7)]
                         + [(make_poulidor(n), n) for n in range(2, 9)])
def test_scorer_matches_oracle_on_protocol_graphs(monkeypatch, g, n):
    rng = random.Random(n)
    nv = g.vertex_count
    labelings = [0, (1 << nv) - 1] + [rng.getrandbits(nv) for _ in range(200)]
    assert_scorer_matches_oracle(monkeypatch, g, 0, n, labelings)


def test_brute_force_equals_the_sum_over_every_labeling():
    # brute force scores the labelings whose top vertex reads 0; the oracle
    # scores all 2**V of them
    rng = random.Random(67)
    checked = 0
    for _ in range(200):
        g = random_binary_graph(rng, max_vertices=8)
        start = rng.randrange(g.vertex_count)
        n = rng.randint(1, 4)
        walks = walks_from(g, start, n + 1)
        if not walks:
            continue
        nv = g.vertex_count
        total = sum(max_occurrence_oracle(walks, bits) for bits in range(1 << nv))
        assert brute_force_expected_max(g, start, n) == Fraction(total, 1 << nv)
        checked += 1
    assert checked > 100


def test_brute_force_smallest_tree():
    assert brute_force_expected_max(make_tree(1), 0, 1) == Fraction(3, 2)


def test_brute_force_ignores_existing_labels():
    a = brute_force_expected_max(make_tree(2), 0, 2)
    b = brute_force_expected_max(make_tree(2, seed=9), 0, 2)
    assert a == b


def test_brute_force_poulidor_value():
    # 8 vertices, 256 labelings; frozen from an independent enumeration
    assert brute_force_expected_max(make_poulidor(4), 0, 4) == Fraction(343, 64)


def test_brute_force_vertex_limit():
    with pytest.raises(ResourceLimitError, match="31 vertices"):
        brute_force_expected_max(make_tree(4), 0, 4)


def test_brute_force_rejects_zero_rounds():
    with pytest.raises(ValueError):
        brute_force_expected_max(make_tree(1), 0, 0)


# -- Monte Carlo ---------------------------------------------------------------------


def test_monte_carlo_deterministic():
    g = make_tree(2)
    a = monte_carlo_expected_max(g, 0, 2, samples=2000, seed=5)
    b = monte_carlo_expected_max(g, 0, 2, samples=2000, seed=5)
    assert a == b
    c = monte_carlo_expected_max(g, 0, 2, samples=2000, seed=6)
    assert c.expected_max != a.expected_max


def test_monte_carlo_brackets_exact_value():
    report = monte_carlo_expected_max(make_tree(1), 0, 1, samples=20000, seed=31)
    exact = Fraction(3, 4)
    assert abs(float(report.success_probability) - float(exact)) <= 4 * report.std_error
    report = monte_carlo_expected_max(make_tree(2), 0, 2, samples=20000, seed=32)
    assert abs(float(report.success_probability) - 9 / 16) <= 4 * report.std_error


def test_monte_carlo_report_fields():
    report = monte_carlo_expected_max(make_poulidor(2), 0, 2, samples=100, seed=1)
    assert report.method == "monte-carlo"
    assert report.samples == 100 and report.seed == 1
    assert report.std_error > 0
    data = report.to_json_dict()
    assert set(data) >= {"method", "rounds", "expected_max", "success_probability",
                         "samples", "seed", "std_error"}


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(ValueError):
        monte_carlo_expected_max(make_tree(1), 0, 1, samples=0, seed=0)


# -- report wrapper -------------------------------------------------------------------


def test_report_exact_value():
    report = distance_fraud_probability(Fraction(3, 2), 1, "exact-dp")
    assert float(report.success_probability) == 0.75
    data = report.to_json_dict()
    assert data["success_probability"]["log2_denominator"] == 2


def test_report_bounds_enforced():
    with pytest.raises(MfskitError, match="outside"):
        distance_fraud_probability(Fraction(1, 8), 2, "exact-dp")
    with pytest.raises(MfskitError, match="outside"):
        distance_fraud_probability(Fraction(9, 2), 2, "exact-dp")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_success_probability_respects_lower_bound(n):
    result = expected_max_tree(n)
    report = distance_fraud_probability(result.expected_max, n, "exact-dp")
    assert report.success_probability >= Fraction(1, 2**n)
    assert report.success_probability <= 1
