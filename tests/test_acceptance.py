"""Acceptance suite: one test per shipping criterion, in order.

Each test prints a single `[acceptance] <name>: PASS` line on success (run
with `pytest -s` to see them live); a pytest failure is the FAIL line.
Every tolerance is stated inline.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from mfskit import (
    DyadicProbability,
    ProtocolConfig,
    ResourceLimitError,
    base_case_prob,
    brute_force_expected_max,
    complementary_sibling_labeling,
    early_reply,
    enumerate_walk_sequences,
    estimate_success_rate,
    exhaustive_challenge_success,
    expected_max_tree,
    extract_assignment,
    make_generalized_tree,
    make_poulidor,
    make_tree,
    monte_carlo_expected_max,
    most_frequent_sequence,
    occ_count,
    reduce_sat_to_mfs,
    satisfies,
    brute_force_sat,
    check_maximal_walks,
)
from conftest import EXAMPLE_POULIDOR_LABELS, EXAMPLE_TREE_LABELS, random_cnf


def _pass(name: str):
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def cnf_corpus():
    rng = random.Random(0xC0FFEE)
    return [random_cnf(rng, max_vars=6, max_clauses=6) for _ in range(100)]


def test_tree_worked_example():
    t0 = time.perf_counter()
    g = make_tree(3, EXAMPLE_TREE_LABELS)
    result = most_frequent_sequence(g, 0, 4)
    elapsed = time.perf_counter() - t0
    assert result.sequence_str == "0010"
    assert result.count == 3
    assert elapsed < 1.0
    _pass("tree example: most frequent length-4 sequence is 0010 x3")


def test_poulidor_worked_example():
    t0 = time.perf_counter()
    g = make_poulidor(4, EXAMPLE_POULIDOR_LABELS)
    assert occ_count(g, 0, "0101") == 4
    result = most_frequent_sequence(g, 0, 4)
    elapsed = time.perf_counter() - t0
    assert result.count == 4
    assert occ_count(g, 0, "0101") == result.count
    assert elapsed < 1.0
    _pass("poulidor example: 0101 occurs 4 times and attains the maximum")


def test_early_reply_success_on_worked_labeling():
    g = make_tree(3, EXAMPLE_TREE_LABELS)
    accepted, total = exhaustive_challenge_success(g, 0, 3)
    assert (accepted, total) == (3, 8)
    _pass("early-reply on the example labeling wins exactly 3 of 8 challenges")


def test_exact_recursion_equals_brute_force():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        exact = expected_max_tree(n).expected_max
        brute = brute_force_expected_max(make_tree(n), 0, n)
        assert exact == brute, (n, exact, brute)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass("exact recursion equals full labeling enumeration for n = 1, 2, 3")


def test_depth_one_table_matches_enumeration():
    from mfskit.walks import walks_from

    for m in range(7):
        g = make_generalized_tree(m, 1)
        walks = [w for w in walks_from(g, 0, 2) if len(w) == 2]
        nv = g.vertex_count
        dist = Counter()
        for bits in range(1 << max(nv - 1, 0)):
            lab = bits << 1  # root label fixed; it shifts every sequence alike
            best = 0
            counts = {}
            for w in walks:
                key = tuple((lab >> v) & 1 for v in w)
                counts[key] = counts.get(key, 0) + 1
                best = max(best, counts[key])
            dist[best] += 1
        total = sum(dist.values())
        for x in range(1, 2 * m + 3):
            expected = Fraction(sum(c for v, c in dist.items() if v < x), total)
            assert base_case_prob(m, x).as_fraction() == expected, (m, x)
    # corrected boundary conditions, explicitly
    assert base_case_prob(0, 1) == DyadicProbability(1)
    for m in range(1, 7):
        for x in range(1, m + 1):
            assert base_case_prob(m, x) == DyadicProbability(0)
    _pass("depth-1 probability table matches enumeration for m <= 6")


def test_sat_equivalence_on_corpus(cnf_corpus, example_formula):
    t0 = time.perf_counter()
    for f in [example_formula] + cnf_corpus:
        r = reduce_sat_to_mfs(f)
        result = most_frequent_sequence(r.graph, 0, r.params.target_length)
        witness = brute_force_sat(f)
        assert (result.count == f.clause_count) == (witness is not None), f
        if witness is not None:
            assignment = extract_assignment(r, result.sequence)
            assert satisfies(f, assignment), (f, assignment)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass("satisfiability equivalence holds on the example and 100 random CNFs")


def test_walk_lengths_and_ceiling_on_corpus(cnf_corpus, example_formula):
    for f in [example_formula] + cnf_corpus:
        r = reduce_sat_to_mfs(f)
        verdict = check_maximal_walks(r)
        assert verdict.ok, verdict.offenders
        seqs = enumerate_walk_sequences(r.graph, 0, r.params.target_length)
        assert all(mult <= f.clause_count for mult in seqs.values()), f
    _pass("maximal-walk lengths and the occurrence ceiling hold on the corpus")


def test_simulation_bridges_to_analysis():
    trials = 100_000
    for n in (2, 3, 4):
        exact = float(expected_max_tree(n).expected_max) / 2**n
        config = ProtocolConfig(
            graph=make_tree(n), start=0, rounds=n, trials=trials, seed=1000 + n
        )
        report = estimate_success_rate(config, early_reply())
        assert abs(report.rate - exact) <= 4 * report.std_error, (n, report.rate, exact)
    brute = float(brute_force_expected_max(make_poulidor(4), 0, 4)) / 16
    config = ProtocolConfig(
        graph=make_poulidor(4), start=0, rounds=4, trials=trials, seed=77
    )
    report = estimate_success_rate(config, early_reply())
    assert abs(report.rate - brute) <= 4 * report.std_error
    _pass("simulated early-reply rates bracket the analytic values (4 sigma)")


def test_lower_bound_everywhere():
    for n in range(1, 9):
        success = Fraction(expected_max_tree(n).expected_max, 2**n)
        assert success >= Fraction(1, 2**n)
    for n in (1, 2, 3):
        success = Fraction(brute_force_expected_max(make_tree(n), 0, n), 2**n)
        assert success >= Fraction(1, 2**n)
    success = Fraction(brute_force_expected_max(make_poulidor(4), 0, 4), 16)
    assert success >= Fraction(1, 16)
    for n in (2, 3):
        report = monte_carlo_expected_max(make_tree(n), 0, n, samples=5000, seed=n)
        assert report.success_probability >= Fraction(1, 2**n)
    _pass("every computed success probability respects the 1/2^n floor")


def test_performance_envelope():
    t0 = time.perf_counter()
    result = expected_max_tree(10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"n=10 exact sweep took {elapsed:.1f}s"
    assert 0 < float(result.expected_max) / 2**10 < 1
    # the naive path the recursion replaces: 2**31 labelings, refused
    with pytest.raises(ResourceLimitError):
        brute_force_expected_max(make_tree(4), 0, 4)
    _pass(f"exact sweep finishes n=10 in {elapsed:.1f}s; naive n=4 brute "
          "force is refused by default")


def test_cdf_properties_and_complementary_labeling():
    for n in range(1, 9):
        cdf = expected_max_tree(n).cdf
        assert cdf.prob_below(1) == DyadicProbability(0)
        assert cdf.prob_below(2**n + 1) == DyadicProbability(1)
        assert all(
            cdf.values[i].as_fraction() <= cdf.values[i + 1].as_fraction()
            for i in range(len(cdf.values) - 1)
        )
    for depth in range(1, 9):
        g = complementary_sibling_labeling(make_tree(depth), seed=depth)
        assert most_frequent_sequence(g, 0, depth + 1).count == 1
    _pass("CDF tables are monotone with 0/1 endpoints; complementary "
          "labeling pins the maximum occurrence at 1")
