import random
from collections import Counter
from itertools import product

import pytest

from mfskit import (
    CnfFormula,
    GraphError,
    LabeledDigraph,
    LabelingConflictError,
    Limits,
    MfsResult,
    ResourceLimitError,
    complementary_sibling_labeling,
    count_walks,
    enumerate_walk_sequences,
    make_generalized_tree,
    make_poulidor,
    make_tree,
    most_frequent_sequence,
    occ_count,
    reduce_sat_to_mfs,
)
from mfskit import walks
from conftest import SCORER_PATHS, random_binary_graph

# the binary alphabet, then three symbols declared out of order, with "10"
# next to "1" so that the tie-break must compare whole symbols
ALPHABETS = (None, ("1", "10", "0"))


# -- occurrence counting -------------------------------------------------------


def test_tree_example_occurrence(example_tree):
    assert occ_count(example_tree, 0, "0010") == 3


def test_poulidor_example_occurrence(example_poulidor):
    assert occ_count(example_poulidor, 0, "0101") == 4


def test_first_symbol_mismatch_is_zero(example_tree):
    assert occ_count(example_tree, 0, "1") == 0
    assert occ_count(example_tree, 0, "1111") == 0


def test_occ_rejects_bad_inputs(example_tree):
    with pytest.raises(GraphError, match="out of range"):
        occ_count(example_tree, 99, "0")
    with pytest.raises(GraphError, match="symbol 'x'"):
        occ_count(example_tree, 0, ("x",))
    with pytest.raises(GraphError, match="length >= 1"):
        occ_count(example_tree, 0, ())


# -- walk enumeration ----------------------------------------------------------


def test_tree_walk_multiset(example_tree):
    seqs = enumerate_walk_sequences(example_tree, 0, 4)
    assert sum(seqs.values()) == 8
    assert max(seqs.values()) == 3


def test_single_vertex_multiset():
    g = LabeledDigraph(("0", "1"), ("0",), ((),))
    assert enumerate_walk_sequences(g, 0, 1) == Counter({("0",): 1})


def test_poulidor_walk_multiset(example_poulidor):
    # out-degree 2 everywhere: 2**(k-1) walks of k vertices
    seqs = enumerate_walk_sequences(example_poulidor, 0, 4)
    assert sum(seqs.values()) == 8
    assert seqs[("0", "1", "0", "1")] == 4


def test_enumeration_explosion_limit(example_tree):
    with pytest.raises(ResourceLimitError, match="exceed the limit"):
        enumerate_walk_sequences(example_tree, 0, 4, limits=Limits(max_walks=7))


def test_enumeration_matches_occ_on_random_graphs():
    rng = random.Random(1411)
    for alphabet in ALPHABETS:
        for _ in range(150):
            g = random_binary_graph(rng, alphabet=alphabet)
            start = rng.randrange(g.vertex_count)
            k = rng.randint(1, 6)
            seqs = enumerate_walk_sequences(g, start, k)
            # multiplicity of every realized sequence equals its occurrence count
            for seq, mult in seqs.items():
                assert mult == occ_count(g, start, seq)
            # conservation: multiplicities sum to the label-blind walk count
            assert sum(seqs.values()) == count_walks(g, start, k)
            # absent sequences occur zero times
            for seq in product(g.alphabet, repeat=min(k, 4)):
                if len(seq) == k and seq not in seqs:
                    assert occ_count(g, start, seq) == 0


def test_occurrence_bounded_by_out_degree_power():
    rng = random.Random(99)
    for _ in range(60):
        g = random_binary_graph(rng)
        start = rng.randrange(g.vertex_count)
        k = rng.randint(1, 5)
        maxdeg = max((g.out_degree(v) for v in range(g.vertex_count)), default=0)
        for seq in product("01", repeat=k):
            assert occ_count(g, start, seq) <= max(1, maxdeg) ** (k - 1)


# -- most frequent sequence ------------------------------------------------------


def test_tree_example_mfs(example_tree):
    result = most_frequent_sequence(example_tree, 0, 4)
    assert result.sequence_str == "0010"
    assert result.count == 3


def test_poulidor_example_mfs(example_poulidor):
    result = most_frequent_sequence(example_poulidor, 0, 4)
    assert result.count == 4
    assert occ_count(example_poulidor, 0, "0101") == result.count


def test_unique_walk_path_graph():
    g = LabeledDigraph(("0", "1"), ("0", "1", "0"), ((1,), (2,), ()))
    result = most_frequent_sequence(g, 0, 3)
    assert result.sequence_str == "010"
    assert result.count == 1
    assert result.tie_count == 1


def test_mfs_count_is_maximal():
    rng = random.Random(77)
    for alphabet in ALPHABETS:
        for _ in range(40):
            g = random_binary_graph(rng, max_vertices=8, alphabet=alphabet)
            start = rng.randrange(g.vertex_count)
            k = rng.randint(1, 6)
            result = most_frequent_sequence(g, start, k)
            occs = {seq: occ_count(g, start, seq)
                    for seq in product(g.alphabet, repeat=k)}
            assert result.count == max(occs.values())
            assert occs[result.sequence] == result.count
            maximizers = [s for s, c in occs.items() if c == result.count]
            assert result.tie_count == len(maximizers)
            assert result.sequence == min(maximizers)


def test_search_walks_forward_once(monkeypatch):
    passes, counts = [], []
    frontiers, counted = walks._frontiers, walks.count_walks
    monkeypatch.setattr(walks, "_frontiers", lambda *a: passes.append(a) or frontiers(*a))
    monkeypatch.setattr(walks, "count_walks", lambda *a: counts.append(a) or counted(*a))
    rng = random.Random(31)
    for alphabet in ALPHABETS:
        for _ in range(20):
            g = random_binary_graph(rng, alphabet=alphabet)
            start = rng.randrange(g.vertex_count)
            k = rng.randint(1, 8)
            for search in (most_frequent_sequence, enumerate_walk_sequences):
                passes.clear()
                search(g, start, k)
                assert passes == [(g, start, k)]
                assert counts == []


def test_no_full_length_walks():
    # 2-vertex path: no walk of 4 vertices exists, every sequence occurs 0 times
    g = LabeledDigraph(("0", "1"), ("0", "1"), ((1,), ()))
    result = most_frequent_sequence(g, 0, 4)
    assert result.count == 0
    assert result.sequence_str == "0000"
    assert result.tie_count == 16


def _one_symbol(g):
    return LabeledDigraph(("0",), ("0",) * g.vertex_count, g.out_edges)


def test_mfs_walk_limit(example_tree):
    with pytest.raises(ResourceLimitError, match="8 walks of 4 vertices"):
        most_frequent_sequence(example_tree, 0, 4, limits=Limits(max_walks=7))
    # one candidate sequence is fewer than the 8 walks: only it is checked
    assert most_frequent_sequence(_one_symbol(example_tree), 0, 4,
                                  limits=Limits(max_walks=7)).count == 8


def test_mfs_sequence_limit():
    # 12 walks of 3 vertices, 8 candidate sequences
    g = make_generalized_tree(3, 2, seed=0)
    assert count_walks(g, 0, 3) == 12
    with pytest.raises(ResourceLimitError,
                       match=r"^2\^3 candidate sequences exceed the limit 4$"):
        most_frequent_sequence(g, 0, 3, limits=Limits(max_sequences=4))


def _refusal(call):
    try:
        call()
    except ResourceLimitError as exc:
        return str(exc)
    return None


def test_enumeration_and_solver_refuse_alike(example_tree):
    rng = random.Random(616)
    cases = [(_one_symbol(example_tree), 0, 4, Limits(max_walks=7))]
    for alphabet in ALPHABETS:
        for _ in range(60):
            g = random_binary_graph(rng, alphabet=alphabet)
            limits = Limits(max_walks=rng.randint(1, 8),
                            max_sequences=rng.randint(1, 30))
            cases.append((g, rng.randrange(g.vertex_count), rng.randint(1, 6), limits))
    # a root of 2m children: more walks than binary candidates once m > 2
    for m, n in product((2, 3, 4), (1, 2, 3)):
        g = make_generalized_tree(m, n, seed=m * n)
        for k in range(1, n + 2):
            limits = Limits(max_walks=rng.randint(1, 20),
                            max_sequences=rng.randint(1, 20))
            cases.append((g, 0, k, limits))
    refused = set()
    for g, start, k, limits in cases:
        want = _refusal(lambda: most_frequent_sequence(g, start, k, limits=limits))
        assert _refusal(lambda: enumerate_walk_sequences(g, start, k,
                                                         limits=limits)) == want
        refused.add(want and want.split()[1])
    assert refused == {None, "walks", "candidate"}


# -- the one scorer per structure --------------------------------------------------

def _scorer_cases(rng):
    def limits():
        if rng.getrandbits(1):
            return Limits()
        return Limits(max_walks=rng.randint(1, 40), max_sequences=rng.randint(1, 40))

    for n in range(1, 7):
        yield make_tree(n), 0, n + 1, limits()
    for n in range(2, 10):
        yield make_poulidor(n), 0, n + 1, limits()
    for m, n in product((1, 2, 3), (1, 2, 3)):
        yield make_generalized_tree(m, n), 0, n + 1, limits()
        # 3 * 2**(n-1) walks against 2**n binary candidates for m = 3
        yield make_generalized_tree(m, n), 0, n + 1, Limits(max_sequences=2**n)
    for _ in range(300):
        g = random_binary_graph(rng, max_vertices=9)
        yield g, rng.randrange(g.vertex_count), rng.randint(1, 6), limits()


def _attempt(call):
    try:
        return call()
    except (GraphError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def test_scorer_paths_agree(monkeypatch):
    rng = random.Random(83)
    seen = Counter()
    for g, start, k, limits in _scorer_cases(rng):
        nv = g.vertex_count
        bits = [0, (1 << nv) - 1] + [rng.getrandbits(nv) for _ in range(6)]
        labeled = [g.with_labels(tuple(format(b | 1 << nv, "b")[:0:-1])) for b in bits]
        labeled += [
            LabeledDigraph(("a", "b", "c"), tuple(rng.choice("abc") for _ in range(nv)),
                           g.out_edges),
            LabeledDigraph(("a",), ("a",) * nv, g.out_edges),  # one candidate
        ]
        default = walks.MfsScorer(g, start, k)
        if default.walks:
            seen["default-" + ("gather" if default.keys else "search")] += 1
        answers = {}
        for path, gathers in SCORER_PATHS.items():
            monkeypatch.setattr(walks, "_gathers", gathers)
            scorer = walks.MfsScorer(g, start, k)
            gathered = path == "gather" and scorer.walks > 0 and k > 1
            assert (scorer.keys is not None) == gathered
            assert all(map(scorer.fits, labeled))
            answers[path] = (
                _attempt(lambda: list(map(scorer.counter(limits), bits))),
                [_attempt(lambda: scorer.best(h, limits)) for h in labeled],
            )
        assert answers["gather"] == answers["search"]
        # both equal the solver on each labeled graph
        counts, best = answers["gather"]
        solved = [_attempt(lambda: most_frequent_sequence(h, start, k, limits=limits))
                  for h in labeled]
        assert best == [r.sequence if isinstance(r, MfsResult) else r for r in solved]
        binary = solved[:len(bits)]
        if not scorer.walks:
            want = (GraphError, f"no walk of {k} vertices starts at vertex {start}")
            kind = "no-walk"
        elif isinstance(binary[0], MfsResult):
            want, kind = [r.count for r in binary], "counted"
        else:  # refused by its walks or its candidate sequences
            want, kind = binary[0], binary[0][1].split()[1]
        assert counts == want
        seen[kind] += 1
        monkeypatch.undo()
    assert seen.keys() == {"default-gather", "default-search", "no-walk", "walks",
                           "candidate", "counted"} and all(seen.values()), seen


def test_mfs_rejects_bad_length(example_tree):
    # the forward pass checks the length once for the counter and both searches
    for call in (most_frequent_sequence, enumerate_walk_sequences, count_walks):
        with pytest.raises(GraphError, match=r"^walk length must be >= 1$"):
            call(example_tree, 0, 0)


# -- packed-slot tail against the plain prefix search ---------------------------


def _oracle_sequence_counts(g, start, k):
    """The prefix search without the packed tail: (sequence, occurrences)
    for every realized sequence, in ascending lexicographic order."""
    labels, out_edges = g.labels, g.out_edges
    if k == 1:
        yield (labels[start],), 1
        return
    stack = [((labels[start],), {start: 1})]
    while stack:
        prefix, counts = stack.pop()
        if len(prefix) == k - 1:
            occ = {}
            for v, c in counts.items():
                for w in out_edges[v]:
                    occ[labels[w]] = occ.get(labels[w], 0) + c
            for sym in sorted(occ):
                yield prefix + (sym,), occ[sym]
            continue
        split = walks.frontier_step(out_edges, counts, labels)
        for sym in sorted(split, reverse=True):
            stack.append((prefix + (sym,), split[sym]))


def _oracle_cases():
    """(graph, start, k) over every input family, k from 1 to past the tail."""
    rng = random.Random(4242)
    for _ in range(60):
        g = random_binary_graph(rng)
        yield g, rng.randrange(g.vertex_count), rng.randint(1, 13)
    for _ in range(40):
        # "2" is declared but labels no vertex
        g = random_binary_graph(rng)
        g = LabeledDigraph(("2", "1", "0"), g.labels, g.out_edges)
        yield g, rng.randrange(g.vertex_count), rng.randint(1, 9)
    for _ in range(30):
        g = random_binary_graph(rng, alphabet=("1", "10", "0"))
        yield g, rng.randrange(g.vertex_count), rng.randint(1, 9)
    for _ in range(20):
        g = random_binary_graph(rng, alphabet=("a",))
        yield g, rng.randrange(g.vertex_count), rng.randint(1, 12)
    for n in range(1, 8):
        g = make_tree(n, seed=n)
        for k in sorted({1, n, n + 1}):
            yield g, 0, k
    for n in (2, 3, 5, 8):
        g = make_poulidor(n, seed=n)
        for k in (1, 2, 9, 10, 12, 18):
            yield g, 0, k
    for _ in range(8):
        n = rng.randint(4, 8)
        clauses = []
        for _ in range(rng.randint(n, 4 * n)):
            variables = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.getrandbits(1) else -v for v in variables))
        r = reduce_sat_to_mfs(CnfFormula(n, tuple(clauses)))
        yield r.graph, 0, r.params.target_length
    # one symbol, out-degree 2: 2**39 and 2**69 walks
    ring = LabeledDigraph(("a",), ("a", "a"), ((0, 1), (1, 0)))
    yield ring, 0, 40
    yield ring, 1, 70


def test_packed_tail_matches_plain_prefix_search():
    seen = set()
    limits = Limits(max_walks=1 << 80)
    for g, start, k in _oracle_cases():
        want = list(_oracle_sequence_counts(g, start, k))
        assert [seq for seq, _ in want] == sorted(seq for seq, _ in want)
        got = enumerate_walk_sequences(g, start, k, limits=limits)
        assert list(got.items()) == want
        if want:
            top = max(occ for _, occ in want)
            maximizers = [seq for seq, occ in want if occ == top]
            expected = (maximizers[0], top, len(maximizers))
        else:
            seen.add("no full walk")
            expected = ((min(g.alphabet),) * k, 0, len(g.alphabet) ** k)
        result = most_frequent_sequence(g, start, k, limits=limits)
        assert (result.sequence, result.count, result.tie_count) == expected
        seen.add("tie" if expected[2] > 1 else "unique")
        if len(g.alphabet) == 1:
            seen.add("one symbol")
        if expected[1] > 1 << 64:
            seen.add("count above 2**64")
        if len(g.alphabet) ** (k - 1) > walks._SLOT_CAP:
            seen.add("past the slot cap")
    assert seen == {"no full walk", "tie", "unique", "one symbol",
                    "count above 2**64", "past the slot cap"}


# -- complementary sibling labeling ----------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
def test_complementary_labeling_makes_walks_unique(depth):
    g = complementary_sibling_labeling(make_tree(depth), seed=depth * 31)
    seqs = enumerate_walk_sequences(g, 0, depth + 1)
    assert sum(seqs.values()) == 2**depth
    assert set(seqs.values()) == {1}
    assert most_frequent_sequence(g, 0, depth + 1).count == 1


@pytest.mark.parametrize("g, message", [
    (LabeledDigraph(("a", "b"), ("a",), ((),)),
     "complementary labeling needs a binary alphabet"),
    (LabeledDigraph(("0", "1"), ("0",) * 4, ((1, 2, 3), (), (), ())),
     "vertex 0 has out-degree 3 > 2"),
], ids=["alphabet", "out-degree"])
def test_complementary_labeling_refusals(g, message):
    with pytest.raises(GraphError) as info:
        complementary_sibling_labeling(g, seed=0)
    assert str(info.value) == message


def test_single_vertex_gets_seed_first_bit():
    g = LabeledDigraph(("0", "1"), ("0",), ((),))
    for seed in (1, 2, 3, 4, 5):
        labeled = complementary_sibling_labeling(g, seed)
        assert labeled.labels[0] == str(random.Random(seed).getrandbits(1))


def test_depth_one_leaves_are_complementary():
    g = complementary_sibling_labeling(make_tree(1), seed=5)
    assert set(g.labels[1:]) == {"0", "1"}
    assert most_frequent_sequence(g, 0, 2).count == 1


def test_deterministic_given_seed():
    a = complementary_sibling_labeling(make_tree(4), seed=11)
    b = complementary_sibling_labeling(make_tree(4), seed=11)
    assert a.labels == b.labels


def test_conflicting_parents_detected():
    # parents 0,1,2 impose a!=b, b!=c, a!=c on children 3,4,5: odd cycle
    g = LabeledDigraph(
        ("0", "1"),
        ("0",) * 6,
        ((3, 4), (4, 5), (3, 5), (), (), ()),
    )
    with pytest.raises(LabelingConflictError):
        complementary_sibling_labeling(g, seed=0)


def test_twin_edges_to_same_child_detected():
    g = LabeledDigraph(("0", "1"), ("0", "0"), ((1, 1), ()))
    with pytest.raises(LabelingConflictError):
        complementary_sibling_labeling(g, seed=0)
