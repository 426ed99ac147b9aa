import hashlib
import itertools
import json
import random
from collections import Counter
from math import sqrt
from pathlib import Path

import pytest

from conftest import random_binary_graph

from mfskit import (
    LabeledDigraph,
    Limits,
    ProtocolConfig,
    ProtocolError,
    early_reply,
    estimate_success_rate,
    exhaustive_challenge_success,
    greedy_early_reply,
    honest,
    label_graph_from_prf,
    make_poulidor,
    make_tree,
    most_frequent_sequence,
    occ_count,
    run_session,
)
from mfskit.errors import ResourceLimitError
from mfskit.protocol import AdversaryStrategy, _replies_for, _session_accepts, prf_seed
from mfskit.walks import walks_from


# -- session labeling ------------------------------------------------------------


def _spec_bits(state, count):
    """At least `count` bits of the splitmix64 stream of `state`, from the
    module docstring alone: each 64-bit block least-significant bit first."""
    mask = (1 << 64) - 1
    state &= mask
    bits = []
    while len(bits) < count:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        bits.extend((z >> i) & 1 for i in range(64))
    return bits


def _spec_labeling(structure, key, verifier_nonce, prover_nonce):
    """The session labeling recomputed from the module docstring alone."""
    h = hashlib.blake2b(digest_size=8)
    for part in (key, verifier_nonce, prover_nonce):
        h.update(len(part).to_bytes(4, "big") + part)
    state = int.from_bytes(h.digest(), "big")
    n = structure.vertex_count
    bits = _spec_bits(state, 2 * n)  # n label bits and at most n edge bits
    labels = [str(b) for b in bits[:n]]
    edge_bits = iter(bits[n:])
    edge_labels = []
    for row in structure.out_edges:
        if len(row) == 2:
            edge_labels.append(("1", "0") if next(edge_bits) else ("0", "1"))
        else:
            edge_labels.append(("0",) * len(row))
    return LabeledDigraph(
        ("0", "1"), labels, structure.out_edges, edge_labels, structure.names
    )


@pytest.mark.parametrize(
    "structure",
    [
        make_tree(2),
        make_tree(6),  # 127 label bits + 63 edge bits: three splitmix64 blocks
        make_poulidor(6),
        make_poulidor(40),  # 80 edge bits: more than one block's worth
        LabeledDigraph(("0", "1"), ("0",) * 4, ((1, 2), (3,), (), (0, 1))),
        LabeledDigraph(("0", "1"), (), ()),
    ],
    ids=["tree2", "tree6", "poulidor6", "poulidor40", "degrees0-1-2", "empty"],
)
def test_labeling_matches_stream_spec(structure):
    for t in range(40):
        nonce = t.to_bytes(2, "big")
        expected = _spec_labeling(structure, b"key", nonce, b"np")
        assert label_graph_from_prf(structure, b"key", nonce, b"np") == expected


def test_prf_seed_is_hashlib_blake2b():
    key, verifier_nonce, prover_nonce = b"mfskit key", bytes(range(8)), b"\xff" * 3
    h = hashlib.blake2b(digest_size=8)
    for part in (key, verifier_nonce, prover_nonce):
        h.update(len(part).to_bytes(4, "big") + part)
    expected = int.from_bytes(h.digest(), "big")
    assert prf_seed(key, verifier_nonce, prover_nonce) == expected
    assert prf_seed(b"", b"", b"") == int.from_bytes(
        hashlib.blake2b(bytes(12), digest_size=8).digest(), "big")


def test_labeling_deterministic():
    g = make_tree(3)
    one = label_graph_from_prf(g, b"key", b"nv", b"np")
    two = label_graph_from_prf(g, b"key", b"nv", b"np")
    assert one == two
    other = label_graph_from_prf(g, b"key", b"nv2", b"np")
    assert one != other


def test_labeling_nonce_layout_is_unambiguous():
    g = make_tree(2)
    a = label_graph_from_prf(g, b"k", b"ab", b"c")
    b_ = label_graph_from_prf(g, b"k", b"a", b"bc")
    assert a != b_


def test_labeling_edge_labels_cover_both_bits():
    g = make_tree(3)
    labeled = label_graph_from_prf(g, b"key", b"x", b"y")
    for v in range(labeled.vertex_count):
        if labeled.out_degree(v) == 2:
            assert set(labeled.edge_labels[v]) == {"0", "1"}


def test_labeling_single_out_edge_gets_zero():
    g = LabeledDigraph(("0", "1"), ("0", "0"), ((1,), ()), (("0",), ()))
    labeled = label_graph_from_prf(g, b"key", b"x", b"y")
    assert labeled.edge_labels[0] == ("0",)


def test_labeling_rejects_high_out_degree():
    g = LabeledDigraph(("0", "1"), ("0",) * 4, ((1, 2, 3), (), (), ()))
    with pytest.raises(ProtocolError, match="out-degree 3"):
        label_graph_from_prf(g, b"key", b"x", b"y")


def test_vertex_labels_are_roughly_uniform():
    g = make_tree(2)
    trials = 20000
    ones = [0] * g.vertex_count
    for t in range(trials):
        nonce = t.to_bytes(4, "big")
        labeled = label_graph_from_prf(g, b"key", nonce, b"fixed")
        for v in range(g.vertex_count):
            ones[v] += labeled.labels[v] == "1"
    sigma = (0.25 / trials) ** 0.5
    for v, count in enumerate(ones):
        assert abs(count / trials - 0.5) <= 4 * sigma, f"vertex {v}: {count}"


# -- sessions ----------------------------------------------------------------------


def test_honest_always_accepts():
    for graph, rounds in ((make_tree(3), 3), (make_poulidor(3), 5)):
        config = ProtocolConfig(graph=graph, start=0, rounds=rounds, seed=2, trials=50)
        for t in range(50):
            transcript = run_session(config, honest(), trial_index=t)
            assert transcript.accepted
            assert transcript.failed_round is None
            assert all(r.response == r.expected for r in transcript.rounds)


@pytest.mark.parametrize("trials", [0, -5])
def test_config_needs_a_trial(trials):
    with pytest.raises(ValueError, match="need at least one trial"):
        ProtocolConfig(graph=make_tree(2), start=0, rounds=2, trials=trials)


@pytest.mark.parametrize("rounds", [0, -1])
def test_config_needs_a_round(rounds, example_tree):
    with pytest.raises(ValueError, match="need at least one round"):
        ProtocolConfig(graph=make_tree(2), start=0, rounds=rounds)
    with pytest.raises(ValueError, match="need at least one round"):
        exhaustive_challenge_success(example_tree, 0, rounds)


def test_transcript_json_shape():
    config = ProtocolConfig(graph=make_tree(2), start=0, rounds=2, seed=4)
    data = run_session(config, early_reply()).to_json_dict()
    assert set(data) == {
        "verifier_nonce", "prover_nonce", "rounds", "accepted", "failed_round",
    }
    assert len(data["rounds"]) == 2
    assert set(data["rounds"][0]) == {"challenge", "response", "expected", "timing_ok"}


def test_dead_end_walk_raises():
    g = LabeledDigraph(("0", "1"), ("0",), ((),), ((),))
    config = ProtocolConfig(graph=g, start=0, rounds=1)
    with pytest.raises(ProtocolError, match="dead-ends"):
        run_session(config, honest())


def test_fixed_replies_must_cover_rounds(example_tree):
    with pytest.raises(ValueError, match="^fixed replies cover 2 rounds, need 3$"):
        exhaustive_challenge_success(example_tree, 0, 3, replies="01")


# -- the worked example ------------------------------------------------------------


def test_tree_example_early_reply_success(example_tree):
    accepted, total = exhaustive_challenge_success(example_tree, 0, 3)
    assert (accepted, total) == (3, 8)


def test_tree_example_forced_replies(example_tree):
    # the best reply is the suffix of the most frequent length-4 sequence
    accepted, _ = exhaustive_challenge_success(example_tree, 0, 3, replies="010")
    assert accepted == 3
    worse, _ = exhaustive_challenge_success(example_tree, 0, 3, replies="111")
    assert worse < 3


def test_early_reply_is_optimal_among_fixed_replies():
    rng = random.Random(8)
    for structure, rounds in ((make_tree(3), 3), (make_poulidor(4), 4)):
        for _ in range(5):
            labels = tuple(str(rng.getrandbits(1)) for _ in range(structure.vertex_count))
            labeled = structure.with_labels(labels)
            best = most_frequent_sequence(labeled, 0, rounds + 1).count
            mfs_accept, total = exhaustive_challenge_success(labeled, 0, rounds)
            assert mfs_accept == best
            for replies in itertools.product("01", repeat=rounds):
                accepted, _ = exhaustive_challenge_success(
                    labeled, 0, rounds, replies=replies
                )
                assert accepted <= mfs_accept
                # accepted challenge strings = walks matching the reply suffix
                full = (labeled.labels[0],) + replies
                assert accepted == occ_count(labeled, 0, full)


def test_full_length_max_equals_suffix_max():
    # prepending the fixed start label loses nothing: the best full-length
    # sequence is the start label plus the best reply suffix
    rng = random.Random(9)
    structure = make_tree(3)
    for _ in range(10):
        labels = tuple(str(rng.getrandbits(1)) for _ in range(structure.vertex_count))
        labeled = structure.with_labels(labels)
        full_best = most_frequent_sequence(labeled, 0, 4).count
        suffix_best = max(
            occ_count(labeled, 0, (labeled.labels[0],) + suffix)
            for suffix in itertools.product("01", repeat=3)
        )
        assert full_best == suffix_best


# -- the trial stream --------------------------------------------------------------


def _spec_trial(seed, index, rounds):
    """A trial's nonces (as hex) and challenges from the module docstring alone."""
    bits = _spec_bits(seed ^ (index * 0xD1342543DE82EF95), 128 + rounds)

    def nonce(lo):
        value = sum(b << i for i, b in enumerate(bits[lo:lo + 64]))
        return value.to_bytes(8, "big").hex()

    return nonce(0), nonce(64), [str(b) for b in bits[128:128 + rounds]]


@pytest.mark.parametrize(
    "graph, rounds, seed, strategy",
    [
        (make_tree(3), 3, -7, early_reply()),
        (make_tree(3), 3, 2**64 + 5, early_reply()),
        # 70 challenge bits, 128..197: the third and fourth splitmix64 blocks
        (make_poulidor(35), 70, 11, honest()),
    ],
    ids=["negative-seed", "seed-past-2^64", "ring-70-rounds"],
)
def test_trial_stream_matches_spec(graph, rounds, seed, strategy):
    config = ProtocolConfig(graph=graph, start=0, rounds=rounds, seed=seed)
    for t in range(30):
        transcript = run_session(config, strategy, trial_index=t)
        drawn = (transcript.verifier_nonce, transcript.prover_nonce,
                 [r.challenge for r in transcript.rounds])
        assert drawn == _spec_trial(seed, t, rounds)


@pytest.mark.parametrize("fixture, rounds", [("example_tree", 3), ("example_poulidor", 4)],
                         ids=["example_tree", "example_poulidor"])
def test_challenges_are_uniform_on_a_fixed_labeling(request, fixture, rounds):
    # one labeling for every session: acceptance depends on the challenges only
    labeled = request.getfixturevalue(fixture)
    config = ProtocolConfig(graph=labeled, start=0, rounds=rounds, trials=20000,
                            seed=23, labeler=lambda *_: labeled)
    accepting, total = exhaustive_challenge_success(labeled, 0, rounds)
    p = accepting / total
    report = estimate_success_rate(config, early_reply())
    assert 0 < p < 1
    assert abs(report.rate - p) <= 4 * sqrt(p * (1 - p) / config.trials)


def test_trial_nonces_are_distinct(example_tree):
    config = ProtocolConfig(graph=example_tree, start=0, rounds=3, seed=1,
                            labeler=lambda *_: example_tree)
    transcripts = [run_session(config, honest(), trial_index=t) for t in range(10000)]
    assert len({t.verifier_nonce for t in transcripts}) == 10000
    assert len({t.prover_nonce for t in transcripts}) == 10000


# -- rate estimation ---------------------------------------------------------------


def test_estimate_deterministic_and_consistent_with_sessions():
    config = ProtocolConfig(graph=make_tree(2), start=0, rounds=2, trials=150, seed=10)
    strategy = early_reply()
    report = estimate_success_rate(config, strategy)
    again = estimate_success_rate(config, strategy)
    assert report == again
    accepted = sum(
        run_session(config, strategy, trial_index=t).accepted
        for t in range(config.trials)
    )
    assert accepted == report.accepted


DEAD_END = LabeledDigraph(("0", "1"), ("0",), ((),), ((),))


@pytest.mark.parametrize(
    "graph, rounds, strategy, limits, error, match",
    [
        (DEAD_END, 1, honest(), Limits(), ProtocolError, "dead-ends"),
        (make_tree(2), 2, early_reply(), Limits(max_walks=2, max_sequences=2),
         ResourceLimitError, None),
        # the labeler refuses before the walk limit is checked
        (LabeledDigraph(("0", "1"), ("0",) * 4, ((1, 2, 3), (0,), (0,), (0,))), 2,
         early_reply(), Limits(max_walks=1), ProtocolError,
         "^vertex 0 has out-degree 3; protocol graphs need <= 2$"),
    ],
    ids=["dead-end", "mfs-limit", "wide-vertex"],
)
def test_estimate_raises_like_run_session_despite_failed_timing(
    graph, rounds, strategy, limits, error, match
):
    config = ProtocolConfig(graph=graph, start=0, rounds=rounds)
    with pytest.raises(error, match=match):
        run_session(config, strategy, limits=limits)
    with pytest.raises(error, match=match):
        estimate_success_rate(config, strategy, limits=limits)


@pytest.mark.parametrize(
    "graph, rounds",
    [(make_tree(3), 3), (make_poulidor(4), 4)],
    ids=["tree", "poulidor"],
)
@pytest.mark.parametrize("strategy", [honest(), early_reply(), greedy_early_reply()],
                         ids=lambda s: s.kind)
def test_transcript_decision_matches_fast_path(graph, rounds, strategy):
    config = ProtocolConfig(graph=graph, start=0, rounds=rounds, trials=200, seed=21)
    limits = Limits()
    flags = [
        run_session(config, strategy, trial_index=t, limits=limits).accepted
        for t in range(config.trials)
    ]
    assert flags == [
        _session_accepts(config, strategy, t, limits) for t in range(config.trials)
    ]
    report = estimate_success_rate(config, strategy, limits=limits)
    assert sum(flags) == report.accepted


def test_honest_rate_is_one():
    config = ProtocolConfig(graph=make_poulidor(2), start=0, rounds=2, trials=300, seed=3)
    report = estimate_success_rate(config, honest())
    assert report.rate == 1.0
    assert report.std_error == 0.0


def test_early_reply_rate_brackets_exact_value():
    from mfskit import expected_max_tree

    exact = float(expected_max_tree(3).expected_max) / 8
    config = ProtocolConfig(graph=make_tree(3), start=0, rounds=3, trials=20000, seed=6)
    report = estimate_success_rate(config, early_reply())
    sigma = max(report.std_error, 1e-9)
    assert abs(report.rate - exact) <= 4 * sigma


def test_greedy_strategy_runs_and_is_not_better_than_exact_solver():
    config = ProtocolConfig(graph=make_tree(3), start=0, rounds=3, trials=4000, seed=12)
    greedy = estimate_success_rate(config, greedy_early_reply())
    optimal = estimate_success_rate(config, early_reply())
    noise = 4 * (greedy.std_error + optimal.std_error)
    assert greedy.rate <= optimal.rate + noise


def _greedy_oracle(labeled, start, rounds):
    """Greedy replies from whole walks: each round takes the symbol most
    walks reach after the replies so far, ties and dead ends to the
    smallest symbol."""
    replies = ()
    for level in range(1, rounds + 1):
        mass = Counter()
        for walk in walks_from(labeled, start, level + 1):
            seq = tuple(labeled.labels[v] for v in walk[1:])
            if seq[:-1] == replies:
                mass[seq[-1]] += 1
        replies += (min(labeled.alphabet, key=lambda s: (-mass[s], s)),)
    return replies


def _ternary(structure, key, verifier_nonce, prover_nonce):
    labeled = label_graph_from_prf(structure, key, verifier_nonce, prover_nonce)
    rng = random.Random(verifier_nonce + prover_nonce)
    labels = [rng.choice("cab") for _ in labeled.labels]
    return LabeledDigraph(("c", "a", "b"), labels, labeled.out_edges,
                          labeled.edge_labels)


def test_greedy_replies_match_per_level_oracle():
    rng = random.Random(17)
    for alphabet in [("0", "1"), ("b", "a", "c")]:
        for _ in range(200):
            g = random_binary_graph(rng, max_vertices=8, alphabet=alphabet)
            start, rounds = rng.randrange(g.vertex_count), rng.randint(1, 5)
            config = ProtocolConfig(graph=g, start=start, rounds=rounds)
            replies = _replies_for(greedy_early_reply(), g, config, Limits())
            assert replies == _greedy_oracle(g, start, rounds)
    config = ProtocolConfig(graph=make_poulidor(5), start=0, rounds=5, trials=100,
                            seed=4, labeler=_ternary)
    for t in range(config.trials):
        transcript = run_session(config, greedy_early_reply(), trial_index=t)
        labeled = _ternary(config.graph, config.key,
                           bytes.fromhex(transcript.verifier_nonce),
                           bytes.fromhex(transcript.prover_nonce))
        replies = tuple(r.response for r in transcript.rounds)
        assert replies == _greedy_oracle(labeled, 0, 5)


def test_strategy_kind_validated():
    with pytest.raises(ValueError, match="unknown strategy"):
        AdversaryStrategy("replay")


# -- golden transcripts replayed from their own records ----------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, structure, kind",
    [
        ("simulate_tree_n6_transcripts.jsonl", make_tree(6), "early-reply"),
        ("simulate_poulidor_n6_transcripts.jsonl", make_poulidor(6), "early-reply"),
        ("simulate_poulidor_n6_greedy_transcripts.jsonl", make_poulidor(6),
         "greedy-early-reply"),
    ],
    ids=["tree6", "poulidor6", "poulidor6-greedy"],
)
def test_golden_transcripts_replay_from_recorded_nonces_and_challenges(
    golden, structure, kind
):
    # each line is decided again from its recorded nonces and challenges
    # alone, so this holds whatever stream drew them
    lines = (GOLDEN / golden).read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        labeled = label_graph_from_prf(
            structure, b"shared-secret", bytes.fromhex(record["verifier_nonce"]),
            bytes.fromhex(record["prover_nonce"]))
        challenges = [r["challenge"] for r in record["rounds"]]
        rounds = len(challenges)
        expected, v = [], 0
        for c in challenges:  # the verifier's walk
            v = labeled.out_edges[v][labeled.edge_labels[v].index(c)]
            expected.append(labeled.labels[v])
        if kind == "early-reply":
            replies = most_frequent_sequence(labeled, 0, rounds + 1).sequence[1:]
        else:
            replies = _greedy_oracle(labeled, 0, rounds)
        assert [r["expected"] for r in record["rounds"]] == expected
        assert tuple(r["response"] for r in record["rounds"]) == replies
        failed = next((i for i, (r, e) in enumerate(zip(replies, expected), 1)
                       if r != e), None)
        assert (record["accepted"], record["failed_round"]) == (failed is None, failed)
