"""The per-config scorer answers early-reply sessions exactly as the
most-frequent-sequence solver does, on either side of its switch, and
refuses at the same point."""

import pickle
import random

import pytest

from conftest import SCORER_PATHS, random_binary_graph
from mfskit import (
    LabeledDigraph,
    Limits,
    ProtocolConfig,
    ProtocolError,
    count_walks,
    early_reply,
    estimate_success_rate,
    label_graph_from_prf,
    make_poulidor,
    make_tree,
    most_frequent_sequence,
    run_session,
)
from mfskit import protocol, walks
from mfskit.errors import ResourceLimitError

LIMITS = Limits()


def _nonces(rng):
    return tuple(rng.getrandbits(64).to_bytes(8, "big") for _ in range(2))


def _oracle(labeled, start, rounds):
    return most_frequent_sequence(labeled, start, rounds + 1).sequence[1:]


def _random_labels(structure, alphabet, rng):
    """A labeling that keeps the structure: equal, not identical, out-edges."""
    labels = [rng.choice(alphabet) for _ in structure.labels]
    labeled = LabeledDigraph(alphabet, labels, structure.out_edges)
    assert labeled.out_edges is not structure.out_edges
    return labeled


def _plan_cases():
    rng = random.Random(81)
    for n in range(1, 7):
        yield make_tree(n), 0, n
    for n in range(2, 9):
        yield make_poulidor(n), 0, n
    for _ in range(300):
        g = random_binary_graph(rng, max_vertices=9)
        yield g, rng.randrange(g.vertex_count), rng.randint(1, 4)


def test_plan_replies_match_oracle(monkeypatch):
    rng = random.Random(5)
    seen = {"no-walk": 0, "tie": 0, "custom": 0, "prf": 0}
    for graph, start, rounds in _plan_cases():
        labelings = [("prf", label_graph_from_prf(graph, b"key", *_nonces(rng)))
                     for _ in range(6)]
        labelings += [("custom", _random_labels(graph, alphabet, rng))
                      for alphabet in [("0", "1"), ("a", "b", "c")] for _ in range(3)]
        for path, gathers in SCORER_PATHS.items():
            monkeypatch.setattr(walks, "_gathers", gathers)
            config = ProtocolConfig(graph=graph, start=start, rounds=rounds)
            scorer = config.scorer
            # a walk list is kept on the gather side for every case but the
            # walk-free ones
            assert (scorer.keys is not None) == (path == "gather" and scorer.walks > 0)
            for kind, labeled in labelings:
                assert scorer.fits(labeled)
                want = _oracle(labeled, start, rounds)
                assert protocol._replies_for(early_reply(), labeled, config, LIMITS) == want
                seen[kind] += 1
                seen["no-walk"] += scorer.walks == 0
                ties = most_frequent_sequence(labeled, start, rounds + 1).tie_count
                seen["tie"] += ties > 1
    assert all(seen.values()), seen


def _transcript_replies(config, trials):
    for t in range(trials):
        transcript = run_session(config, early_reply(), trial_index=t)
        labeled = config.labeler(
            config.graph, config.key,
            bytes.fromhex(transcript.verifier_nonce),
            bytes.fromhex(transcript.prover_nonce),
        )
        yield labeled, tuple(r.response for r in transcript.rounds)


@pytest.mark.parametrize("graph, rounds", [(make_tree(4), 4), (make_poulidor(6), 6)],
                         ids=["tree", "poulidor"])
def test_sessions_reply_with_the_oracle(graph, rounds):
    config = ProtocolConfig(graph=graph, start=0, rounds=rounds, seed=7)
    for labeled, replies in _transcript_replies(config, 200):
        assert config.scorer.fits(labeled)
        assert replies == _oracle(labeled, 0, rounds)


def _reversed_edges(structure, key, verifier_nonce, prover_nonce):
    """Labels from the keyed stream on a structure with every out-edge
    list reversed."""
    labeled = label_graph_from_prf(structure, key, verifier_nonce, prover_nonce)
    return LabeledDigraph(
        labeled.alphabet, labeled.labels,
        tuple(row[::-1] for row in labeled.out_edges),
        tuple(row[::-1] for row in labeled.edge_labels),
    )


def _long_symbols(structure, key, verifier_nonce, prover_nonce):
    labeled = label_graph_from_prf(structure, key, verifier_nonce, prover_nonce)
    return LabeledDigraph(("x0", "x1"), tuple("x" + s for s in labeled.labels),
                          structure.out_edges, labeled.edge_labels)


def _int_symbols(structure, key, verifier_nonce, prover_nonce):
    labeled = label_graph_from_prf(structure, key, verifier_nonce, prover_nonce)
    return LabeledDigraph((0, 1), tuple(int(s) for s in labeled.labels),
                          structure.out_edges, labeled.edge_labels)


def _count_solves(monkeypatch):
    solved = []

    def counting(*args, **kwargs):
        solved.append(args[0])
        return most_frequent_sequence(*args, **kwargs)

    monkeypatch.setattr(walks, "most_frequent_sequence", counting)
    return solved


@pytest.mark.parametrize("labeler", [_reversed_edges, _long_symbols, _int_symbols],
                         ids=["edges-changed", "multi-char", "int-symbols"])
def test_labelings_outside_the_plan_use_the_solver(monkeypatch, labeler):
    solved = _count_solves(monkeypatch)
    config = ProtocolConfig(graph=make_poulidor(5), start=0, rounds=5, trials=60,
                            seed=2, labeler=labeler)
    for labeled, replies in _transcript_replies(config, 60):
        assert not config.scorer.fits(labeled)
        assert replies == _oracle(labeled, 0, 5)
    assert len(solved) == 60
    estimate_success_rate(config, early_reply())
    assert len(solved) == 120


# -- labelings for which the solver checks candidate sequences ---------

def _one_symbol(structure, key, verifier_nonce, prover_nonce):
    # the refusal checks the single candidate sequence, not the walks
    labeled = label_graph_from_prf(structure, key, verifier_nonce, prover_nonce)
    return LabeledDigraph(("0",), ("0",) * structure.vertex_count,
                          structure.out_edges, labeled.edge_labels)


# every vertex has three out-edges; challenges steer along the first two
# (edge labels that a graph file could not hold), and the third adds the
# walks that make the refusal check the 2**k binary candidate sequences
WIDE = LabeledDigraph._unchecked(
    ("0", "1"), ("0",) * 4, ((1, 2, 3),) * 4, (("0", "1", "1"),) * 4, None
)


def _binary(structure, key, verifier_nonce, prover_nonce):
    bits = int.from_bytes(verifier_nonce + prover_nonce, "big")
    labels = tuple(str(bits >> v & 1) for v in range(structure.vertex_count))
    return LabeledDigraph._unchecked(("0", "1"), labels, structure.out_edges,
                                     structure.edge_labels, None)


@pytest.mark.parametrize("graph, rounds, labeler",
                         [(make_poulidor(5), 5, _one_symbol), (WIDE, 3, _binary)],
                         ids=["one-symbol", "out-degree-3"])
def test_seq_mode_labelings_stay_on_the_plan(monkeypatch, graph, rounds, labeler):
    solved = _count_solves(monkeypatch)
    config = ProtocolConfig(graph=graph, start=0, rounds=rounds, trials=60,
                            seed=2, labeler=labeler)
    for labeled, replies in _transcript_replies(config, 60):
        total = count_walks(labeled, 0, rounds + 1)
        assert total > len(labeled.alphabet) ** (rounds + 1)  # the candidates are checked
        assert config.scorer.fits(labeled)
        assert replies == _oracle(labeled, 0, rounds)
    estimate_success_rate(config, early_reply())
    assert solved == []


def test_seq_mode_refusal_matches_the_solver():
    rounds = 3
    config = ProtocolConfig(graph=WIDE, start=0, rounds=rounds, trials=5,
                            labeler=_binary)
    limits = Limits(max_sequences=2 ** (rounds + 1) - 1)
    labeled = _binary(WIDE, config.key, b"v", b"p")
    want = _error(lambda: most_frequent_sequence(labeled, 0, rounds + 1,
                                                 limits=limits))
    assert want == (ResourceLimitError,
                    "2^4 candidate sequences exceed the limit 15")
    assert _error(lambda: run_session(config, early_reply(), limits=limits)) == want
    assert _error(lambda: estimate_success_rate(config, early_reply(),
                                                limits=limits)) == want


def test_walk_lists_over_the_cap_use_the_solver(monkeypatch):
    monkeypatch.setattr(walks, "_gathers", SCORER_PATHS["search"])
    config = ProtocolConfig(graph=make_tree(4), start=0, rounds=4, seed=3)
    assert config.scorer.keys is None

    def refuse(*args):
        raise AssertionError("walks listed")

    monkeypatch.setattr(walks, "walks_from", refuse)
    for labeled, replies in _transcript_replies(config, 50):
        assert config.scorer.fits(labeled)
        assert replies == _oracle(labeled, 0, 4)


def test_the_switch_follows_the_frontier_states():
    # trees gather; a ring gathers up to n = 7 and searches from n = 8
    assert ProtocolConfig(graph=make_tree(10), start=0, rounds=10).scorer.keys
    for n, gathers in [(6, True), (7, True), (8, False), (12, False)]:
        scorer = ProtocolConfig(graph=make_poulidor(n), start=0, rounds=n).scorer
        assert (scorer.keys is not None) == gathers, n
    assert walks._gathers(1 << 16, 1 << 15) and not walks._gathers((1 << 16) + 1, 1 << 20)
    assert not walks._gathers(0, 1)


def test_config_pickles_after_sessions():
    config = ProtocolConfig(graph=make_poulidor(4), start=0, rounds=4, trials=50)
    report = estimate_success_rate(config, early_reply())
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    assert estimate_success_rate(copy, early_reply()) == report


# -- the verifier walk refuses before the walk limit ------------------

# vertex 2 leads to the dead end 5 before the third round; four full walks
DEAD_END = LabeledDigraph(
    ("0", "1"), ("0",) * 6, ((1, 2), (3, 4), (5,), (0, 1), (0, 1), ())
)


def _error(fn):
    try:
        fn()
    except (ProtocolError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return None


def test_dead_end_refused_before_walk_limit():
    config = ProtocolConfig(graph=DEAD_END, start=0, rounds=3, trials=40, seed=1)
    limits = Limits(max_walks=3)
    over = (ResourceLimitError, "4 walks of 4 vertices exceed the limit 3")
    kinds = set()
    for t in range(config.trials):
        # a trial whose verifier walk completes meets the walk limit instead
        unlimited = _error(lambda: run_session(config, early_reply(), trial_index=t))
        limited = _error(lambda: run_session(config, early_reply(), trial_index=t,
                                             limits=limits))
        assert limited == (unlimited or over)
        kinds.add(limited[0])
    assert kinds == {ProtocolError, ResourceLimitError}
    first = _error(lambda: run_session(config, early_reply(), limits=limits))
    rate = _error(lambda: estimate_success_rate(config, early_reply(), limits=limits))
    assert rate == first
