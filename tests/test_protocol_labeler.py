"""The session-labeling hook is replaceable; a rigged labeler makes the
early-reply adversary win every time."""

import pytest

from mfskit import (
    GraphError,
    LabeledDigraph,
    ProtocolConfig,
    early_reply,
    estimate_success_rate,
    honest,
    make_tree,
    run_session,
)
from mfskit.protocol import label_graph_from_prf


def constant_labeler(structure, key, verifier_nonce, prover_nonce):
    labeled = label_graph_from_prf(structure, key, verifier_nonce, prover_nonce)
    return labeled.with_labels(("0",) * structure.vertex_count)


def test_custom_labeler_is_used():
    config = ProtocolConfig(
        graph=make_tree(3), start=0, rounds=3, trials=64, seed=4,
        labeler=constant_labeler,
    )
    # all-zero labels: every walk realizes 0000, so early reply always wins
    report = estimate_success_rate(config, early_reply())
    assert report.rate == 1.0


def test_default_labeler_is_the_keyed_stream():
    config = ProtocolConfig(graph=make_tree(2), start=0, rounds=2)
    assert config.labeler is label_graph_from_prf


def unlabeled_edges(structure, key, verifier_nonce, prover_nonce):
    return LabeledDigraph(structure.alphabet, structure.labels, structure.out_edges)


@pytest.mark.parametrize("strategy", [honest(), early_reply()], ids=["honest", "early"])
def test_labeler_without_edge_labels_is_refused(strategy):
    config = ProtocolConfig(graph=make_tree(2), start=0, rounds=2,
                            labeler=unlabeled_edges)
    with pytest.raises(GraphError, match="graph has no edge labels"):
        run_session(config, strategy)
    with pytest.raises(GraphError, match="graph has no edge labels"):
        estimate_success_rate(config, strategy)
