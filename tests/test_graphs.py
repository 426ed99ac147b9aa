import json
import random

import pytest
from conftest import random_binary_graph, random_cnf

from mfskit import (
    GraphError,
    GraphFormatError,
    LabeledDigraph,
    graph_from_dict,
    graph_json_text,
    graph_to_dict,
    make_generalized_tree,
    make_poulidor,
    make_tree,
    read_graph,
    reduce_sat_to_mfs,
    validate_binary_instance,
    write_graph,
)


def test_edge_targets_validated():
    with pytest.raises(GraphError, match="target 5"):
        LabeledDigraph(("0", "1"), ("0", "1"), ((1,), (5,)))


def test_labels_must_be_in_alphabet():
    with pytest.raises(GraphError, match="label 'x'"):
        LabeledDigraph(("0", "1"), ("0", "x"), ((), ()))


def test_out_edge_labels_must_differ():
    with pytest.raises(GraphError, match="duplicate out-edge labels"):
        LabeledDigraph(("0", "1"), ("0", "1"), ((1, 1), ()), (("0", "0"), ()))


def test_edge_label_shape_checked():
    with pytest.raises(GraphError, match="1 edge labels for 2"):
        LabeledDigraph(("0", "1"), ("0", "1"), ((1, 1), ()), (("0",), ()))


@pytest.mark.parametrize("args, message", [
    (((), (), ()), "alphabet must be a non-empty set of distinct symbols"),
    ((("0", "0"), ("0",), ((),)), "alphabet must be a non-empty set of distinct symbols"),
    ((("0",), ("0", "0"), ((),)), "out_edges has 1 rows for 2 vertices"),
    ((("0",), ("0",), ((),), ((), ())), "edge_labels shape does not match vertex count"),
    ((("0",), ("0", "0"), ((1,), ()), ((), ())), "vertex 0: 0 edge labels for 1 out-edges"),
    ((("0",), ("0", "0"), ((1,), ()), (("2",), ())), "vertex 0: edge label '2' is not binary"),
    ((("0",), ("0",), ((),), None, ("a", "b")), "names length does not match vertex count"),
], ids=["empty-alphabet", "duplicate-alphabet", "out-edge-rows", "edge-label-rows",
        "edge-label-count", "edge-label-symbol", "names-length"])
def test_model_refusals(args, message):
    with pytest.raises(GraphError) as info:
        LabeledDigraph(*args)
    assert str(info.value) == message


def test_binary_instance_accepts_protocol_graphs(example_tree, example_poulidor):
    assert validate_binary_instance(example_tree).ok
    assert validate_binary_instance(example_poulidor).ok


def test_binary_instance_single_vertex():
    g = LabeledDigraph(("0", "1"), ("0",), ((),))
    assert validate_binary_instance(g).ok


def test_binary_instance_flags_high_out_degree():
    g = LabeledDigraph(("0", "1"), ("0", "1", "0", "1"), ((1, 2, 3), (), (), ()))
    check = validate_binary_instance(g)
    assert not check.ok
    assert any("vertex 0" in v and "out-degree 3" in v for v in check.violations)


def test_binary_instance_flags_alphabet():
    g = LabeledDigraph(("0", "1", "2"), ("2",), ((),))
    check = validate_binary_instance(g)
    assert not check.ok
    assert any("alphabet" in v for v in check.violations)


def test_round_trip(tmp_path, example_tree):
    path = tmp_path / "tree.json"
    write_graph(example_tree, path)
    assert read_graph(path) == example_tree


def test_poulidor_serializes_to_expected_counts(tmp_path):
    g = make_poulidor(4, seed=3)
    path = tmp_path / "p.json"
    write_graph(g, path)
    data = json.loads(path.read_text())
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 16


def test_dangling_edge_target_is_named(tmp_path):
    data = {
        "alphabet": ["0", "1"],
        "vertices": [{"id": 0, "label": "0"}],
        "edges": [{"from": 0, "to": 3}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GraphFormatError, match=r"edges\[0\].*'to' vertex 3"):
        read_graph(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "alphabet": ["0", "1",\n}')
    with pytest.raises(GraphFormatError, match="line"):
        read_graph(path)


def test_duplicate_vertex_id_rejected():
    data = {
        "alphabet": ["0"],
        "vertices": [{"id": 0, "label": "0"}, {"id": 0, "label": "0"}],
        "edges": [],
    }
    with pytest.raises(GraphFormatError, match="duplicate id 0"):
        graph_from_dict(data)


def test_vertex_id_out_of_range_rejected():
    data = {
        "alphabet": ["0"],
        "vertices": [{"id": 0, "label": "0"}, {"id": 7, "label": "0"}],
        "edges": [],
    }
    with pytest.raises(GraphFormatError, match="id 7 is not in 0..1"):
        graph_from_dict(data)


@pytest.mark.parametrize("vertex, edge, message", [
    ({"id": False}, None, r"vertices\[0\]: id False is not in 0..1"),
    ({"id": True}, None, r"vertices\[0\]: id True is not in 0..1"),
    ({}, {"from": False, "to": 1}, r"edges\[0\]: 'from' vertex False is not in 0..1"),
    ({}, {"from": 0, "to": True}, r"edges\[0\]: 'to' vertex True is not in 0..1"),
], ids=["id-false", "id-true", "from-false", "to-true"])
def test_json_booleans_are_not_vertex_ids(tmp_path, capsys, vertex, edge, message):
    # bool is a subclass of int; a JSON true or false is still not an id
    from mfskit.cli import EXIT_INPUT, main

    data = {
        "alphabet": ["0", "1"],
        "vertices": [{"id": 0, "label": "0", **vertex}, {"id": 1, "label": "1"}],
        "edges": [edge] if edge else [],
    }
    with pytest.raises(GraphFormatError, match=message):
        graph_from_dict(data)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["mfs", str(path), "--length", "2"]) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == "" and message.replace("\\", "") in out.err


def test_model_refusal_is_a_format_error(tmp_path, capsys):
    from mfskit.cli import EXIT_INPUT, main

    data = {"alphabet": ["0", "0"], "vertices": [{"id": 0, "label": "0"}], "edges": []}
    message = "alphabet must be a non-empty set of distinct symbols"
    with pytest.raises(GraphFormatError) as info:
        graph_from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    assert main(["mfs", str(path), "--length", "1"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_top_level_key_rejected():
    with pytest.raises(GraphFormatError, match="missing required key 'edges'"):
        graph_from_dict({"alphabet": ["0"], "vertices": []})


def test_partial_edge_labels_rejected():
    data = {
        "alphabet": ["0", "1"],
        "vertices": [{"id": 0, "label": "0"}, {"id": 1, "label": "1"}],
        "edges": [
            {"from": 0, "to": 1, "edge_label": "0"},
            {"from": 1, "to": 0},
        ],
    }
    with pytest.raises(GraphFormatError, match="all edges carry edge_label or none"):
        graph_from_dict(data)


def test_names_survive_round_trip(example_tree):
    assert example_tree.names is not None
    data = graph_to_dict(example_tree)
    assert data["vertices"][0]["name"] == "root"
    assert graph_from_dict(data).names == example_tree.names


def test_successor_lookup(example_tree):
    assert example_tree.successor(0, "0") == 1
    assert example_tree.successor(0, "1") == 2
    assert example_tree.successor(7, "0") is None  # leaf
    with pytest.raises(GraphError, match="graph has no edge labels"):
        LabeledDigraph(("0",), ("0",), ((),)).successor(0, "0")


# -- the graph file writer ----------------------------------------------------

ODD_NAMES = (
    'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "héllo wörld",
    "日本語", "emoji \U0001f600", "", "/slash", "\u2028",
)
ALPHABETS = (
    None,
    ("ab", "c", 'd"é'),
    (0, 1, 2),
    ("x", 7, None, 2.5, False, ("nested", 1)),
)
EXTRAS = (
    None,
    {},
    {"params": {"variables": 3, "ratio": 0.5, "flag": True, "none": None}},
    {"empty_list": [], "empty_dict": {}, "nested": {"a": [1, {"b": [], "c": "\n"}]}},
    {"tuple": (1, "two"), "list": ["x", 2, [3, [4]]], "ints": {"1": 1}},
)


def _reference_text(g, extra=None):
    return json.dumps(graph_to_dict(g) | (extra or {}), indent=2)


def _variants(g: LabeledDigraph, rng: random.Random):
    """`g` with every names layout and, for out-degree <= 2, edge labels."""
    n = g.vertex_count
    all_names = tuple(rng.choice(ODD_NAMES) + str(v) for v in range(n))
    some_names = tuple(name if rng.getrandbits(1) else None for name in all_names)
    edge_labels = None
    if all(len(row) <= 2 for row in g.out_edges):
        edge_labels = tuple(
            tuple(rng.sample(("0", "1"), len(row))) for row in g.out_edges
        )
    for names in (None, all_names, some_names):
        for labels in (None, edge_labels):
            yield LabeledDigraph(g.alphabet, g.labels, g.out_edges, labels, names)


def _writer_cases():
    rng = random.Random(2024)
    for k in range(60):
        alphabet = ALPHABETS[k % len(ALPHABETS)]
        yield from _variants(random_binary_graph(rng, 12, alphabet), rng)
    yield LabeledDigraph(("0", "1"), ("0", "1", "1"), ((), (), ()))  # no edges
    yield LabeledDigraph(("0",), ("0",), ((0, 0, 0),))  # loops, out-degree 3
    yield make_tree(4, seed=1)
    yield make_poulidor(5, seed=2)
    yield make_generalized_tree(2, 3, seed=3)


def test_writer_matches_the_indenting_encoder():
    cases = list(_writer_cases())
    assert any(g.names and None in g.names for g in cases)
    assert any(g.edge_labels is not None for g in cases)
    for k, g in enumerate(cases):
        extra = EXTRAS[k % len(EXTRAS)]
        assert graph_json_text(g) == _reference_text(g)
        assert graph_json_text(g, extra) == _reference_text(g, extra), g


def test_writer_matches_the_encoder_on_reduce_gadgets():
    rng = random.Random(7)
    for _ in range(40):
        r = reduce_sat_to_mfs(random_cnf(rng))
        extra = {
            "roles": {str(v): role for v, role in enumerate(r.roles)},
            "params": {"variables": r.params.variable_count,
                       "target_length": r.params.target_length},
        }
        assert graph_json_text(r.graph, extra) == _reference_text(r.graph, extra)


def test_writer_defers_what_its_templates_do_not_cover():
    g = make_tree(2, seed=4)
    bool_target = LabeledDigraph(("0",), ("0", "0"), ((True,), ()))
    for graph, extra in [
        (g, {"edges": "replaced in place"}),
        (g, {3: "int key", None: "null key"}),
        (bool_target, None),
    ]:
        assert graph_json_text(graph, extra) == _reference_text(graph, extra)


def test_write_graph_round_trips(tmp_path):
    path = tmp_path / "g.json"
    for g in _writer_cases():
        if not all(isinstance(s, str) for s in g.alphabet):
            continue  # the file format holds string symbols only
        write_graph(g, path)
        assert path.read_text(encoding="utf-8") == _reference_text(g) + "\n"
        back = read_graph(path)
        names = g.names if g.names and any(x is not None for x in g.names) else None
        edge_labels = g.edge_labels if g.edge_count else None
        assert back == LabeledDigraph(g.alphabet, g.labels, g.out_edges,
                                      edge_labels, names)
