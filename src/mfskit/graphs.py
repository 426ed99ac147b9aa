"""Vertex-labeled digraph model and its JSON file format.

Vertices are dense integer ids 0..n-1.  Labels are symbols from a declared
finite alphabet; edge labels, when present, are binary ("0"/"1") and must
differ across the out-edges of a vertex so that a challenge bit selects a
unique edge.  Graphs are immutable after construction and therefore safe to
share between concurrent analysis tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .errors import GraphError, GraphFormatError


@dataclass(frozen=True)
class LabeledDigraph:
    alphabet: tuple[str, ...]
    labels: tuple[str, ...]
    out_edges: tuple[tuple[int, ...], ...]
    edge_labels: tuple[tuple[str, ...], ...] | None = None
    names: tuple[str | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(
            self, "out_edges", tuple(tuple(row) for row in self.out_edges)
        )
        if self.edge_labels is not None:
            object.__setattr__(
                self, "edge_labels", tuple(tuple(row) for row in self.edge_labels)
            )
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        self._validate()

    def _validate(self):
        n = len(self.labels)
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise GraphError("alphabet must be a non-empty set of distinct symbols")
        if len(self.out_edges) != n:
            raise GraphError(
                f"out_edges has {len(self.out_edges)} rows for {n} vertices"
            )
        alpha = set(self.alphabet)
        for v, lab in enumerate(self.labels):
            if lab not in alpha:
                raise GraphError(f"vertex {v}: label {lab!r} not in alphabet")
        for v, row in enumerate(self.out_edges):
            for w in row:
                if not (0 <= w < n):
                    raise GraphError(f"vertex {v}: edge target {w} out of range")
        if self.edge_labels is not None:
            if len(self.edge_labels) != n:
                raise GraphError("edge_labels shape does not match vertex count")
            for v, row in enumerate(self.edge_labels):
                if len(row) != len(self.out_edges[v]):
                    raise GraphError(
                        f"vertex {v}: {len(row)} edge labels for "
                        f"{len(self.out_edges[v])} out-edges"
                    )
                for lab in row:
                    if lab not in ("0", "1"):
                        raise GraphError(
                            f"vertex {v}: edge label {lab!r} is not binary"
                        )
                if len(set(row)) != len(row):
                    raise GraphError(f"vertex {v}: duplicate out-edge labels")
        if self.names is not None and len(self.names) != n:
            raise GraphError("names length does not match vertex count")

    @classmethod
    def _unchecked(
        cls, alphabet, labels, out_edges, edge_labels, names
    ) -> "LabeledDigraph":
        # hot-path constructor for graphs rebuilt from already-validated
        # parts (e.g. per-session relabelings); fields must be tuples
        obj = object.__new__(cls)
        object.__setattr__(obj, "alphabet", alphabet)
        object.__setattr__(obj, "labels", labels)
        object.__setattr__(obj, "out_edges", out_edges)
        object.__setattr__(obj, "edge_labels", edge_labels)
        object.__setattr__(obj, "names", names)
        return obj

    # -- basic views ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.out_edges)

    def out_degree(self, v: int) -> int:
        return len(self.out_edges[v])

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.vertex_count):
            raise GraphError(f"vertex {v} out of range (graph has {self.vertex_count})")
        return v

    def successor(self, v: int, edge_label: str) -> int | None:
        """Target of the out-edge of `v` labeled `edge_label`, if any."""
        if self.edge_labels is None:
            raise GraphError("graph has no edge labels")
        for w, lab in zip(self.out_edges[v], self.edge_labels[v]):
            if lab == edge_label:
                return w
        return None

    @cached_property
    def branch_layout(self):
        """(branching, first_edge_labels, wide), worked out once per graph.

        `branching` holds the ids of the vertices with two out-edges in
        ascending order; `first_edge_labels` labels every vertex's
        out-edges "0" then "1" in out-edge order; `wide` is the first
        vertex with more than two out-edges, or None.
        """
        degrees = [len(row) for row in self.out_edges]
        branching = tuple(v for v, d in enumerate(degrees) if d == 2)
        first_edge_labels = tuple(("0", "1")[:d] for d in degrees)
        wide = next((v for v, d in enumerate(degrees) if d > 2), None)
        return branching, first_edge_labels, wide

    def with_labels(self, labels: Sequence[str]) -> "LabeledDigraph":
        """Same structure with a replacement vertex labeling."""
        return LabeledDigraph(
            self.alphabet, tuple(labels), self.out_edges, self.edge_labels, self.names
        )


@dataclass(frozen=True)
class BinaryCheck:
    """Verdict of the binary-instance validation."""

    ok: bool
    violations: tuple[str, ...] = ()


def validate_binary_instance(g: LabeledDigraph) -> BinaryCheck:
    """Check the constraints required of a binary most-frequent-sequence
    instance: alphabet exactly {0,1} and every out-degree at most 2."""
    violations = []
    if set(g.alphabet) != {"0", "1"}:
        violations.append(f"alphabet {sorted(g.alphabet)} is not ['0', '1']")
    for v in range(g.vertex_count):
        if g.out_degree(v) > 2:
            violations.append(f"vertex {v} has out-degree {g.out_degree(v)} > 2")
    return BinaryCheck(not violations, tuple(violations))


# -- JSON serialization -------------------------------------------------------


def graph_to_dict(g: LabeledDigraph) -> dict:
    vertices = []
    for v in range(g.vertex_count):
        entry: dict = {"id": v, "label": g.labels[v]}
        if g.names is not None and g.names[v] is not None:
            entry["name"] = g.names[v]
        vertices.append(entry)
    edges = []
    for v, row in enumerate(g.out_edges):
        for k, w in enumerate(row):
            entry = {"from": v, "to": w}
            if g.edge_labels is not None:
                entry["edge_label"] = g.edge_labels[v][k]
            edges.append(entry)
    return {"alphabet": list(g.alphabet), "vertices": vertices, "edges": edges}


# Rows of the graph file as json.dumps(graph_to_dict(g), indent=2) lays
# them out; filled with pre-encoded JSON values.
_VERTEX_ROW = '    {\n      "id": %d,\n      "label": %s\n    }'
_NAMED_VERTEX_ROW = (
    '    {\n      "id": %d,\n      "label": %s,\n      "name": %s\n    }'
)
_EDGE_ROW = '    {\n      "from": %d,\n      "to": %d\n    }'
_LABELED_EDGE_ROW = (
    '    {\n      "from": %d,\n      "to": %d,\n      "edge_label": %s\n    }'
)
_ENCODED_BITS = {"0": '"0"', "1": '"1"'}
_ROW_PAD = " " * 6  # depth of the values inside a vertex or edge row
_GRAPH_KEYS = ("alphabet", "vertices", "edges")


def _encode(value, pad: str) -> str:
    """`value` as json.dumps(..., indent=2) writes it when it sits `pad`
    deep: strings, ints and non-empty dicts with string keys by template,
    anything else by json.dumps itself."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    if type(value) is dict and value and set(map(type, value)) == {str}:
        inner = pad + "  "
        members = zip(
            map(encode_basestring_ascii, value),
            _encode_each(list(value.values()), inner),
        )
        items = ",\n".join(map((inner + "%s: %s").__mod__, members))
        return f"{{\n{items}\n{pad}}}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _encode_each(values: Sequence, pad: str):
    """`_encode` over `values`, by the C string encoder alone when they
    are all strings."""
    if set(map(type, values)) <= {str}:
        return map(encode_basestring_ascii, values)
    return [_encode(value, pad) for value in values]


def graph_json_text(g: LabeledDigraph, extra: dict | None = None) -> str:
    """The graph file text: exactly json.dumps(graph_to_dict(g) | extra,
    indent=2), built row by row from templates instead of through the
    indenting encoder.  `extra` holds further top-level entries, such as
    the side tables of `mfskit reduce`."""
    extra = extra or {}
    targets = tuple(chain.from_iterable(g.out_edges))
    if not (
        set(map(type, targets)) <= {int}
        and set(map(type, extra)) <= {str}
        and extra.keys().isdisjoint(_GRAPH_KEYS)
    ):
        return json.dumps(graph_to_dict(g) | extra, indent=2)
    if set(map(type, g.alphabet)) == {str}:
        encoded = dict(zip(g.alphabet, map(encode_basestring_ascii, g.alphabet)))
        labels = map(encoded.__getitem__, g.labels)
    else:
        labels = _encode_each(g.labels, _ROW_PAD)
    names = g.names
    if names is None:
        vertices = map(_VERTEX_ROW.__mod__, enumerate(labels))
    else:
        vertices = (
            _VERTEX_ROW % (v, lab) if name is None
            else _NAMED_VERTEX_ROW % (v, lab, _encode(name, _ROW_PAD))
            for v, (lab, name) in enumerate(zip(labels, names))
        )
    sources = chain.from_iterable(map(repeat, count(), map(len, g.out_edges)))
    if g.edge_labels is None:
        edges = map(_EDGE_ROW.__mod__, zip(sources, targets))
    else:
        bits = map(_ENCODED_BITS.__getitem__, chain.from_iterable(g.edge_labels))
        edges = map(_LABELED_EDGE_ROW.__mod__, zip(sources, targets, bits))
    parts = [
        '{\n  "alphabet": ' + _encode(list(g.alphabet), "  "),
        '  "vertices": ' + _rows(vertices),
        '  "edges": ' + _rows(edges),
    ]
    parts += [
        f"  {encode_basestring_ascii(key)}: {_encode(value, '  ')}"
        for key, value in extra.items()
    ]
    return ",\n".join(parts) + "\n}"


def _rows(rows) -> str:
    body = ",\n".join(rows)
    return f"[\n{body}\n  ]" if body else "[]"


def _require(cond: bool, where: str, message: str):
    if not cond:
        raise GraphFormatError(f"{where}: {message}")


def graph_from_dict(data: dict) -> LabeledDigraph:
    _require(isinstance(data, dict), "top level", "expected a JSON object")
    for key in ("alphabet", "vertices", "edges"):
        _require(key in data, "top level", f"missing required key {key!r}")
    alphabet = data["alphabet"]
    _require(
        isinstance(alphabet, list) and all(isinstance(s, str) for s in alphabet),
        "alphabet",
        "expected a list of strings",
    )
    vertices = data["vertices"]
    _require(isinstance(vertices, list), "vertices", "expected a list")
    n = len(vertices)
    labels: list[str | None] = [None] * n
    names: list[str | None] = [None] * n
    seen = set()
    for pos, entry in enumerate(vertices):
        where = f"vertices[{pos}]"
        _require(isinstance(entry, dict), where, "expected an object")
        _require("id" in entry and "label" in entry, where, "needs 'id' and 'label'")
        vid = entry["id"]
        _require(type(vid) is int and 0 <= vid < n, where,
                 f"id {vid!r} is not in 0..{n - 1}")
        _require(vid not in seen, where, f"duplicate id {vid}")
        seen.add(vid)
        _require(isinstance(entry["label"], str), where, "label must be a string")
        labels[vid] = entry["label"]
        if "name" in entry:
            _require(isinstance(entry["name"], str), where, "name must be a string")
            names[vid] = entry["name"]
    edges = data["edges"]
    _require(isinstance(edges, list), "edges", "expected a list")
    out: list[list[int]] = [[] for _ in range(n)]
    elabs: list[list[str]] = [[] for _ in range(n)]
    labeled_edges = 0
    for pos, entry in enumerate(edges):
        where = f"edges[{pos}]"
        _require(isinstance(entry, dict), where, "expected an object")
        _require("from" in entry and "to" in entry, where, "needs 'from' and 'to'")
        src, dst = entry["from"], entry["to"]
        _require(type(src) is int and 0 <= src < n, where,
                 f"'from' vertex {src!r} is not in 0..{n - 1}")
        _require(type(dst) is int and 0 <= dst < n, where,
                 f"'to' vertex {dst!r} is not in 0..{n - 1}")
        out[src].append(dst)
        if "edge_label" in entry:
            _require(entry["edge_label"] in ("0", "1"), where,
                     f"edge_label {entry['edge_label']!r} is not '0' or '1'")
            elabs[src].append(entry["edge_label"])
            labeled_edges += 1
    if labeled_edges:
        _require(labeled_edges == len(edges), "edges",
                 "either all edges carry edge_label or none do")
    try:
        return LabeledDigraph(
            tuple(alphabet),
            tuple(labels),  # type: ignore[arg-type]
            tuple(tuple(row) for row in out),
            tuple(tuple(row) for row in elabs) if labeled_edges else None,
            tuple(names) if any(x is not None for x in names) else None,
        )
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from exc


def read_graph(path) -> LabeledDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return graph_from_dict(data)


def write_graph(g: LabeledDigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_json_text(g) + "\n")
