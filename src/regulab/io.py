"""JSON serialization for graphs, subgraph pairs, partitions, and reports.

Graph files look like

    {"n": 5, "mu": [1.0, 1.0, 1.0, 1.0, 1.0],
     "edges": [[0, 1, 2.5], [0, 2, 2.5]]}

with 0-based endpoints, u < v, no duplicates.  Pair files add
``f_edges`` (subgraph edges, weightless) and optionally ``A``/``B``
(vertex lists).  Partition files are ``{"clusters": [[...], ...]}`` with
cluster 0 playing the role of the exceptional set W0.  Endpoints and
vertices are JSON integers: ``true`` and ``1.0`` are rejected.  Weights
are JSON numbers; an integer too large for a float is not finite.
Validation errors name the first offending entry by index: every entry's
shape and types are checked before any endpoint range, duplicate, weight
or host edge.  Unknown top-level keys are ignored so files may carry
extra metadata (for example part labels).

Valid files are checked and converted a whole column at a time.  Only a
file that fails a bulk shape or type check is walked entry by entry, to
name the offender; the later checks find theirs with array masks.

Every file and report is written in one layout, a stable contract:
the text of ``json.dumps(json_safe(obj), indent=2, sort_keys=True)``
and a trailing newline.  That is two-space indentation, sorted keys,
non-ASCII characters escaped, numpy values and tuples as plain numbers
and lists, keys as strings, and non-finite numbers as the strings
``"nan"``, ``"inf"`` and ``"-inf"``.  ``json_text`` produces it.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from .core import InputError, SubgraphPair, WeightedGraph, index_array

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "pair_to_dict",
    "pair_from_dict",
    "load_pair",
    "partition_to_dict",
    "partition_from_dict",
    "load_partition",
    "json_safe",
    "json_text",
    "dump_report",
]


# -- graphs --------------------------------------------------------------


def graph_to_dict(G: WeightedGraph) -> dict[str, Any]:
    return {
        "n": G.n,
        "mu": G.mu.tolist(),
        "edges": list(map(list, G.edge_list())),
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive_finite(x: int | float) -> bool:
    try:
        return math.isfinite(x) and x > 0
    except OverflowError:  # an integer beyond the float range
        return False


def _types(column: list[Any]) -> set[type]:
    return set(map(type, column))


def _as_array(column: list[Any], dtype: type) -> np.ndarray | list[Any]:
    """``column`` as an array of ``dtype``, or unchanged when it holds an
    integer beyond the dtype's range: such a column is then checked
    entry by entry, so the offender is cited by its own value."""
    try:
        return np.array(column, dtype=dtype)
    except OverflowError:
        return column


def _vertex_weights(mu: list[Any]) -> np.ndarray:
    """``mu`` as float64 after checking every entry is a positive finite number."""
    if _types(mu) <= {int, float}:
        weights = _as_array(mu, np.float64)
        if isinstance(weights, np.ndarray) and np.isfinite(weights).all() and (weights > 0.0).all():
            return weights
    for i, x in enumerate(mu):
        _require(_is_number(x) and _positive_finite(x),
                 f"mu[{i}]: vertex weight must be a positive finite number, got {x!r}")
    return np.asarray(mu, dtype=np.float64)


def _edge_columns(edges: list[Any], key: str, width: int) -> list[np.ndarray | list[Any]]:
    """The int64 u and v (and, at width 3, float64 rho) columns of an
    edge list, after checking every entry's shape and types."""
    shape = "[u, v, rho]" if width == 3 else "[u, v]"
    columns = None
    if _types(edges) <= {list} and set(map(len, edges)) <= {width}:
        columns = [list(map(itemgetter(j), edges)) for j in range(width)]
        if not (_types(columns[0]) | _types(columns[1]) <= {int} and (
                width == 2 or _types(columns[2]) <= {int, float})):
            columns = None
    if columns is None:
        # Some entry fails, or is of a subclass the bulk test does not know.
        for k, e in enumerate(edges):
            _require(isinstance(e, list) and len(e) == width, f"{key}[{k}]: expected {shape}")
            _require(_is_int(e[0]) and _is_int(e[1]), f"{key}[{k}]: endpoints must be integers")
            _require(width == 2 or _is_number(e[2]), f"{key}[{k}]: weight must be a number")
        columns = [list(map(itemgetter(j), edges)) for j in range(width)]
    return [_as_array(c, dtype) for c, dtype in zip(columns, (np.int64, np.int64, np.float64))]


def graph_from_dict(data: Any) -> WeightedGraph:
    _require(isinstance(data, dict), "graph: expected a JSON object")
    _require("n" in data, "graph: missing key 'n'")
    n = data["n"]
    _require(_is_int(n) and n >= 1,
             f"graph: 'n' must be a positive integer, got {n!r}")
    _require("mu" in data, "graph: missing key 'mu'")
    mu = data["mu"]
    _require(isinstance(mu, list), "graph: 'mu' must be a list")
    _require(len(mu) == n, f"graph: 'mu' has {len(mu)} entries, expected n={n}")
    weights = _vertex_weights(mu)
    _require("edges" in data, "graph: missing key 'edges'")
    edges = data["edges"]
    _require(isinstance(edges, list), "graph: 'edges' must be a list")
    return WeightedGraph.from_edge_columns(n, weights, *_edge_columns(edges, "edges", 3))


def save_graph(G: WeightedGraph, path: str | Path, extra: dict[str, Any] | None = None) -> None:
    payload = graph_to_dict(G)
    if extra:
        for key in extra:
            _require(key not in payload, f"extra metadata key {key!r} collides with graph schema")
        payload.update(extra)
    Path(path).write_text(json_text(payload) + "\n")


def load_graph(path: str | Path) -> WeightedGraph:
    return graph_from_dict(_read_json(path))


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


# -- subgraph pairs ------------------------------------------------------


def pair_to_dict(
    P: SubgraphPair,
    A: list[int] | None = None,
    B: list[int] | None = None,
) -> dict[str, Any]:
    payload = graph_to_dict(P.graph)
    payload["f_edges"] = list(map(list, P.f_edge_list()))
    if A is not None:
        payload["A"] = [int(x) for x in A]
    if B is not None:
        payload["B"] = [int(x) for x in B]
    return payload


def pair_from_dict(data: Any) -> tuple[SubgraphPair, list[int] | None, list[int] | None]:
    G = graph_from_dict(data)
    _require("f_edges" in data, "pair: missing key 'f_edges'")
    f_edges = data["f_edges"]
    _require(isinstance(f_edges, list), "pair: 'f_edges' must be a list")
    u, v = _edge_columns(f_edges, "f_edges", 2)
    try:
        pair = SubgraphPair.from_edge_columns(G, u, v)
    except InputError as exc:
        raise InputError(f"pair: {exc}") from exc
    sides: list[list[int] | None] = []
    for key in ("A", "B"):
        if key not in data:
            sides.append(None)
            continue
        side = data[key]
        _require(isinstance(side, list), f"pair: '{key}' must be a list of vertices")
        for i, x in enumerate(side):
            _require(_is_int(x), f"{key}[{i}]: vertex must be an integer")
        index_array(G.n, side, key)  # range check
        sides.append([int(x) for x in side])
    return pair, sides[0], sides[1]


def load_pair(path: str | Path) -> tuple[SubgraphPair, list[int] | None, list[int] | None]:
    return pair_from_dict(_read_json(path))


# -- partitions ----------------------------------------------------------


def partition_to_dict(w0: list[int], clusters: list[list[int]]) -> dict[str, Any]:
    return {"clusters": [[int(x) for x in w0]] + [[int(x) for x in c] for c in clusters]}


def partition_from_dict(data: Any, n: int) -> tuple[list[int], list[list[int]]]:
    _require(isinstance(data, dict), "partition: expected a JSON object")
    _require("clusters" in data, "partition: missing key 'clusters'")
    clusters = data["clusters"]
    _require(isinstance(clusters, list) and len(clusters) >= 1,
             "partition: 'clusters' must be a nonempty list (entry 0 is W0)")
    seen: set[int] = set()
    out: list[list[int]] = []
    for i, cluster in enumerate(clusters):
        _require(isinstance(cluster, list), f"clusters[{i}]: expected a list of vertices")
        for j, x in enumerate(cluster):
            _require(_is_int(x), f"clusters[{i}][{j}]: vertex must be an integer")
            _require(0 <= x < n, f"clusters[{i}][{j}]: vertex {x} out of range [0, {n})")
            _require(x not in seen, f"clusters[{i}][{j}]: vertex {x} appears twice")
            seen.add(x)
        _require(i == 0 or len(cluster) > 0, f"clusters[{i}]: clusters other than W0 must be nonempty")
        out.append([int(x) for x in cluster])
    _require(len(seen) == n, f"partition: covers {len(seen)} of {n} vertices")
    return out[0], out[1:]


def load_partition(path: str | Path, n: int) -> tuple[list[int], list[list[int]]]:
    return partition_from_dict(_read_json(path), n)


# -- the written layout --------------------------------------------------

_PLAIN = frozenset({str, int, float, bool, type(None)})
# Flat containers go to the C encoder whole.  "\x00" cannot occur in
# encoded JSON (strings escape it), so as the item separator it marks
# exactly the places the indentation goes.  A NaN or infinity raises
# ValueError, and that container takes the converting path instead.
_FLAT_ENCODER = json.JSONEncoder(sort_keys=True, separators=("\x00", ": "), allow_nan=False)


def json_safe(obj: Any) -> Any:
    """Recursively convert report payloads to plain JSON types.

    Non-finite floats become strings so reports stay strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def json_text(obj: Any) -> str:
    """``json.dumps(json_safe(obj), indent=2, sort_keys=True)``, byte for byte.

    This is the layout of every file and report regulab writes.  Each
    flat container (plain scalars under ``str`` keys) and each list of
    flat rows is encoded in one call of the C encoder.  The few levels
    above them, and any container holding numpy values, non-``str``
    keys or non-finite floats, are walked here with ``json_safe``'s
    conversions, so no converted copy of ``obj`` is built.
    """
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


def _write(obj: Any, level: int, out: list[str]) -> None:
    """Append the layout of ``json_safe(obj)`` nested ``level`` deep."""
    if type(obj) in (dict, list, tuple):
        text = _flat_text(obj, level)
        if text is not None:
            out.append(text)
            return
    if isinstance(obj, dict):
        entries = [(_FLAT_ENCODER.encode(key) + ": ", value)
                   for key, value in sorted({str(k): v for k, v in obj.items()}.items())]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        entries = [("", value) for value in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
        opening, closing = "[", "]"
    else:
        out.append(json.dumps(json_safe(obj)))
        return
    if not entries:
        out.append(opening + closing)
        return
    indent = "\n" + "  " * (level + 1)
    separator = opening + indent
    for key, value in entries:
        out.append(separator + key)
        _write(value, level + 1, out)
        separator = "," + indent
    out.append("\n" + "  " * level + closing)


def _flat_text(obj: dict | list | tuple, level: int) -> str | None:
    """The layout of a nonempty flat container, or of a nonempty list of
    nonempty flat rows of one bracket kind, nested ``level`` deep; None
    for anything else or when a value is not finite."""
    if not obj:
        return None
    rows = False
    if type(obj) is dict:
        keys, values = obj.keys(), obj.values()
    else:
        kinds = _types(obj)
        if kinds <= _PLAIN:
            keys, values = (), obj
        elif kinds == {dict} and all(obj):
            keys, values, rows = chain.from_iterable(obj), chain.from_iterable(map(dict.values, obj)), True
        elif kinds <= {list, tuple} and all(obj):
            keys, values, rows = (), chain.from_iterable(obj), True
        else:
            return None
    if not (_types(keys) <= {str} and _types(values) <= _PLAIN):
        return None
    try:
        text = _FLAT_ENCODER.encode(obj)
    except ValueError:
        return None
    outer, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if not rows:
        return text[0] + inner + text[1:-1].replace("\x00", "," + inner) + outer + text[-1]
    # Inside a flat row "\x00" never stands between a closing and an
    # opening bracket, so the row boundaries are replaced first.
    innermost = inner + "  "
    opening, closing = text[1], text[-2]
    body = text[2:-2].replace(closing + "\x00" + opening, inner + closing + "," + inner + opening + innermost)
    return ("[" + inner + opening + innermost + body.replace("\x00", "," + innermost)
            + inner + closing + outer + "]")


# -- reports -------------------------------------------------------------


def dump_report(report: dict[str, Any], *, timestamp: bool = True) -> str:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report)
    if timestamp:
        payload["generated_at"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return json_text(payload) + "\n"
