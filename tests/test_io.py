"""JSON serialization: lossless roundtrips, index-precise validation
errors, report payload hygiene."""

import copy
import hashlib
import json
import math
import random
import warnings

import numpy as np
import pytest

from regulab import (
    InputError,
    SubgraphPair,
    WeightedGraph,
    dump_report,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_pair,
    load_partition,
    pair_from_dict,
    pair_to_dict,
    partition_from_dict,
    partition_to_dict,
    save_graph,
)
from regulab.core import HeavyVertexWarning
from regulab.io import SCHEMA_VERSION, json_safe, json_text

import _oracles
from _helpers import random_graph, random_subpair


# -- graph roundtrips ---------------------------------------------------------


@pytest.mark.parametrize("k", range(4))
def test_graph_roundtrip_is_exact(k, tmp_path):
    G = random_graph(200, k, 9)
    H = graph_from_dict(graph_to_dict(G))
    assert H.n == G.n
    assert np.array_equal(H.mu, G.mu)
    assert np.array_equal(H.rho, G.rho)
    path = tmp_path / "g.json"
    save_graph(G, path)
    L = load_graph(path)
    assert np.array_equal(L.mu, G.mu) and np.array_equal(L.rho, G.rho)


def test_graph_dict_ignores_unknown_keys():
    d = graph_to_dict(random_graph(201, 0, 5))
    d["note"] = {"anything": [1, 2]}
    graph_from_dict(d)  # no error


def test_save_graph_extra_metadata(tmp_path):
    G = random_graph(201, 1, 5)
    path = tmp_path / "g.json"
    save_graph(G, path, extra={"model": {"kind": "test"}})
    data = json.loads(path.read_text())
    assert data["model"] == {"kind": "test"}
    with pytest.raises(InputError, match="collides"):
        save_graph(G, path, extra={"edges": []})


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(n="five"), "'n' must be a positive integer"),
        (lambda d: d.pop("mu"), "missing key 'mu'"),
        (lambda d: d["mu"].__setitem__(2, -1.0), r"mu\[2\].*positive finite"),
        (lambda d: d["mu"].__setitem__(0, True), r"mu\[0\]"),
        (lambda d: d["edges"].__setitem__(1, [0, 1]), r"edges\[1\].*expected \[u, v, rho\]"),
        (lambda d: d["edges"].__setitem__(0, [0.5, 1, 1.0]), r"edges\[0\].*integers"),
        (lambda d: d["edges"].append([0, 9, 1.0]), r"edges\[2\].*0 <= u < v < n"),
        (lambda d: d.update(mu=[1.0, 1.0]), "'mu' has 2 entries"),
    ],
)
def test_graph_errors_cite_the_offending_entry(mutate, message):
    d = {"n": 5, "mu": [1.0] * 5, "edges": [[0, 1, 1.0], [2, 3, 2.0]]}
    mutate(d)
    with pytest.raises(InputError, match=message):
        graph_from_dict(d)


def test_load_rejects_malformed_json_and_missing_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,')
    with pytest.raises(InputError, match="invalid JSON at line"):
        load_graph(path)
    with pytest.raises(InputError, match="cannot read"):
        load_graph(tmp_path / "absent.json")


# -- pair files ---------------------------------------------------------------


@pytest.mark.parametrize("k", range(3))
def test_pair_roundtrip(k, tmp_path):
    P = random_subpair(202, k, 8)
    d = pair_to_dict(P, A=[0, 1, 2], B=[5, 6])
    Q, A, B = pair_from_dict(d)
    assert np.array_equal(Q.f_mask, P.f_mask)
    assert np.array_equal(Q.graph.rho, P.graph.rho)
    assert A == [0, 1, 2] and B == [5, 6]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    Q2, A2, B2 = load_pair(path)
    assert np.array_equal(Q2.f_mask, P.f_mask) and (A2, B2) == (A, B)


def test_pair_sides_are_optional():
    P = random_subpair(202, 3, 6)
    _, A, B = pair_from_dict(pair_to_dict(P))
    assert A is None and B is None


def test_pair_errors():
    P = random_subpair(202, 4, 6)
    d = pair_to_dict(P)
    d.pop("f_edges")
    with pytest.raises(InputError, match="missing key 'f_edges'"):
        pair_from_dict(d)
    d = pair_to_dict(P)
    d["f_edges"] = [[0, 1, 2]]
    with pytest.raises(InputError, match=r"f_edges\[0\].*expected \[u, v\]"):
        pair_from_dict(d)
    d = pair_to_dict(P)
    d["A"] = [0, "x"]
    with pytest.raises(InputError, match=r"A\[1\].*integer"):
        pair_from_dict(d)
    d = pair_to_dict(P)
    d["B"] = [99]
    with pytest.raises(InputError, match="lie in"):
        pair_from_dict(d)


def test_pair_f_edges_must_be_host_edges():
    G = WeightedGraph.from_edges(3, np.ones(3), [(0, 1, 1.0)])
    d = graph_to_dict(G)
    d["f_edges"] = [[0, 2]]
    with pytest.raises(InputError, match="not an edge"):
        pair_from_dict(d)


def test_boolean_f_edge_endpoints_are_rejected():
    d = graph_to_dict(WeightedGraph.from_edges(3, np.ones(3), [(0, 1, 1.0)]))
    d["f_edges"] = [[False, True]]
    with pytest.raises(InputError, match=r"^f_edges\[0\]: endpoints must be integers$"):
        pair_from_dict(d)
    G = graph_from_dict(d)
    with pytest.raises(InputError, match=r"^f_edges\[0\]: endpoints must be integers$"):
        SubgraphPair.from_edges(G, [(False, True)])


HUGE = 10**400  # a JSON integer beyond the float range
BEYOND_INT64 = 10**30


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["mu"].__setitem__(1, HUGE),
         rf"^mu\[1\]: vertex weight must be a positive finite number, got {HUGE}$"),
        (lambda d: d["edges"][1].__setitem__(2, HUGE),
         r"^edges\[1\]: edge weight must be finite and positive, got inf$"),
        (lambda d: d["edges"][0].__setitem__(2, -HUGE),
         r"^edges\[0\]: edge weight must be finite and positive, got -inf$"),
        (lambda d: d["edges"][1].__setitem__(1, BEYOND_INT64),
         rf"^edges\[1\]: need 0 <= u < v < n, got \(2, {BEYOND_INT64}\) with n=5$"),
        (lambda d: d["edges"][0].__setitem__(0, -BEYOND_INT64),
         rf"^edges\[0\]: need 0 <= u < v < n, got \(-{BEYOND_INT64}, 1\) with n=5$"),
        (lambda d: d["f_edges"][0].__setitem__(1, 2**63),
         rf"^pair: f_edges\[0\]: need 0 <= u < v < n, got \(0, {2**63}\)$"),
    ],
    ids=["mu", "weight", "negative weight", "endpoint", "negative endpoint", "f-edge endpoint"],
)
def test_integers_beyond_float_or_int64_are_input_errors(mutate, message):
    d = {"n": 5, "mu": [1.0] * 5, "edges": [[0, 1, 1.0], [2, 3, 2.0]], "f_edges": [[0, 1]]}
    mutate(d)
    with pytest.raises(InputError, match=message):
        pair_from_dict(d)


def test_side_vertex_beyond_int64_is_out_of_range():
    d = {"n": 3, "mu": [1, 1, 1], "edges": [[0, 1, 1]], "f_edges": [], "A": [10**30], "B": [1]}
    with pytest.raises(InputError, match=r"^A: vertex indices must lie in \[0, 3\)$"):
        pair_from_dict(d)


# -- error parity with the per-entry reference ----------------------------------


def _base_dict(rng):
    """A small valid pair dict: edges in random order, integer and float
    weights (some beyond 2**53), and sometimes sides."""
    n = rng.randint(4, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weights = (1, 3, 2**53 + 1, 10**20, 0.25)
    host = [[u, v, rng.choice(weights + (rng.uniform(0.5, 2.0),) * 3)]
            for u, v in rng.sample(pairs, rng.randint(3, len(pairs)))]
    d = {
        "n": n,
        "mu": [rng.choice((1, 2**53 + 1, rng.uniform(0.5, 2.0))) for _ in range(n)],
        "edges": host,
        "f_edges": [[u, v] for u, v, _ in rng.sample(host, rng.randint(1, len(host)))],
    }
    if rng.random() < 0.5:
        d["A"], d["B"] = list(range(n // 2)), list(range(n // 2, n))
    return d


def _entry(d, key, rng):
    return rng.randrange(len(d[key]))


def _set_endpoint(key, values):
    def mutate(d, rng):
        d[key][_entry(d, key, rng)][rng.randrange(2)] = rng.choice(values(d))
    return mutate


def _reverse(key):
    def mutate(d, rng):
        e = d[key][_entry(d, key, rng)]
        e[0], e[1] = (e[1], e[0]) if rng.random() < 0.7 else (e[0], e[0])
    return mutate


def _repeat(key):
    def mutate(d, rng):
        j = _entry(d, key, rng)
        d[key].insert(rng.randint(j + 1, len(d[key])), list(d[key][j]))
    return mutate


def _not_a_host_edge(d, rng):
    host = {(e[0], e[1]) for e in d["edges"]}
    missing = [[u, v] for u in range(d["n"]) for v in range(u + 1, d["n"]) if (u, v) not in host]
    if missing:
        d["f_edges"].insert(rng.randint(0, len(d["f_edges"])), rng.choice(missing))


def _out_of_range(d):
    return -1, d["n"], d["n"] + 3, BEYOND_INT64, -BEYOND_INT64, 2**63, -(2**63) - 1


def _not_an_integer(d):
    return True, False, 1.0, "1", None, [0]


BAD_WEIGHTS = (0, 0.0, -1, -2.5, float("nan"), float("inf"), float("-inf"), HUGE, -HUGE)

MUTATIONS = {
    "edge shape": lambda d, rng: d["edges"].__setitem__(
        _entry(d, "edges", rng), rng.choice(([0, 1], [0, 1, 1.0, 1], "x", 7, None, {"u": 0}))),
    "f-edge shape": lambda d, rng: d["f_edges"].__setitem__(
        _entry(d, "f_edges", rng), rng.choice(([0, 1, 1], [0], "x", None))),
    "edge endpoint type": _set_endpoint("edges", _not_an_integer),
    "f-edge endpoint type": _set_endpoint("f_edges", _not_an_integer),
    "weight type": lambda d, rng: d["edges"][_entry(d, "edges", rng)].__setitem__(
        2, rng.choice((True, "1", None, [1]))),
    "mu entry": lambda d, rng: d["mu"].__setitem__(
        _entry(d, "mu", rng), rng.choice(BAD_WEIGHTS + (True, "1", None))),
    "mu shape": lambda d, rng: d.update(mu=rng.choice(("x", d["mu"][:-1], {}))),
    "n": lambda d, rng: d.update(n=rng.choice(("5", True, 0, -1, 5.0))),
    "missing key": lambda d, rng: d.pop(rng.choice(("n", "mu", "edges", "f_edges"))),
    "not a list": lambda d, rng: d.update({rng.choice(("edges", "f_edges")): rng.choice(("x", {}))}),
    "edge out of range": _set_endpoint("edges", _out_of_range),
    "f-edge out of range": _set_endpoint("f_edges", _out_of_range),
    "edge reversed": _reverse("edges"),
    "f-edge reversed": _reverse("f_edges"),
    "duplicate edge": _repeat("edges"),
    "duplicate f-edge": _repeat("f_edges"),
    "weight value": lambda d, rng: d["edges"][_entry(d, "edges", rng)].__setitem__(
        2, rng.choice(BAD_WEIGHTS)),
    "not a host edge": _not_a_host_edge,
    "side": lambda d, rng: d.update(A=rng.choice(("x", [0, True], [0, "1"], [d["n"]], [-1]))),
}


def _library_outcome(fn, d):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeavyVertexWarning)
            result = fn(copy.deepcopy(d))
    except InputError as exc:
        assert type(exc) is InputError
        return "error", str(exc)
    if fn is graph_from_dict:
        return "ok", result.n, result.mu.tolist(), result.rho.tolist()
    P, A, B = result
    return "ok", P.n, P.graph.mu.tolist(), P.graph.rho.tolist(), P.f_mask.tolist(), A, B


def _reference_outcome(fn, d):
    try:
        return ("ok", *fn(copy.deepcopy(d)))
    except _oracles.EntryError as exc:
        return "error", str(exc)


def test_errors_match_the_per_entry_reference():
    """Seeded one- and two-fault mutations of small dicts: the array
    checks raise the reference's exception, message and cited entry,
    and accept what it accepts with the same arrays."""
    names = sorted(MUTATIONS)
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        d = _base_dict(rng)
        faults = rng.sample(names, 1 if seed % 3 else 2) if seed % 20 else []
        for name in faults:
            try:
                MUTATIONS[name](d, rng)
            except (KeyError, IndexError, TypeError, AttributeError, ValueError):
                pass  # an earlier fault removed what this one changes
        for new, ref in ((graph_from_dict, _oracles.graph_from_dict),
                         (pair_from_dict, _oracles.pair_from_dict)):
            expected = _reference_outcome(ref, d)
            assert _library_outcome(new, d) == expected, (seed, faults, d)
            seen.add(expected[0] if expected[0] == "ok" else expected[1])
    for part in ("ok", "expected [u, v, rho]", "expected [u, v]", "endpoints must be integers",
                 "weight must be a number", "need 0 <= u < v < n", "duplicate edge",
                 "edge weight must be finite and positive, got inf",
                 "vertex weight must be a positive finite number", "is not an edge of the host graph",
                 f"got ({BEYOND_INT64}", "vertex must be an integer", "must lie in"):
        assert any(part in s for s in seen), part


def test_pair_roundtrip_at_n300_is_bit_exact():
    P = random_subpair(203, 0, 300, unit_mu=False)
    A, B = list(range(0, 300, 3)), list(range(1, 300, 3))
    d = json.loads(json.dumps(pair_to_dict(P, A=A, B=B)))
    assert len(d["edges"]) > 20000
    Q, QA, QB = pair_from_dict(d)
    G = graph_from_dict(d)
    for H in (Q.graph, G):
        assert H.rho.tobytes() == P.graph.rho.tobytes()
        assert H.mu.tobytes() == P.graph.mu.tobytes()
    assert Q.f_mask.tobytes() == P.f_mask.tobytes()
    assert (QA, QB) == (A, B)
    n, mu, rho, f_mask, RA, RB = _oracles.pair_from_dict(d)
    assert np.array(rho).tobytes() == P.graph.rho.tobytes()
    assert np.array(f_mask).tobytes() == P.f_mask.tobytes()


# -- partitions ----------------------------------------------------------------


def test_partition_roundtrip():
    w0, clusters = [4], [[0, 1], [2, 3]]
    d = partition_to_dict(w0, clusters)
    assert d == {"clusters": [[4], [0, 1], [2, 3]]}
    rw0, rclusters = partition_from_dict(d, 5)
    assert rw0 == w0 and rclusters == clusters


def test_partition_w0_may_be_empty_but_clusters_not():
    rw0, rclusters = partition_from_dict({"clusters": [[], [0, 1]]}, 2)
    assert rw0 == [] and rclusters == [[0, 1]]
    with pytest.raises(InputError, match=r"clusters\[1\].*nonempty"):
        partition_from_dict({"clusters": [[0, 1], []]}, 2)


@pytest.mark.parametrize(
    "data, n, message",
    [
        ({"clusters": [[0], [1], [1]]}, 2, r"clusters\[2\]\[0\].*appears twice"),
        ({"clusters": [[0], [5]]}, 2, r"clusters\[1\]\[0\].*out of range"),
        ({"clusters": [[0]]}, 2, "covers 1 of 2"),
        ({"clusters": "x"}, 2, "'clusters' must be a nonempty list"),
        ({}, 2, "missing key 'clusters'"),
        ([], 2, "expected a JSON object"),
    ],
)
def test_partition_errors(data, n, message):
    with pytest.raises(InputError, match=message):
        partition_from_dict(data, n)


def test_load_partition(tmp_path):
    path = tmp_path / "part.json"
    path.write_text(json.dumps({"clusters": [[], [0], [1, 2]]}))
    w0, clusters = load_partition(path, 3)
    assert w0 == [] and clusters == [[0], [1, 2]]


# -- reports --------------------------------------------------------------------


def test_json_safe_handles_numpy_and_nonfinite():
    payload = {
        "a": np.int64(3),
        "b": np.float64(0.5),
        "c": np.array([1.0, 2.0]),
        "d": (np.bool_(True), float("inf"), float("-inf"), float("nan")),
        5: "key becomes string",
    }
    safe = json_safe(payload)
    assert safe == {
        "a": 3,
        "b": 0.5,
        "c": [1.0, 2.0],
        "d": [True, "inf", "-inf", "nan"],
        "5": "key becomes string",
    }
    json.dumps(safe)  # strict JSON


def test_dump_report_schema_and_timestamp_control():
    report = {"x": 1, "nested": {"v": np.float64(2.5)}}
    with_ts = json.loads(dump_report(report))
    assert with_ts["schema_version"] == SCHEMA_VERSION
    assert "generated_at" in with_ts
    text_a = dump_report(report, timestamp=False)
    text_b = dump_report(report, timestamp=False)
    assert text_a == text_b  # byte-stable without the timestamp
    assert "generated_at" not in json.loads(text_a)


# -- the written layout ----------------------------------------------------------

# strings that look like the layout's own punctuation, or need escaping
_AWKWARD = ["", "]", "},{", ",", "\x00", "]\x00[", "}\x00{", "a\nb", '"', "\\", "é ü 漢 😀", " : "]


def _scalar(rng):
    return rng.choice([
        lambda: rng.randint(-10**20, 10**20),
        lambda: rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12),
        lambda: rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 5e-324]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(_AWKWARD),
        lambda: np.int64(rng.randint(-99, 99)),
        lambda: np.int32(rng.randint(-99, 99)),
        lambda: np.float64(rng.choice([0.1, -0.0, math.nan, -math.inf])),
        lambda: np.float32(0.1),
        lambda: np.bool_(rng.random() < 0.5),
        lambda: np.arange(rng.randrange(4)) / 3.0,
        lambda: np.array([[1, 2], [3, 4]], dtype=np.int64),
    ])()


def _key(rng):
    return rng.choice([rng.choice(_AWKWARD), f"k{rng.randrange(4)}", rng.randint(-2, 2), 1.5,
                       True, None, np.int64(3)])


def _payload(rng, depth=0):
    """A random nested payload; rows of one kind are common, as in reports."""
    if depth >= 4 or rng.random() < 0.25:
        return _scalar(rng)
    size = rng.choice([0, 1, 2, 3, 6])
    kind = rng.randrange(5)
    if kind == 0:
        return {_key(rng): _payload(rng, depth + 1) for _ in range(size)}
    if kind == 1:
        items = [_payload(rng, depth + 1) for _ in range(size)]
        return tuple(items) if rng.random() < 0.3 else items
    if kind == 2:  # flat dict rows, now and then an odd value or an empty row
        keys = ["i", "j", "passed", "value", rng.choice(_AWKWARD)]
        return [{k: rng.random() if rng.random() < 0.9 else _scalar(rng)
                 for k in keys[:rng.choice([0, 3, 5, 5])]} for _ in range(size)]
    if kind == 3:  # flat [u, v, rho] rows, as lists or tuples
        rows = [[rng.randrange(9), rng.randrange(9), rng.random() if rng.random() < 0.9 else _scalar(rng)]
                [:rng.choice([0, 3, 3, 3])] for _ in range(size)]
        return [tuple(r) if rng.random() < 0.2 else r for r in rows]
    return [_scalar(rng) for _ in range(size)]


@pytest.mark.parametrize("seed", range(8))
def test_json_text_is_the_indented_stdlib_text_of_json_safe(seed):
    rng = random.Random(seed)
    for _ in range(250):
        payload = _payload(rng)
        assert json_text(payload) == json.dumps(json_safe(payload), indent=2, sort_keys=True)


def test_json_text_rejects_what_json_safe_leaves_unencodable():
    for payload in ({"x": [1.0, object()]}, [{"a": 1j}]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(json_safe(payload), indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text(payload)


def test_save_graph_bytes_are_pinned(tmp_path):
    # the file layout is a stable contract (README, "File formats")
    path = tmp_path / "g.json"
    save_graph(random_graph(203, 0, 9, p=0.6), path, extra={"model": {"kind": "test", "seed": 0}})
    text = path.read_text()
    assert text.startswith('{\n  "edges": [\n    [\n      0,\n') and text.endswith("\n}\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6ea362670d9522824f282988502b23f50b4b796ecf7bacb83b8ff937768a2b71"
    )
