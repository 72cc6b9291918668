"""Graph primitives: validation, masses, densities, normalization,
inner product.  Numeric cross-checks run against the pure-python
oracles in _oracles.py."""

import warnings
from math import comb

import numpy as np
import pytest

from regulab import (
    EdgeFunction,
    HeavyVertexWarning,
    InputError,
    SubgraphPair,
    WeightedGraph,
    check_pair,
    global_density,
    index_array,
    inner_product,
    mu_sum,
    norm,
    normalize,
    rho_sum,
    weighted_density,
)
from regulab.core import is_normalized

import _oracles as oracle
from _helpers import complete_graph, random_graph, random_subpair


# -- construction and validation ------------------------------------------


def test_complete_graph_basic_views():
    G = complete_graph(4)
    assert G.edge_count == 6
    assert G.pair_count == 6
    assert G.mu_total == 4.0
    assert G.rho_total == 6.0
    assert G.edge_list() == [
        (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
        (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
    ]
    assert G.edge_mask.sum() == 12  # symmetric counting


@pytest.mark.parametrize(
    "mu, rho, message",
    [
        ([1.0, -1.0], np.zeros((2, 2)), "strictly positive"),
        ([1.0, 0.0], np.zeros((2, 2)), "strictly positive"),
        ([1.0], np.zeros((2, 2)), "expected 2 vertex weights"),
        ([1.0, 1.0], np.ones((2, 2)), "diagonal must be zero"),
        ([1.0, 1.0], np.array([[0.0, 1.0], [2.0, 0.0]]), "exactly symmetric"),
        ([1.0, 1.0], np.array([[0.0, -1.0], [-1.0, 0.0]]), "nonnegative"),
        ([1.0, 1.0], np.zeros((3, 3)), "expected shape"),
    ],
)
def test_graph_validation_errors(mu, rho, message):
    with pytest.raises(InputError, match=message):
        WeightedGraph(n=2, mu=np.asarray(mu), rho=rho)


def test_graph_needs_a_vertex():
    with pytest.raises(InputError, match="at least one vertex"):
        WeightedGraph(n=0, mu=np.zeros(0), rho=np.zeros((0, 0)))


def test_from_edges_roundtrip_and_errors():
    G = WeightedGraph.from_edges(4, np.ones(4), [(0, 1, 2.0), (2, 3, 0.5)])
    assert G.edge_list() == [(0, 1, 2.0), (2, 3, 0.5)]
    with pytest.raises(InputError, match=r"edges\[1\].*duplicate"):
        WeightedGraph.from_edges(4, np.ones(4), [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(InputError, match=r"edges\[0\].*0 <= u < v < n"):
        WeightedGraph.from_edges(4, np.ones(4), [(1, 0, 1.0)])
    with pytest.raises(InputError, match=r"edges\[0\].*positive"):
        WeightedGraph.from_edges(4, np.ones(4), [(0, 1, 0.0)])
    with pytest.raises(InputError, match=r"edges\[0\].*integers"):
        WeightedGraph.from_edges(4, np.ones(4), [(0.5, 1, 1.0)])


def test_arrays_are_frozen():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        G.mu[0] = 2.0
    with pytest.raises(ValueError):
        G.rho[0, 1] = 2.0


def test_heavy_vertex_warning_requires_both_conditions():
    rho = np.ones((5, 5)) - np.eye(5)
    # uniform masses: every vertex holds 20% of the total but exactly the
    # average share, so no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        WeightedGraph(n=5, mu=np.ones(5), rho=rho)
    # one dominant vertex: above a tenth of the total and twice the average
    with pytest.warns(HeavyVertexWarning):
        WeightedGraph(n=5, mu=np.array([10.0, 1, 1, 1, 1]), rho=rho)
    # large graph, one vertex at 2.5x average but under 10% of the total
    n = 30
    mu = np.ones(n)
    mu[0] = 2.5
    rho = np.ones((n, n)) - np.eye(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        WeightedGraph(n=n, mu=mu, rho=rho)


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_heavy_vertex_warning_does_not_depend_on_the_unit_of_mass(scale):
    # the slack scales with mu(V): an absolute one hid the heavy vertex
    # once the masses were small enough
    with pytest.warns(HeavyVertexWarning):
        WeightedGraph(n=4, mu=np.array([1.0, 0.1, 0.1, 0.1]) * scale, rho=np.zeros((4, 4)))


def test_index_array_sorts_dedups_and_checks_range():
    assert index_array(5, [3, 1, 3, 0]).tolist() == [0, 1, 3]
    with pytest.raises(InputError, match="lie in"):
        index_array(5, [5])
    with pytest.raises(InputError, match="lie in"):
        index_array(5, [-1])


@pytest.mark.parametrize("side", [[0.9, 1.2], [True], [1, 2.0], np.array([0.0, 1.0])],
                         ids=["floats", "bool", "integral float", "float array"])
def test_index_array_rejects_entries_that_are_not_integers(side):
    with pytest.raises(InputError, match=r"^A: vertex indices must be integers$"):
        index_array(5, side, "A")


@pytest.mark.parametrize("side", [[10**30], [-(10**30)], [2**63], np.array([2**63], np.uint64)])
def test_index_array_treats_integers_beyond_int64_as_out_of_range(side):
    with pytest.raises(InputError, match=r"^A: vertex indices must lie in \[0, 5\)$"):
        index_array(5, side, "A")


def test_index_array_keeps_numpy_integers():
    assert index_array(5, np.array([4, 1, 4], np.uint8)).tolist() == [1, 4]
    assert index_array(5, [np.int64(3), 0]).tolist() == [0, 3]


def test_check_pair_rejects_sides_that_are_not_integers():
    P = SubgraphPair.full(complete_graph(4))
    with pytest.raises(InputError, match="A: vertex indices must be integers"):
        check_pair(P, [0.9, 1.2], [2.5, 3], 0.3)
    with pytest.raises(InputError, match="A: vertex indices must be integers"):
        check_pair(P, [True], [2, 3], 0.3)
    with pytest.raises(InputError, match="B: vertex indices must lie in"):
        check_pair(P, [0, 1], [10**30], 0.3)


# -- subgraph pairs --------------------------------------------------------


def test_subgraph_pair_mask_and_edges():
    G = complete_graph(4)
    P = SubgraphPair.from_edges(G, [(0, 1), (2, 3)])
    assert P.f_edge_list() == [(0, 1), (2, 3)]
    assert P.rho_f[0, 1] == 1.0 and P.rho_f[0, 2] == 0.0
    assert P.indicator().values[1, 0] == 1.0
    full = SubgraphPair.full(G)
    assert full.f_edge_list() == [(u, v) for u, v, _ in G.edge_list()]


def test_subgraph_pair_rejects_non_edges_and_duplicates():
    G = WeightedGraph.from_edges(3, np.ones(3), [(0, 1, 1.0)])
    with pytest.raises(InputError, match="not an edge"):
        SubgraphPair.from_edges(G, [(1, 2)])
    with pytest.raises(InputError, match="duplicate"):
        SubgraphPair.from_edges(G, [(0, 1), (0, 1)])
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 2] = bad[2, 0] = True
    with pytest.raises(InputError, match="subset of the host"):
        SubgraphPair(graph=G, f_mask=bad)


# -- edge functions ---------------------------------------------------------


def test_edge_function_validation_and_arithmetic():
    with pytest.raises(InputError, match="exactly symmetric"):
        EdgeFunction(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="diagonal"):
        EdgeFunction(np.eye(2))
    # symmetry is exact: NaN equals nothing, and one ulp is an asymmetry
    with pytest.raises(InputError, match="exactly symmetric"):
        EdgeFunction(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(InputError, match="exactly symmetric"):
        EdgeFunction(np.array([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]]))
    assert EdgeFunction(np.array([[0.0, -0.0], [0.0, 0.0]])).values[0, 1] == 0.0
    assert EdgeFunction(np.array([[0.0, np.inf], [np.inf, 0.0]])).values[1, 0] == np.inf
    f = EdgeFunction.cross_indicator(4, [0, 1], [2, 3])
    g = EdgeFunction.zeros(4)
    assert ((f + g).values == f.values).all()
    assert ((2.0 * f - f).values == f.values).all()
    assert ((-f).values == -f.values).all()
    with pytest.raises(InputError, match="disjoint"):
        EdgeFunction.cross_indicator(4, [0, 1], [1, 2])


# -- masses and densities ----------------------------------------------------


def test_rho_sum_ordered_convention():
    G = complete_graph(4)
    assert rho_sum(G, range(4), range(4)) == 2.0 * G.rho_total
    assert rho_sum(G, [0, 1], [2, 3]) == 4.0
    assert rho_sum(G, [], [1]) == 0.0
    assert mu_sum(G, [0, 2]) == 2.0


def test_weighted_density_on_complete_graph():
    G = complete_graph(6)
    assert weighted_density(G, [0, 1, 2], [3, 4, 5]) == 1.0
    P = SubgraphPair.from_edges(G, [(0, 3)])
    assert weighted_density(P, [0, 1, 2], [3, 4, 5]) == pytest.approx(1.0 / 9.0)
    with pytest.raises(InputError, match="disjoint"):
        weighted_density(G, [0, 1], [1, 2])
    with pytest.raises(InputError, match="nonempty"):
        weighted_density(G, [], [1, 2])


@pytest.mark.parametrize("k", range(6))
def test_global_density_matches_oracle(k):
    G = random_graph(100, k, 7)
    expected = oracle.global_density(G.mu.tolist(), G.rho.tolist())
    assert global_density(G) == pytest.approx(expected, rel=1e-12)


# -- normalization -----------------------------------------------------------


@pytest.mark.parametrize("k", range(5))
def test_normalize_invariants_and_idempotence(k):
    G = random_graph(101, k, 8)
    H, scales = normalize(G)
    assert H.mu_total == pytest.approx(H.n, rel=1e-12)
    assert H.rho_total == pytest.approx(comb(H.n, 2), rel=1e-12)
    assert is_normalized(H)
    assert norm(H, np.ones((H.n, H.n)) - np.eye(H.n)) == pytest.approx(1.0, rel=1e-12)
    # scales recover the original weights
    assert np.allclose(H.mu / scales.mu_scale, G.mu, rtol=1e-12, atol=0.0)
    H2, scales2 = normalize(H)
    assert scales2.mu_scale == pytest.approx(1.0, rel=1e-12)
    assert scales2.rho_scale == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(H2.rho, H.rho, rtol=1e-12, atol=0.0)


def test_normalize_rejects_edgeless():
    G = WeightedGraph(n=3, mu=np.ones(3), rho=np.zeros((3, 3)))
    with pytest.raises(InputError, match="no edges"):
        normalize(G)
    assert not is_normalized(G)


def test_complete_graph_is_already_normalized():
    assert is_normalized(complete_graph(5))


# -- inner product ------------------------------------------------------------


@pytest.mark.parametrize("k", range(5))
def test_inner_product_matches_oracle(k):
    G = random_graph(102, k, 7)
    rng = np.random.default_rng([102, k, 9])
    g = np.triu(rng.uniform(-1, 1, (7, 7)), k=1)
    g = g + g.T
    h = np.triu(rng.uniform(-1, 1, (7, 7)), k=1)
    h = h + h.T
    expected = oracle.inner(G.rho.tolist(), g.tolist(), h.tolist())
    assert inner_product(G, g, h) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("k", range(4))
def test_cauchy_schwarz_and_indicator_norm(k):
    P = random_subpair(103, k, 9)
    G, _ = normalize(P.graph)
    P = SubgraphPair(graph=G, f_mask=P.f_mask)
    f = P.indicator()
    ones = np.ones((9, 9)) - np.eye(9)
    assert norm(G, f) <= 1.0 + 1e-12  # 1_F sits under the unit all-ones
    lhs = abs(inner_product(G, f, ones))
    assert lhs <= norm(G, f) * norm(G, ones) + 1e-12


def test_inner_product_ignores_off_edge_values():
    G = WeightedGraph.from_edges(3, np.ones(3), [(0, 1, 2.0)])
    g = np.zeros((3, 3))
    g[0, 2] = g[2, 0] = 99.0  # not an edge: contributes nothing
    g[0, 1] = g[1, 0] = 1.0
    assert inner_product(G, g, g) == pytest.approx(2.0 / 3.0)
