"""Reference models: inverse-probability random graphs, concentration
sampling, stars, volume weights, and the half-dense counterexample."""

import numpy as np
import pytest

from regulab import (
    Counterexample,
    InputError,
    ProbMatrixSpec,
    SubgraphPair,
    check_pair,
    check_volume_pair,
    chernoff_K,
    concentration_test,
    gen_gnpij,
    global_density,
    make_counterexample,
    make_star,
    rho_sum,
    volume_density,
    volume_weights,
    weighted_density,
)

import _oracles as oracle
from _helpers import random_unweighted_edges


# -- probability specs ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InputError, match=r"p must lie"):
        ProbMatrixSpec.constant(0.0)
    with pytest.raises(InputError, match=r"p must lie"):
        ProbMatrixSpec.constant(1.2)
    with pytest.raises(InputError, match="low <= high"):
        ProbMatrixSpec.uniform(0.0, 0.5)
    with pytest.raises(InputError, match="low <= high"):
        ProbMatrixSpec.uniform(0.6, 0.4)
    with pytest.raises(InputError, match="square"):
        ProbMatrixSpec.explicit(np.ones((2, 3)))
    with pytest.raises(InputError, match="symmetric"):
        ProbMatrixSpec.explicit(np.array([[0.0, 0.2], [0.3, 0.0]]))
    with pytest.raises(InputError, match="off-diagonal"):
        ProbMatrixSpec.explicit(np.array([[0.0, 1.5], [1.5, 0.0]]))
    with pytest.raises(InputError, match="nonempty"):
        ProbMatrixSpec.rank_one([])
    with pytest.raises(InputError, match=r"\(0, 1\]"):
        ProbMatrixSpec.rank_one([0.5, 1.3])


def test_spec_materialize_shapes():
    rng = np.random.default_rng(0)
    for spec in (
        ProbMatrixSpec.constant(0.4),
        ProbMatrixSpec.uniform(0.2, 0.8),
        ProbMatrixSpec.rank_one([0.9, 0.8, 0.7, 0.6]),
        ProbMatrixSpec.explicit(0.5 * (np.ones((4, 4)) - np.eye(4))),
    ):
        P = spec.materialize(4, rng)
        assert P.shape == (4, 4)
        assert np.array_equal(P, P.T)
        assert np.all(np.diag(P) == 0.0)
        off = P[~np.eye(4, dtype=bool)]
        assert np.all((off > 0.0) & (off <= 1.0))


def test_rank_one_is_the_outer_product():
    x = np.array([0.9, 0.5, 0.4])
    P = ProbMatrixSpec.rank_one(x).materialize(3, np.random.default_rng(0))
    assert P[0, 1] == pytest.approx(0.45)
    assert P[1, 2] == pytest.approx(0.2)


def test_materialize_size_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match="expected"):
        ProbMatrixSpec.explicit(0.5 * (np.ones((3, 3)) - np.eye(3))).materialize(4, rng)
    with pytest.raises(InputError, match="expected"):
        ProbMatrixSpec.rank_one([0.5, 0.5]).materialize(3, rng)
    with pytest.raises(InputError, match="unknown probability spec"):
        ProbMatrixSpec(kind="zigzag").materialize(3, rng)


# -- sampling ------------------------------------------------------------------


def test_gen_is_deterministic_in_the_seed():
    spec = ProbMatrixSpec.uniform(0.2, 0.8)
    G1 = gen_gnpij(30, spec, seed=9)
    G2 = gen_gnpij(30, spec, seed=9)
    assert np.array_equal(G1.rho, G2.rho)
    assert not np.array_equal(G1.rho, gen_gnpij(30, spec, seed=10).rho)


def test_gen_constant_half_sample():
    G = gen_gnpij(100, ProbMatrixSpec.constant(0.5), seed=7)
    assert G.edge_count == 2522
    assert G.rho_total == 5044.0  # every sampled weight is exactly 1/0.5
    w = G.rho[G.edge_mask]
    assert np.all(w == 2.0)
    assert np.all(G.mu == 1.0)


def test_gen_explicit_weights_are_reciprocal_probabilities():
    P = np.array([
        [0.0, 0.25, 0.5],
        [0.25, 0.0, 1.0],
        [0.5, 1.0, 0.0],
    ])
    G = gen_gnpij(3, ProbMatrixSpec.explicit(P), seed=0)
    for u in range(3):
        for v in range(u + 1, 3):
            if G.rho[u, v]:
                assert G.rho[u, v] == 1.0 / P[u, v]
    assert G.rho[1, 2] == 1.0  # p = 1 edges always appear


def test_gen_validation():
    with pytest.raises(InputError, match="at least two"):
        gen_gnpij(1, ProbMatrixSpec.constant(0.5), seed=0)
    lop = np.array([[0.0, 0.2], [0.2, 0.0]])
    with pytest.raises(InputError, match="below the requested floor"):
        gen_gnpij(2, ProbMatrixSpec.explicit(lop), seed=0, p_min=0.3)


# -- concentration --------------------------------------------------------------


def test_chernoff_constant():
    assert chernoff_K(0.5) == 307200.0
    with pytest.raises(InputError, match="beta"):
        chernoff_K(0.0)
    with pytest.raises(InputError, match="beta"):
        chernoff_K(1.0)


def test_concentration_report_is_internally_consistent():
    G = gen_gnpij(300, ProbMatrixSpec.constant(0.5), seed=2)
    rep = concentration_test(G, 0.3, seed=3)
    assert (rep.size_min, rep.size_max) == (90, 100)
    assert rep.threshold == 0.15
    assert rep.n_samples == 200
    assert rep.mean_deviation <= rep.max_deviation
    assert rep.passed == (rep.max_deviation < 0.15)
    A, B = rep.worst_pair
    dev = abs(rho_sum(G, list(A), list(B)) / (len(A) * len(B)) - 1.0)
    assert dev == pytest.approx(rep.max_deviation, rel=1e-12)
    d = rep.to_dict()
    assert d["worst_pair"]["A"] == list(A)


def test_concentration_infeasible_sizes():
    G = gen_gnpij(12, ProbMatrixSpec.constant(0.5), seed=0)
    with pytest.raises(InputError, match=r"infeasible sample sizes \[5, 4\]"):
        concentration_test(G, 0.4, seed=0)
    with pytest.raises(InputError, match="beta"):
        concentration_test(G, 1.5, seed=0, size_range=(1, 2))


# -- stars -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 9, 17])
def test_star_totals_are_exact(n):
    # 1/(2(n-1)) is dyadic for these n, so the totals come out exact
    S = make_star(n)
    assert S.mu_total == 1.0
    assert S.rho_total == n * (n - 1) / 2.0
    assert global_density(S) == float(n * (n - 1))


def test_star_hub_leaves_pair_is_regular_at_every_eps():
    S = make_star(8)
    P = SubgraphPair.full(S)
    leaves = list(range(1, 8))
    for eps in (0.1, 0.3, 0.5):
        v = check_pair(P, [0], leaves, eps, mode="exhaustive")
        assert v.passed
        assert v.worst_deviation < 1e-12
        assert v.base_density == pytest.approx(112.0)


def test_star_validation():
    with pytest.raises(InputError, match="at least two"):
        make_star(1)


# -- volume weights ---------------------------------------------------------------


def test_volume_weights_unit_global_density():
    edges = random_unweighted_edges(700, 0, 20, p=0.4, min_degree=1)
    G = volume_weights(20, edges)
    assert global_density(G) == pytest.approx(1.0, rel=1e-12)
    assert G.mu_total == pytest.approx(20.0, rel=1e-12)
    deg = sum(2 for _ in edges)
    assert np.all(G.rho[G.edge_mask] == pytest.approx(400.0 / deg, rel=1e-12))


def test_volume_weights_reject_isolated_vertices():
    with pytest.raises(InputError, match="vertex 2 is isolated"):
        volume_weights(3, [(0, 1)])


def test_volume_density_equals_weighted_density():
    edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
    G = volume_weights(4, edges)
    P = SubgraphPair.full(G)
    for X, Y in ([(0,), (1,)], [(0, 1), (2, 3)], [(3,), (0, 1)]):
        assert volume_density(4, edges, X, Y) == pytest.approx(
            weighted_density(P, list(X), list(Y)), rel=1e-12
        )


def test_volume_density_validation():
    edges = [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(InputError, match="disjoint"):
        volume_density(4, edges, [0, 1], [1, 2])
    with pytest.raises(InputError, match="duplicate edge"):
        volume_density(3, [(0, 1), (0, 1)], [0], [1])
    with pytest.raises(InputError, match="distinct endpoints"):
        volume_density(3, [(0, 0)], [0], [1])
    with pytest.raises(InputError, match=r"^edges\[2\]: duplicate edge \(1, 0\)$"):
        volume_density(3, [(0, 1), (1, 2), (1, 0)], [0], [1])


@pytest.mark.parametrize("bad", [(0.0, 1), (True, 2), (1, "2")])
def test_volume_models_reject_endpoints_that_are_not_integers(bad):
    # a float endpoint used to escape as numpy's IndexError, a boolean
    # one as a ValueError
    edges = [(0, 2), bad, (1, 2)]
    message = r"^edges\[1\]: endpoints must be integers$"
    with pytest.raises(InputError, match=message):
        volume_weights(3, edges)
    with pytest.raises(InputError, match=message):
        volume_density(3, edges, [0], [1])
    with pytest.raises(InputError, match=message):
        check_volume_pair(3, edges, [0], [1], 0.3)


@pytest.mark.parametrize("k", range(5))
def test_volume_pair_matches_oracle(k):
    edges = random_unweighted_edges(701, k, 10, p=0.5, min_degree=1)
    A, B = list(range(5)), list(range(5, 10))
    v = check_volume_pair(10, edges, A, B, 0.3, mode="exhaustive")
    worst, threshold = oracle.volume_worst(10, edges, A, B, 0.3)
    assert v.worst_deviation == pytest.approx(worst, rel=1e-12, abs=1e-12)
    assert v.threshold == pytest.approx(threshold, rel=1e-12)
    assert v.passed == (v.worst_deviation < v.threshold)
    assert v.form == "volume"
    assert v.deviation_bound() == v.threshold


@pytest.mark.parametrize("k", range(5))
def test_volume_search_never_beats_exhaustive(k):
    edges = random_unweighted_edges(702, k, 10, p=0.5, min_degree=1)
    A, B = list(range(5)), list(range(5, 10))
    ve = check_volume_pair(10, edges, A, B, 0.3, mode="exhaustive")
    vs = check_volume_pair(10, edges, A, B, 0.3, mode="search", seed=k, restarts=32)
    assert vs.worst_deviation <= ve.worst_deviation + 1e-9
    if not vs.passed:
        assert not ve.passed


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("eps", [0.4, 0.5])
def test_weighted_regularity_implies_volume_regularity(k, eps):
    edges = random_unweighted_edges(703, k, 12, p=0.7, min_degree=1)
    A, B = list(range(6)), list(range(6, 12))
    wv = check_pair(
        SubgraphPair.full(volume_weights(12, edges)), A, B, eps, mode="exhaustive"
    )
    vv = check_volume_pair(12, edges, A, B, eps, mode="exhaustive")
    assert not (wv.passed and not vv.passed)


def test_volume_pair_validation():
    edges = [(0, 1), (2, 3)]
    with pytest.raises(InputError, match="eps"):
        check_volume_pair(4, edges, [0], [2], 0.0)
    with pytest.raises(InputError, match="unknown mode"):
        check_volume_pair(4, edges, [0], [2], 0.3, mode="guess")
    with pytest.raises(InputError, match="disjoint"):
        check_volume_pair(4, edges, [0, 1], [1, 2], 0.3)
    with pytest.raises(InputError, match="nonempty"):
        check_volume_pair(4, edges, [], [2], 0.3)
    with pytest.raises(InputError, match="carry volume"):
        check_volume_pair(5, [(2, 3)], [0], [2], 0.3)


# -- the counterexample --------------------------------------------------------------


def test_counterexample_structure():
    cx = make_counterexample(16, seed=0)
    q = 4
    assert len(cx.det_edges) == 3 * q * q
    parts = cx.parts
    assert parts["A"] == parts["A1"] + parts["A2"]
    assert parts["B"] == parts["B1"] + parts["B2"]
    a2, b2 = set(parts["A2"]), set(parts["B2"])
    assert all(u in a2 and v in b2 for u, v in cx.random_edges)
    assert cx.p_random == 0.25
    adj = cx.adjacency()
    assert np.array_equal(adj, adj.T)
    # A1 x B and A2 x B1 are complete
    assert adj[np.ix_(parts["A1"], parts["B"])].all()
    assert adj[np.ix_(parts["A2"], parts["B1"])].all()


def test_counterexample_reciprocal_weights():
    cx = make_counterexample(16, seed=3)
    G = cx.reciprocal_graph()
    assert np.all(G.mu == 1.0)
    u, v = cx.det_edges[0]
    assert G.rho[u, v] == 1.0
    if cx.random_edges:
        u, v = cx.random_edges[0]
        assert G.rho[u, v] == 4.0  # 1 / p = sqrt(n)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_counterexample_edge_count_concentrates(seed):
    n = 100
    cx = make_counterexample(n, seed=seed)
    q = n // 4
    expected = q * q * cx.p_random
    se = np.sqrt(q * q * cx.p_random * (1.0 - cx.p_random))
    assert abs(len(cx.random_edges) - expected) <= 3.0 * se


def test_counterexample_validation():
    with pytest.raises(InputError, match="divisible by 4"):
        make_counterexample(10, seed=0)
    with pytest.raises(InputError, match="divisible by 4"):
        make_counterexample(4, seed=0)
