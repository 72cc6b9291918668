"""Basic functions, correlation maximization, clipped projection, and
the greedy structured + pseudorandom + small decomposition."""

import numpy as np
import pytest

from regulab import (
    BasicFunction,
    EdgeFunction,
    InputError,
    basic_inner,
    best_basic_exhaustive,
    best_basic_search,
    correlation,
    inner_product,
    norm,
    normalize,
    project_structured,
    strong_decompose,
)

import _oracles as oracle
from _helpers import complete_graph, random_graph, random_subpair, random_symmetric_values


def bipartite_indicator(n, split):
    return EdgeFunction.cross_indicator(n, range(split), range(split, n))


# -- BasicFunction -------------------------------------------------------------


def test_basic_function_sorts_and_dedups():
    bf = BasicFunction(6, (3, 1, 3), (0, 5, 5))
    assert bf.a == (1, 3)
    assert bf.b == (0, 5)


def test_basic_function_validation():
    with pytest.raises(InputError, match="disjoint"):
        BasicFunction(4, (0, 1), (1, 2))
    with pytest.raises(InputError, match="out of range"):
        BasicFunction(3, (5,), (0,))
    with pytest.raises(InputError, match="out of range"):
        BasicFunction(3, (0,), (-1,))


@pytest.mark.parametrize("bad", [0.9, True, "1"])
def test_basic_function_rejects_vertices_that_are_not_integers(bad):
    # these used to be cast: 0.9 to vertex 0, True and "1" to vertex 1
    with pytest.raises(InputError, match="^A: vertex indices must be integers$"):
        BasicFunction(5, (bad,), (2,))
    with pytest.raises(InputError, match="^B: vertex indices must be integers$"):
        BasicFunction(5, (2,), (3, bad))
    assert BasicFunction(5, (np.int64(1),), (2,)).a == (1,)


def test_same_support_ignores_orientation():
    p = BasicFunction(4, (0,), (1, 2))
    assert p.same_support(BasicFunction(4, (1, 2), (0,)))
    assert p.same_support(BasicFunction(4, (0,), (2, 1)))
    assert not p.same_support(BasicFunction(4, (0,), (1,)))


def test_indicator_matches_cross_indicator():
    bf = BasicFunction(5, (0, 2), (3,))
    vals = bf.indicator().values
    assert vals[0, 3] == vals[3, 0] == vals[2, 3] == 1.0
    assert vals[0, 2] == 0.0 and vals.sum() == 4.0


# -- correlation and inner products ---------------------------------------------


@pytest.mark.parametrize("k", range(5))
def test_correlation_is_the_weighted_inner_product(k):
    G = random_graph(500, k, 7, p=0.6)
    r = EdgeFunction(random_symmetric_values(500, k, 7))
    A, B = [0, 2, 4], [1, 5]
    gamma = BasicFunction(7, A, B)
    c = correlation(G, r, A, B)
    assert c == pytest.approx(
        oracle.inner(G.rho.tolist(), r.values.tolist(), gamma.indicator().values.tolist()),
        rel=1e-12, abs=1e-15,
    )
    assert c == pytest.approx(inner_product(G, r, gamma.indicator()), rel=1e-12, abs=1e-15)


def test_correlation_requires_disjoint_sides():
    G = complete_graph(4)
    with pytest.raises(InputError, match="disjoint"):
        correlation(G, EdgeFunction.zeros(4), [0, 1], [1, 2])


@pytest.mark.parametrize("k", range(5))
def test_basic_inner_matches_materialized_indicators(k):
    G = random_graph(501, k, 8, p=0.7)
    rng = np.random.default_rng([501, k, 9])
    roles = rng.integers(0, 3, size=(2, 8))
    pairs = []
    for row in roles:
        a = tuple(np.flatnonzero(row == 1)) or (0,)
        b = tuple(np.flatnonzero(row == 2)) or (7,)
        if set(a) & set(b):
            b = tuple(x for x in b if x not in a) or ((7,) if 7 not in a else (6,))
        pairs.append(BasicFunction(8, a, b))
    p, q = pairs
    assert basic_inner(G, p, q) == pytest.approx(
        inner_product(G, p.indicator(), q.indicator()), rel=1e-12, abs=1e-15
    )


# -- correlation maximization ------------------------------------------------


@pytest.mark.parametrize("k", range(6))
def test_best_basic_exhaustive_matches_oracle(k):
    G = random_graph(502, k, 6, p=0.6)
    r = EdgeFunction(random_symmetric_values(502, k, 6))
    bf, corr = best_basic_exhaustive(G, r)
    best = oracle.best_basic(G.mu.tolist(), G.rho.tolist(), r.values.tolist())
    assert abs(corr) == pytest.approx(best, rel=1e-12, abs=1e-15)
    # the returned pair achieves the returned correlation
    assert correlation(G, r, bf.a, bf.b) == pytest.approx(corr, rel=1e-12, abs=1e-15)


def test_best_basic_zero_function_returns_empty_pair():
    G = complete_graph(5)
    bf, corr = best_basic_exhaustive(G, EdgeFunction.zeros(5))
    assert corr == 0.0
    assert bf.a == () and bf.b == ()


@pytest.mark.parametrize("k", range(6))
def test_search_never_beats_exhaustive(k):
    G = random_graph(503, k, 8, p=0.6)
    r = EdgeFunction(random_symmetric_values(503, k, 8))
    _, exh = best_basic_exhaustive(G, r)
    _, srch = best_basic_search(G, r, seed=k, restarts=32)
    assert abs(srch) <= abs(exh) + 1e-12


def test_exhaustive_cap():
    G = complete_graph(13)
    with pytest.raises(InputError, match="capped"):
        best_basic_exhaustive(G, EdgeFunction.zeros(13))


# -- projection ------------------------------------------------------------------


def test_single_term_projection_coefficient():
    G = random_graph(504, 0, 7, p=0.7)
    f = EdgeFunction(random_symmetric_values(504, 0, 7))
    gamma = BasicFunction(7, (0, 1, 2), (3, 4))
    res = project_structured(G, f, [gamma], k_bound=100.0)
    expected = inner_product(G, f, gamma.indicator()) / basic_inner(G, gamma, gamma)
    assert res.coefficients[0] == pytest.approx(expected, rel=1e-12)
    assert not res.clipped and res.ridge == 0.0 and not res.degenerate
    assert res.f_proj is res.f_proj_raw


def test_projection_clips_to_the_coefficient_bound():
    G = complete_graph(4)
    gamma = BasicFunction(4, (0,), (1,))
    vals = np.zeros((4, 4))
    vals[0, 1] = vals[1, 0] = 3.0
    res = project_structured(G, EdgeFunction(vals), [gamma], k_bound=1.0)
    assert res.raw[0] == pytest.approx(3.0, rel=1e-12)
    assert res.coefficients == (1.0,)
    assert res.clipped
    assert not np.array_equal(res.f_proj.values, res.f_proj_raw.values)


def test_duplicate_basis_triggers_the_ridge():
    G = complete_graph(5)
    gamma = BasicFunction(5, (0, 1), (2, 3))
    f = bipartite_indicator(5, 2)
    res = project_structured(G, f, [gamma, gamma], k_bound=10.0)
    assert res.ridge > 0.0
    assert np.all(np.isfinite(res.coefficients))


def test_empty_basis_projects_to_zero():
    G = complete_graph(4)
    res = project_structured(G, bipartite_indicator(4, 2), [], k_bound=1.0)
    assert res.coefficients == ()
    assert not res.f_proj.values.any()


def test_projection_kbound_validation():
    G = complete_graph(4)
    gamma = BasicFunction(4, (0,), (1,))
    with pytest.raises(InputError, match="k_bound"):
        project_structured(G, EdgeFunction.zeros(4), [gamma], k_bound=0.0)


# -- strong decomposition -----------------------------------------------------------


def test_bipartite_mask_decomposes_in_one_term():
    # f = the K4,4 cross indicator inside K8: one basic function captures it
    G = complete_graph(8)
    f = bipartite_indicator(8, 4)
    dec = strong_decompose(
        G, f, eps=0.5, J=lambda m: 10.0 * m * m, mode="exhaustive", seed=0
    )
    assert dec.M == 1
    coeff, bf = dec.terms[0]
    assert coeff == 1.0
    assert bf.same_support(BasicFunction(8, (0, 1, 2, 3), (4, 5, 6, 7)))
    assert dec.stop_reason == "pseudorandom"
    assert dec.certified
    assert dec.psd_certificate == 0.0
    assert dec.cert_bound == 0.1
    assert dec.err_norm == 0.0
    assert not dec.f_psd.values.any() and not dec.f_err.values.any()
    h = dec.energy_history
    assert len(h) == 1
    assert h[0]["correlation"] == pytest.approx(4.0 / 7.0, rel=1e-15)
    assert h[0]["energy_raw"] == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert h[0]["threshold"] == 0.1
    assert not h[0]["clipped"] and h[0]["ridge"] == 0.0
    assert set(h[0]) == {
        "M", "correlation", "threshold", "energy_raw", "energy", "clipped", "ridge",
    }


@pytest.mark.parametrize("k", range(6))
def test_three_part_identity_and_energy_monotonicity(k):
    P = random_subpair(505, k, 8, p_host=0.7, p_keep=0.6)
    G, _ = normalize(P.graph)
    f = P.indicator()
    dec = strong_decompose(
        G, f, eps=0.2, J=lambda m: 8.0 * m * m, M_max=12, mode="exhaustive", seed=k
    )
    total = dec.f_str.values + dec.f_psd.values + dec.f_err.values
    assert np.max(np.abs(total - f.values)) < 1e-12
    energies = [h["energy_raw"] for h in dec.energy_history]
    for prev, cur in zip(energies, energies[1:]):
        assert cur >= prev - 1e-12
    if dec.stop_reason == "pseudorandom":
        assert dec.psd_certificate < dec.cert_bound + 1e-12 or not dec.certified
    else:
        assert not dec.f_psd.values.any()
        assert dec.psd_certificate == 0.0


@pytest.mark.parametrize("k", range(4))
def test_energy_gain_meets_the_greedy_bound(k):
    # each clean accepted step gains at least threshold^2 of energy
    P = random_subpair(506, k, 9, p_host=0.8, p_keep=0.5)
    G, _ = normalize(P.graph)
    dec = strong_decompose(
        G, P.indicator(), eps=0.2, J=lambda m: 6.0 * m, M_max=10,
        mode="exhaustive", seed=k,
    )
    prev_energy = 0.0
    prev_clean = True
    for h in dec.energy_history:
        clean = not h["clipped"] and h["ridge"] == 0.0
        if prev_clean and clean:
            gain = h["energy_raw"] - prev_energy
            assert gain >= h["threshold"] ** 2 - 1e-12
        prev_energy = h["energy_raw"]
        prev_clean = clean


def test_budget_stops_route_the_remainder_to_err():
    G = complete_graph(8)
    f = bipartite_indicator(8, 4)
    dec = strong_decompose(
        G, f, eps=0.5, J=lambda m: 10.0 * m * m, M_max=0, mode="exhaustive", seed=0
    )
    assert dec.stop_reason == "term_budget"
    assert dec.M == 0 and not dec.certified
    assert not dec.f_psd.values.any()
    assert dec.psd_certificate == 0.0
    assert np.array_equal(dec.f_err.values, f.values)
    assert dec.err_norm == pytest.approx(norm(G, f), rel=1e-12)


def test_external_budget_stop():
    G = complete_graph(8)
    f = bipartite_indicator(8, 4)
    dec = strong_decompose(
        G, f, eps=0.5, J=lambda m: 10.0 * m * m, mode="exhaustive", seed=0,
        stop_when=lambda basis: len(basis) >= 1,
    )
    assert dec.stop_reason == "external_budget"
    assert dec.M == 0
    assert not dec.f_psd.values.any()
    assert not dec.certified


def test_decompose_validation_errors():
    G = complete_graph(6)
    f = bipartite_indicator(6, 3)
    with pytest.raises(InputError, match="exactly one of J"):
        strong_decompose(G, f, eps=0.3)
    with pytest.raises(InputError, match="exactly one of J"):
        strong_decompose(
            G, f, eps=0.3, J=lambda m: m, j_of_basis=lambda basis, m: m
        )
    with pytest.raises(InputError, match="eps must be positive"):
        strong_decompose(G, f, eps=0.0, J=lambda m: 10 * m)
    with pytest.raises(InputError, match="unknown mode"):
        strong_decompose(G, f, eps=0.3, J=lambda m: 10 * m, mode="never")
    big = EdgeFunction(2.0 * (np.ones((6, 6)) - np.eye(6)))
    with pytest.raises(InputError, match=r"\|\|f\|\| <= 1"):
        strong_decompose(G, big, eps=0.3, J=lambda m: 10 * m)
    with pytest.raises(InputError, match="positive finite"):
        strong_decompose(G, f, eps=0.3, J=lambda m: 0.0)


def test_decreasing_j_is_rejected():
    G = complete_graph(8)
    f = bipartite_indicator(8, 4)
    with pytest.raises(InputError, match="nondecreasing"):
        strong_decompose(G, f, eps=0.5, J=lambda m: 10.0 / m, mode="exhaustive", seed=0)


def test_to_dict_shape():
    G = complete_graph(8)
    dec = strong_decompose(
        G, bipartite_indicator(8, 4), eps=0.5, J=lambda m: 10.0 * m * m,
        mode="exhaustive", seed=0,
    )
    d = dec.to_dict()
    assert d["M"] == 1
    assert d["terms"] == [
        {"coefficient": 1.0, "A": [0, 1, 2, 3], "B": [4, 5, 6, 7]}
    ]
    assert d["stop_reason"] == "pseudorandom"
    assert isinstance(d["energy_history"], list)
