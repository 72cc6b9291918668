"""Atom refinement, mass-balanced splitting, dual-route pair
classification, and the end-to-end partition builder."""

import json
import warnings

import numpy as np
import pytest

from regulab import (
    BasicFunction,
    ChunkOversizeWarning,
    EdgeFunction,
    InputError,
    ProbMatrixSpec,
    SplitResult,
    SubgraphPair,
    WeightedGraph,
    atoms_from_structure,
    build_regular_partition,
    check_partition,
    classify_pairs,
    default_max_atoms,
    gen_gnpij,
    rho_sum,
    split_atoms,
)
from regulab.io import json_safe

from _helpers import complete_graph, random_graph, random_subpair


# -- atoms ---------------------------------------------------------------------


def test_empty_basis_gives_one_atom():
    assert atoms_from_structure(5, []) == [(0, 1, 2, 3, 4)]


def test_atoms_split_by_side_membership():
    basis = [BasicFunction(5, (0, 1), (2, 3))]
    assert atoms_from_structure(5, basis) == [(0, 1), (2, 3), (4,)]


def test_atoms_distinguish_a_from_b():
    basis = [BasicFunction(3, (0,), (1,))]
    assert atoms_from_structure(3, basis) == [(0,), (1,), (2,)]


def test_more_terms_only_refine():
    basis = [
        BasicFunction(8, (0, 1, 2, 3), (4, 5, 6, 7)),
        BasicFunction(8, (0, 1), (6, 7)),
    ]
    coarse = atoms_from_structure(8, basis[:1])
    fine = atoms_from_structure(8, basis)
    for atom in fine:
        assert any(set(atom) <= set(c) for c in coarse)
    assert fine == [(0, 1), (2, 3), (4, 5), (6, 7)]


# -- splitting ------------------------------------------------------------------


def test_split_unit_weights_pairs_up():
    G = complete_graph(12)
    atoms = [tuple(range(6)), tuple(range(6, 12))]
    res = split_atoms(G, atoms, 0.6, 1)
    assert res.w_star == pytest.approx(2.4)
    assert res.clusters == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
    assert res.w0 == () and res.oversized == ()
    assert res.n_atoms == 2


@pytest.mark.parametrize("k", range(4))
def test_split_cluster_masses_stay_in_the_window(k):
    G = random_graph(600, k, 14, p=0.5)
    atoms = [tuple(range(7)), tuple(range(7, 14))]
    eps, L = 0.6, 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChunkOversizeWarning)
        res = split_atoms(G, atoms, eps, L)
    tol = 1e-9 * max(res.w_star, 1.0)
    for c in res.clusters:
        mass = float(G.mu[list(c)].sum())
        assert mass <= res.w_star + tol
        assert mass > res.w_star - res.mu_max - tol
    covered = sorted(v for c in res.clusters for v in c) + sorted(res.w0)
    assert sorted(covered) == list(range(14))


def test_split_oversized_vertex_goes_to_w0():
    mu = np.array([5.0, 1.0, 1.0, 1.0])
    rho = np.ones((4, 4)) - np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the heavy vertex also warns
        G = WeightedGraph(n=4, mu=mu, rho=rho)
    with pytest.warns(ChunkOversizeWarning, match="1 vertices heavier"):
        res = split_atoms(G, [(0, 1, 2, 3)], 0.5, 1)
    assert res.oversized == (0,)
    assert res.w0 == (0,)
    assert res.clusters == ((1, 2), (3,))
    assert res.w_star == pytest.approx(2.0)


def test_split_validation():
    G = complete_graph(4)
    with pytest.raises(InputError, match="partition the vertex set"):
        split_atoms(G, [(0, 1)], 0.5, 1)
    with pytest.raises(InputError, match="eps"):
        split_atoms(G, [(0, 1, 2, 3)], 1.5, 1)
    with pytest.raises(InputError, match="L must be"):
        split_atoms(G, [(0, 1, 2, 3)], 0.5, 0)


# -- pair classification ------------------------------------------------------------


def test_classified_energies_sum_back_to_the_cross_error_mass():
    P = random_subpair(601, 0, 12, p_host=0.7, p_keep=0.6)
    G = P.graph
    rng = np.random.default_rng([601, 0, 7])
    vals = np.triu(rng.uniform(-0.5, 0.5, size=(12, 12)), k=1)
    f_err = EdgeFunction(vals + vals.T)
    clusters = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    pairs, counts = classify_pairs(P, f_err, clusters, 0.3, 1e-3, seed=0)
    assert counts["n_pairs"] == 6
    err_sq = f_err.values**2 * G.rho
    total = 0.0
    recovered = 0.0
    for p in pairs:
        wi, wj = clusters[p.i - 1], clusters[p.j - 1]
        cross = float(err_sq[np.ix_(wi, wj)].sum())
        total += cross
        if np.isfinite(p.energy):
            recovered += p.energy * rho_sum(G, wi, wj)
            # the per-pair loop is the reference for the matrix-product column
            assert p.energy == pytest.approx(cross / rho_sum(G, wi, wj), rel=1e-12)
    assert recovered == pytest.approx(total, rel=1e-12)


def test_singleton_pairs_use_the_fast_path():
    P = SubgraphPair.full(complete_graph(3))
    pairs, counts = classify_pairs(
        P, EdgeFunction.zeros(3), [(0,), (1,), (2,)], 0.3, 1e-3, seed=0
    )
    assert counts == {
        "n_clusters": 3, "n_pairs": 3, "irregular": 0, "energy_flagged": 0,
        "irregular_bound": pytest.approx(0.3 * 9),
        "irregular_fraction": 0.0,
    }
    for p in pairs:
        assert p.regular and p.deviation == 0.0 and not p.vacuous
        assert p.energy == 0.0 and p.energy_ok


def test_disconnected_pair_has_infinite_energy():
    G = WeightedGraph.from_edges(4, np.ones(4), [(0, 1, 1.0), (2, 3, 1.0)])
    P = SubgraphPair.full(G)
    pairs, counts = classify_pairs(
        P, EdgeFunction.zeros(4), [(0, 1), (2, 3)], 0.3, 1e-3, seed=0
    )
    (p,) = pairs
    assert p.energy == np.inf and not p.energy_ok
    assert p.regular  # densities are identically zero across the pair
    assert counts["energy_flagged"] == 1 and counts["irregular"] == 0


# -- the builder ----------------------------------------------------------------------


def test_default_max_atoms_arithmetic():
    G = complete_graph(16)
    assert default_max_atoms(G, 0.4, 2) == 4
    assert default_max_atoms(complete_graph(10), 0.1, 4) == 1  # floored at 1


def test_build_on_a_sampled_host():
    G = gen_gnpij(16, ProbMatrixSpec.constant(0.5), seed=3)
    P = SubgraphPair.full(G)
    rep = build_regular_partition(P, 0.4, 2, seed=0)
    assert rep.passed
    assert rep.decomposition.M == 1
    assert rep.decomposition.stop_reason == "external_budget"
    assert rep.decomposition.err_norm == pytest.approx(0.5987408170800916, rel=1e-12)
    assert rep.split.w_star == pytest.approx(1.6)
    assert len(rep.atoms) == 2 and rep.max_atoms == 4
    assert len(rep.clusters) == 16
    assert all(len(c) == 1 for c in rep.clusters)
    assert rep.w0 == ()
    assert rep.eta == pytest.approx(0.4**6 / 100.0)
    assert rep.bullets["exceptional_mass"]["value"] == 0.0
    assert rep.bullets["exceptional_mass"]["bound"] == pytest.approx(6.4)
    assert rep.bullets["balance"]["value"] == 0.0
    assert rep.bullets["balance"]["bound"] == pytest.approx(1.0)
    assert rep.bullets["irregular_pairs"]["value"] == 0
    assert rep.pair_counts["n_pairs"] == 120
    assert rep.pair_counts["energy_flagged"] == 86
    assert rep.pair_counts["irregular_fraction"] == 0.0
    assert any("renormalized" in f for f in rep.flags)
    assert any("external_budget" in f for f in rep.flags)


def test_build_report_serializes_and_truncates():
    G = gen_gnpij(16, ProbMatrixSpec.constant(0.5), seed=3)
    rep = build_regular_partition(SubgraphPair.full(G), 0.4, 2, seed=0)
    d = rep.to_dict(pair_detail_limit=5)
    assert d["pairs_truncated"] is True
    assert len(d["pairs"]) == 5
    # flagged pairs are listed before clean ones
    flags = [not (p["regular"] and p["energy_ok"]) for p in d["pairs"]]
    assert all(flags)  # 86 energy-flagged pairs exist, so the cap is all flagged
    json.dumps(json_safe(d))  # must be representable
    full = rep.to_dict()
    assert full["pairs_truncated"] is False
    assert len(full["pairs"]) == 120


def test_build_keeps_normalized_hosts_unscaled():
    P = random_subpair(603, 0, 10, p_host=0.7, p_keep=0.6)
    from regulab import normalize

    G, _ = normalize(P.graph)
    rep = build_regular_partition(
        SubgraphPair(graph=G, f_mask=P.f_mask), 0.5, 2, seed=0
    )
    assert rep.scales is None
    assert not any("renormalized" in f for f in rep.flags)
    # exact cover of the vertex set
    members = sorted(v for c in rep.clusters for v in c) + sorted(rep.w0)
    assert sorted(members) == list(range(10))


def _boundary_host(excess, scale=1.0):
    """K_7 with mu(V) = 1e3 * scale, W0 = {0, 1}, clusters {2, 3, 4} and
    {5, 6}; mu(W0) lies excess * mu(V) above eps * mu(V) for eps = 0.3,
    and the cluster-mass gap lies as far above the largest vertex mass."""
    x = excess * 1e3
    heaviest = (300.0 + x) / 2.0
    light = (700.0 - heaviest - 2.0 * x) / 2.0  # the two-vertex cluster
    heavy = (700.0 + heaviest) / 2.0  # the three-vertex cluster
    mu = np.array([heaviest, heaviest] + [heavy / 3.0] * 3 + [light / 2.0] * 2)
    return SubgraphPair.full(complete_graph(7, mu=mu * scale))


@pytest.mark.parametrize("excess, ok", [(5e-10, True), (5e-9, False)])
def test_partition_verdict_is_scale_invariant(monkeypatch, excess, ok):
    w0, clusters = (0, 1), ((2, 3, 4), (5, 6))
    verdicts = []
    for scale in (1.0, 1e-3):
        P = _boundary_host(excess, scale)
        assert P.graph.mu_total == pytest.approx(1e3 * scale, rel=1e-12)
        report = check_partition(P, w0, clusters, 0.3)
        verdicts.append((report.w0_ok, report.balance_ok))

    # the builder renormalizes to mu(V) = 7 and judges the same split
    def fixed_split(G, atoms, eps, L):
        return SplitResult(w0=w0, clusters=clusters, w_star=1.0,
                           mu_max=float(G.mu.max()), n_atoms=len(atoms), oversized=())

    monkeypatch.setattr("regulab.partition.split_atoms", fixed_split)
    rep = build_regular_partition(_boundary_host(excess), 0.3, 1, seed=0)
    assert rep.scales is not None and rep.mu_total == pytest.approx(7.0)
    verdicts.append((rep.bullets["exceptional_mass"]["ok"], rep.bullets["balance"]["ok"]))
    assert verdicts == [(ok, ok)] * 3


def test_build_validation():
    P = SubgraphPair.full(complete_graph(6))
    with pytest.raises(InputError, match="eps"):
        build_regular_partition(P, 0.0, 2)
    with pytest.raises(InputError, match="L must be"):
        build_regular_partition(P, 0.3, 0)
