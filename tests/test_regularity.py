"""Pair and partition regularity: oracle equality, frozen verdicts,
classical and relative forms."""

import numpy as np
import pytest

from regulab import (
    EdgeFunction,
    InputError,
    ProbMatrixSpec,
    SubgraphPair,
    best_basic_search,
    check_pair,
    check_partition,
    check_quasirandom,
    check_volume_pair,
    classical_epsilon_regular,
    classify_pairs,
    gen_gnpij,
    normalize,
    relative_regularity,
    volume_weights,
    weighted_density,
    WeightedGraph,
)
from regulab.regularity import cluster_pair_verdicts, partition_indices

import _oracles as oracle
from _helpers import complete_graph, random_subpair, random_unweighted_edges


# -- oracle equality ----------------------------------------------------------


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("eps", [0.25, 0.4])
def test_pair_worst_matches_oracle(k, eps):
    P = random_subpair(400, k, 8, p_host=0.7, p_keep=0.6, unit_mu=False)
    A, B = [0, 1, 2, 3], [4, 5, 6, 7]
    v = check_pair(P, A, B, eps, mode="exhaustive")
    worst, count = oracle.pair_worst(
        P.graph.mu.tolist(), P.rho_f.tolist(), A, B, eps
    )
    assert v.n_qualifying == count
    assert v.worst_deviation == pytest.approx(worst, rel=1e-12, abs=1e-12)
    assert v.passed == (v.worst_deviation < eps)


def test_exhaustive_witness_reproduces_its_deviation():
    P = random_subpair(401, 0, 9, p_host=0.8, p_keep=0.5)
    v = check_pair(P, [0, 1, 2, 3], [4, 5, 6, 7, 8], 0.3, mode="exhaustive")
    X, Y = v.worst_witness
    d = weighted_density(P, X, Y)
    assert abs(d - v.base_density) == pytest.approx(v.worst_deviation, rel=1e-12)


# -- frozen values ------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.3, 0.5])
def test_half_graph_is_irregular(eps):
    # the staircase 4x4 bipartite graph (edges i <= j) at density 5/8
    f_edges = [(i, j) for i in range(4) for j in range(4) if i <= j]
    v = classical_epsilon_regular(4, 4, f_edges, eps)
    assert not v.passed
    assert v.worst_deviation == 0.625
    assert v.worst_witness == ((2, 3), (0, 1))  # an empty corner
    assert v.base_density == 0.625
    assert v.n_qualifying == 121
    assert v.form == "classical"


def test_complete_bipartite_pair_is_regular_everywhere():
    G = complete_graph(8)
    P = SubgraphPair.full(G)
    for eps in (0.1, 0.4, 0.8):
        v = check_pair(P, [0, 1, 2, 3], [4, 5, 6, 7], eps, mode="exhaustive")
        assert v.passed and v.worst_deviation == 0.0


# -- search mode ----------------------------------------------------------------


def test_singleton_pair_fast_path():
    P = SubgraphPair.full(complete_graph(4))
    v = check_pair(P, [0], [3], 0.3, mode="search", seed=0)
    assert v.passed and v.certified
    assert v.worst_deviation == 0.0
    assert v.n_qualifying == 1
    assert v.worst_witness == ((0,), (3,))


PATH_EDGES = [(0, 1), (1, 2), (2, 3)]


def _verdict_fields(v):
    return {"passed": v.passed, "certified": v.certified, "deviation": v.worst_deviation,
            "witness": v.worst_witness, "mode": v.mode, "vacuous": v.vacuous,
            "n_qualifying": v.n_qualifying}


def _classified_fields(P):
    (p,), _ = classify_pairs(P, EdgeFunction.zeros(4), [(2,), (1,)], 0.3, 1e-3, seed=0)
    return {"passed": p.regular, "deviation": p.deviation, "vacuous": p.vacuous}


def _verified_fields(P):
    (v,) = check_partition(P, [0, 3], [[2], [1]], 0.3).pair_verdicts
    return {"passed": v["passed"], "certified": v["certified"], "deviation": v["worst_deviation"]}


ONE_BY_ONE_ROUTES = {
    "auto": lambda P: _verdict_fields(check_pair(P, [2], [1], 0.3)),
    "exhaustive": lambda P: _verdict_fields(check_pair(P, [2], [1], 0.3, mode="exhaustive")),
    "search": lambda P: _verdict_fields(check_pair(P, [2], [1], 0.3, mode="search", seed=0)),
    "volume-search": lambda P: _verdict_fields(
        check_volume_pair(4, PATH_EDGES, [2], [1], 0.3, mode="search", seed=0)),
    "classical": lambda P: {**_verdict_fields(classical_epsilon_regular(1, 1, [(0, 0)], 0.3)),
                            "witness": ((2,), (1,))},  # local (0, 0) is this pair
    "classify_pairs": _classified_fields,
    "check_partition": _verified_fields,
}


@pytest.mark.parametrize("route", ONE_BY_ONE_ROUTES)
def test_one_by_one_pair_has_one_verdict_everywhere(route):
    # the pair ({2}, {1}) on a path with degree-proportional weights
    P = SubgraphPair.full(volume_weights(4, PATH_EDGES))
    want = {"passed": True, "certified": True, "deviation": 0.0, "witness": ((2,), (1,)),
            "mode": "exhaustive", "vacuous": False, "n_qualifying": 1}
    got = ONE_BY_ONE_ROUTES[route](P)
    assert got == {key: want[key] for key in got}


@pytest.mark.parametrize("k", range(5))
def test_search_never_beats_exhaustive(k):
    P = random_subpair(402, k, 10, p_host=0.7, p_keep=0.5)
    A, B = [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
    ve = check_pair(P, A, B, 0.3, mode="exhaustive")
    vs = check_pair(P, A, B, 0.3, mode="search", seed=k, restarts=32)
    assert vs.worst_deviation <= ve.worst_deviation + 1e-12
    if not vs.passed:
        assert not ve.passed  # a found violation is real


def test_auto_dispatch_by_size():
    P = random_subpair(403, 0, 30, p_host=0.5, p_keep=0.5)
    small = check_pair(P, range(10), range(10, 22), 0.3)
    assert small.mode == "exhaustive"
    big = check_pair(P, range(14), range(14, 30), 0.3, seed=0)
    assert big.mode == "search"
    forced = check_pair(P, [0, 1], [2, 3], 0.3, mode="search", seed=0)
    assert forced.mode == "search"


# -- covariance and validation ----------------------------------------------------


def test_deviations_scale_with_the_weight_units():
    P = random_subpair(404, 0, 8, p_host=0.8, p_keep=0.6, unit_mu=False)
    A, B = [0, 1, 2, 3], [4, 5, 6, 7]
    v1 = check_pair(P, A, B, 0.3, mode="exhaustive")
    s, t = 2.0, 3.0
    G2 = WeightedGraph(n=8, mu=P.graph.mu * s, rho=P.graph.rho * t)
    v2 = check_pair(
        SubgraphPair(graph=G2, f_mask=P.f_mask), A, B, 0.3, mode="exhaustive"
    )
    # densities carry units rho / mu^2; the qualifying floors do not move
    assert v2.worst_deviation == pytest.approx(
        v1.worst_deviation * t / s**2, rel=1e-12
    )
    assert v2.n_qualifying == v1.n_qualifying


def test_pair_validation_errors():
    P = SubgraphPair.full(complete_graph(6))
    with pytest.raises(InputError, match="epsilon must lie"):
        check_pair(P, [0, 1], [2, 3], 1.0, mode="exhaustive")
    with pytest.raises(InputError, match="disjoint"):
        check_pair(P, [0, 1], [1, 2], 0.3, mode="exhaustive")
    with pytest.raises(InputError, match="nonempty"):
        check_pair(P, [], [1, 2], 0.3, mode="exhaustive")
    with pytest.raises(InputError, match="capped"):
        check_pair(
            SubgraphPair.full(complete_graph(30)), range(15), range(15, 30), 0.3,
            mode="exhaustive",
        )
    with pytest.raises(InputError, match="unknown mode"):
        check_pair(P, [0], [1], 0.3, mode="sometimes")


def test_weighted_verdict_threshold_defaults_to_epsilon():
    P = SubgraphPair.full(complete_graph(6))
    v = check_pair(P, [0, 1, 2], [3, 4, 5], 0.3, mode="exhaustive")
    assert v.threshold is None
    assert v.deviation_bound() == 0.3
    assert v.to_dict()["threshold"] == 0.3


# -- classical form ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(8))
def test_classical_checker_matches_brute_force(k):
    rng = np.random.default_rng([405, k])
    edges = [(i, j) for i in range(5) for j in range(5) if rng.random() < 0.5]
    eps = 0.35
    v = classical_epsilon_regular(5, 5, edges, eps)
    assert v.passed == oracle.classical_regular(5, 5, edges, eps)
    if v.worst_witness is not None:
        X, Y = v.worst_witness
        assert all(0 <= i < 5 for i in X + Y)  # local side coordinates


def test_classical_rejects_out_of_range_edges():
    with pytest.raises(InputError, match=r"f_edges\[0\]"):
        classical_epsilon_regular(3, 3, [(3, 0)], 0.3)


@pytest.mark.parametrize("entry", [(0.0, 1), (True, 1), (0, 1.0), (np.float64(0.0), 1), ("0", 1)])
def test_local_pairs_must_be_integers(entry):
    with pytest.raises(InputError, match=r"^f_edges\[1\]: endpoints must be integers$"):
        classical_epsilon_regular(2, 2, [(0, 0), entry], 0.3)
    with pytest.raises(InputError, match=r"^f_edges\[1\]: endpoints must be integers$"):
        relative_regularity(2, 2, [(0, 0), entry], [(0, 0), (0, 1)], 0.3)
    with pytest.raises(InputError, match=r"^g_edges\[1\]: endpoints must be integers$"):
        relative_regularity(2, 2, [(0, 0)], [(0, 0), entry], 0.3)


def test_local_pairs_name_the_first_failing_entry():
    # an earlier entry's failure wins over a later one's, whatever the checks
    with pytest.raises(InputError, match=r"^f_edges\[0\]: \(2, 0\) outside sides 2x2$"):
        classical_epsilon_regular(2, 2, [(2, 0), (0.0, 1)], 0.3)
    with pytest.raises(InputError, match=r"^f_edges\[1\]: \(-1, 0\) outside sides 2x2$"):
        classical_epsilon_regular(2, 2, [(0, 0), (-1, 0)], 0.3)
    with pytest.raises(InputError, match=r"^g_edges\[1\]: \(1, -1\) outside sides 2x2$"):
        relative_regularity(2, 2, [], [(0, 0), (1, -1)], 0.3)
    with pytest.raises(InputError, match=r"^f_edges\[1\]: expected 2 values$"):
        classical_epsilon_regular(2, 2, [(0, 0), (0, 1, 1)], 0.3)
    with pytest.raises(InputError, match=r"^f_edges\[1\]: \(1, 1\) is not an edge of G$"):
        relative_regularity(2, 2, [(0, 0), (1, 1), (0, 0)], [(0, 0)], 0.3)
    # numpy integers are integers
    edges = [(np.int64(0), np.int64(1)), (1, 0)]
    assert classical_epsilon_regular(2, 2, edges, 0.3) == classical_epsilon_regular(2, 2, [(0, 1), (1, 0)], 0.3)


# -- relative form -----------------------------------------------------------------


@pytest.mark.parametrize("k", range(6))
def test_relative_matches_brute_force(k):
    rng = np.random.default_rng([406, k])
    g_edges = [(i, j) for i in range(5) for j in range(5) if rng.random() < 0.7]
    if not g_edges:
        g_edges = [(0, 0)]
    f_edges = [e for e in g_edges if rng.random() < 0.6]
    eps = 0.3
    v = relative_regularity(5, 5, f_edges, g_edges, eps)
    worst = oracle.relative_worst(5, 5, f_edges, g_edges, eps)
    if worst is None:
        assert v.vacuous and v.passed
    else:
        assert v.worst_deviation == pytest.approx(worst, rel=1e-12, abs=1e-12)
        assert v.passed == (v.worst_deviation < eps)
    assert v.form == "relative"


def test_relative_validation():
    with pytest.raises(InputError, match="at least one G-edge"):
        relative_regularity(3, 3, [], [], 0.3)
    with pytest.raises(InputError, match=r"f_edges\[0\].*not an edge of G"):
        relative_regularity(3, 3, [(0, 0)], [(1, 1)], 0.3)
    with pytest.raises(InputError, match=r"g_edges\[0\]"):
        relative_regularity(3, 3, [], [(5, 0)], 0.3)


def test_relative_rejects_repeated_edges():
    with pytest.raises(InputError, match=r"^g_edges\[1\]: duplicate edge \(0, 0\)$"):
        relative_regularity(2, 2, [(0, 0), (0, 0)], [(0, 0), (0, 0), (1, 1)], 0.3)
    with pytest.raises(InputError, match=r"^f_edges\[1\]: duplicate edge \(0, 0\)$"):
        relative_regularity(2, 2, [(0, 0), (0, 0)], [(0, 0), (1, 1)], 0.3)
    # the same repeat as the classical form rejects
    with pytest.raises(InputError, match=r"^f_edges\[1\]: duplicate edge \(0, 0\)$"):
        classical_epsilon_regular(2, 2, [(0, 0), (0, 0)], 0.3)


# -- partitions ---------------------------------------------------------------------


def test_check_partition_on_a_balanced_complete_graph():
    P = SubgraphPair.full(complete_graph(9))
    report = check_partition(P, [], [[0, 1, 2], [3, 4, 5], [6, 7, 8]], 0.4)
    assert report.passed
    assert report.w0_mass == 0.0 and report.w0_ok
    assert report.balance_gap == 0.0 and report.balance_ok
    assert report.n_pairs == 3 and report.n_irregular == 0
    assert report.irregular_bound == pytest.approx(3.6)
    d = report.to_dict()
    assert d["pairs"]["irregular_pairs"] == []
    assert len(d["pair_verdicts"]) == 3


def test_check_partition_flags_irregular_pairs():
    # host: complete graph; F keeps only the staircase between W1 and W2
    G = complete_graph(8)
    f_edges = [(i, 4 + j) for i in range(4) for j in range(4) if i <= j]
    P = SubgraphPair.from_edges(G, f_edges)
    report = check_partition(P, [], [[0, 1, 2, 3], [4, 5, 6, 7]], 0.3)
    assert report.n_irregular == 1
    assert report.irregular_pairs == [(1, 2)]
    # budget eps l^2 = 1.2 still tolerates one irregular pair
    assert report.pairs_ok and report.passed


def test_check_partition_exact_cover_errors():
    P = SubgraphPair.full(complete_graph(4))
    with pytest.raises(InputError, match="exactly once"):
        check_partition(P, [0], [[1, 2]], 0.3)  # vertex 3 missing
    with pytest.raises(InputError, match="exactly once"):
        check_partition(P, [0], [[1, 2], [2, 3]], 0.3)  # vertex 2 doubled
    with pytest.raises(InputError, match="nonempty"):
        check_partition(P, [0, 1], [[2, 3], []], 0.3)
    with pytest.raises(InputError, match="at least one cluster"):
        check_partition(P, [0, 1, 2, 3], [], 0.3)


def test_check_partition_balance_and_w0_bounds():
    from regulab import HeavyVertexWarning

    mu = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 4.0])
    rho = np.ones((6, 6)) - np.eye(6)
    with pytest.warns(HeavyVertexWarning):
        G = WeightedGraph(n=6, mu=mu, rho=rho)
    P = SubgraphPair.full(G)
    # W0 = {5} carries 4/9 of the mass: above eps = 0.3 of the total
    report = check_partition(P, [5], [[0, 1], [2, 3], [4]], 0.3)
    assert not report.w0_ok and not report.passed
    assert report.w0_mass == 4.0 and report.w0_bound == pytest.approx(2.7)
    # balance gap 1.0 is allowed (max mu = 4), so only w0 fails
    assert report.balance_ok


def test_unknown_mode_fails_without_any_cluster_pair():
    P = SubgraphPair.full(complete_graph(4))
    with pytest.raises(InputError, match="unknown mode"):
        check_partition(P, [], [[0, 1, 2, 3]], 0.3, mode="exhastive")
    for clusters in ([[0, 1, 2, 3]], []):
        with pytest.raises(InputError, match="unknown mode"):
            classify_pairs(P, EdgeFunction.zeros(4), clusters, 0.3, 1e-3, mode="exhastive")


def _mixed_partition(k):
    # clusters of sizes 1, 1, 3, 1, 2, 1 on shuffled vertices of a
    # random host with non-unit vertex weights
    P = random_subpair(406, k, 9, p_host=0.7, p_keep=0.6, unit_mu=False)
    order = np.random.default_rng([406, k, 3]).permutation(9).tolist()
    cuts = np.cumsum([0, 1, 1, 3, 1, 2, 1])
    return P, [sorted(order[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("mode", ["auto", "exhaustive", "search"])
def test_batched_cluster_verdicts_equal_the_per_pair_engine(k, mode):
    P, clusters = _mixed_partition(k)
    _, cluster_idx = partition_indices(9, None, clusters)
    seed = 10 * k
    got = cluster_pair_verdicts(P, cluster_idx, 0.3, mode=mode, seed=seed, restarts=8)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert [(i, j) for i, j, _ in got] == [(i + 1, j + 1) for i, j in pairs]
    for step, ((i, j), (_, _, v)) in enumerate(zip(pairs, got)):
        want = check_pair(P, clusters[i], clusters[j], 0.3, mode=mode,
                          seed=seed + step, restarts=8)
        assert v == want, (i, j)


@pytest.mark.parametrize("sizes, first", [((1, 14, 13), "14\\+13"), ((13, 14, 14), "13\\+14")])
def test_cluster_pair_cap_error_names_the_first_pair(sizes, first):
    # the first pair past SUBSET_PAIR_CAP = 26 in row order is named
    n = sum(sizes)
    P = SubgraphPair.full(complete_graph(n))
    cuts = np.cumsum([0, *sizes])
    clusters = [range(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    _, cluster_idx = partition_indices(n, None, clusters)
    with pytest.raises(InputError, match=f"got {first}\\)"):
        cluster_pair_verdicts(P, cluster_idx, 0.3, mode="exhaustive", seed=0, restarts=8)


def test_search_needs_at_least_one_restart():
    G, _ = normalize(gen_gnpij(60, ProbMatrixSpec.constant(0.5), seed=7))
    P = SubgraphPair.full(G)
    with pytest.raises(InputError, match="at least one restart"):
        check_pair(P, range(30), range(30, 60), 0.3, mode="search", restarts=0)
    with pytest.raises(InputError, match="at least one restart"):
        check_quasirandom(G, 0.3, mode="search", restarts=0)
    with pytest.raises(InputError, match="at least one restart"):
        best_basic_search(G, EdgeFunction.zeros(60), seed=0, restarts=-1)
    v = check_pair(P, range(30), range(30, 60), 0.3, mode="search", restarts=1)
    assert not v.vacuous and v.worst_deviation is not None
