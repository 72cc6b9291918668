"""Quasi-randomness checks against the brute-force oracle plus frozen
small-graph values."""

import warnings

import numpy as np
import pytest

from regulab import (
    InputError,
    ScaleWarning,
    WeightedGraph,
    check_quasirandom,
    gen_gnpij,
    make_star,
    weighted_density,
    ProbMatrixSpec,
)

import _oracles as oracle
from _helpers import complete_graph, random_graph

# unnormalized random instances trip the density-scale advisory; the
# tests that care about it assert it explicitly
pytestmark = pytest.mark.filterwarnings(
    "ignore::regulab.quasirandom.ScaleWarning"
)


# -- oracle equality ----------------------------------------------------------


@pytest.mark.parametrize("k", range(8))
@pytest.mark.parametrize("beta", [0.15, 0.3])
def test_beta_worst_matches_oracle(k, beta):
    G = random_graph(300, k, 6, p=0.5)
    v = check_quasirandom(G, beta, mode="exhaustive")
    worst, count = oracle.qr_worst(G.mu.tolist(), G.rho.tolist(), beta)
    assert v.n_qualifying == count
    if worst is None:
        assert v.vacuous and v.passed
    else:
        assert v.worst_deviation == pytest.approx(worst, rel=1e-12, abs=1e-12)
        assert v.passed == (v.worst_deviation < beta)


@pytest.mark.parametrize("k", range(5))
def test_ratio_worst_matches_oracle(k):
    G = random_graph(301, k, 6, p=0.4)
    v = check_quasirandom(G, 0.2, 2.5, mode="exhaustive")
    worst, count = oracle.qr_worst(G.mu.tolist(), G.rho.tolist(), 0.2, D=2.5)
    assert v.n_qualifying == count
    if np.isinf(worst):
        assert np.isinf(v.worst_deviation) and not v.passed
    else:
        assert v.worst_deviation == pytest.approx(worst, rel=1e-12)
        assert v.passed == (v.worst_deviation <= 2.5)


# -- frozen values ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, worst, pair, nq",
    [
        (5, 0.19999999999999996, ((1, 2), (3, 4)), 50),
        (8, 0.125, ((0, 1, 2, 3), (4, 5, 6, 7)), 70),
        (12, 0.08333333333333337, ((2, 3, 4, 5, 6), (7, 8, 9, 10, 11)), 30228),
    ],
)
def test_complete_graph_worst_deviation(n, worst, pair, nq):
    # on K_n every qualifying pair has density 1 against global (n-1)/n
    v = check_quasirandom(complete_graph(n), 0.4, mode="exhaustive")
    assert v.worst_deviation == worst
    assert v.worst_pair == pair
    assert v.n_qualifying == nq
    assert v.passed  # 1/n < 0.4
    assert v.certified and v.mode == "exhaustive"


def test_star_deviations_and_scale_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        S = make_star(8)
    # global density 56 makes the absolute beta threshold meaningless
    with pytest.warns(ScaleWarning):
        v = check_quasirandom(S, 0.1, mode="exhaustive")
    assert v.worst_deviation == 56.000000000000014
    assert v.worst_pair == ((4, 5), (6, 7))  # a zero-weight leaf pair
    assert not v.passed
    with pytest.warns(ScaleWarning):
        r = check_quasirandom(S, 0.1, 10.0, mode="exhaustive")
    assert np.isinf(r.worst_deviation) and not r.passed
    assert r.worst_pair == ((4, 5), (6, 7))


def test_gnp12_golden_and_search_agreement():
    G = gen_gnpij(12, ProbMatrixSpec.constant(0.5), seed=3)
    assert G.edge_count == 27
    ve = check_quasirandom(G, 0.25, mode="exhaustive")
    assert not ve.passed
    assert ve.worst_deviation == 1.25
    assert ve.worst_pair == ((0, 1, 2), (4, 7, 10))
    assert ve.n_qualifying == 343508
    vs = check_quasirandom(G, 0.25, mode="search", seed=0, restarts=64)
    assert vs.worst_deviation == 1.25
    assert vs.worst_pair == ((0, 1, 2), (4, 7, 10))
    assert vs.certified  # a found violation certifies the failure
    vr = check_quasirandom(G, 0.25, 3.0, mode="exhaustive")
    assert np.isinf(vr.worst_deviation)
    assert vr.worst_pair == ((5, 7, 9), (8, 10, 11))


# -- structural properties ------------------------------------------------------


@pytest.mark.parametrize("k", range(4))
def test_passing_is_monotone_in_beta(k):
    G = random_graph(302, k, 7, p=0.5)
    betas = [0.1, 0.2, 0.3, 0.4]
    verdicts = [check_quasirandom(G, b, mode="exhaustive").passed for b in betas]
    for lo, hi in zip(verdicts, verdicts[1:]):
        assert hi or not lo  # passed at beta implies passed at larger beta


def test_vacuous_when_floors_are_unreachable():
    # two disjoint sets cannot both hold 60% of the mass
    v = check_quasirandom(complete_graph(5), 0.6, mode="exhaustive")
    assert v.vacuous and v.passed and v.worst_deviation is None
    assert v.n_qualifying == 0


@pytest.mark.parametrize("k", range(5))
def test_search_never_beats_exhaustive(k):
    G = random_graph(303, k, 7, p=0.5)
    ve = check_quasirandom(G, 0.2, mode="exhaustive")
    vs = check_quasirandom(G, 0.2, mode="search", seed=k, restarts=32)
    if vs.worst_deviation is not None:
        assert vs.worst_deviation <= ve.worst_deviation + 1e-12


def test_search_witness_reproduces_its_deviation():
    G = random_graph(304, 0, 16, p=0.5)
    v = check_quasirandom(G, 0.15, mode="search", seed=1, restarts=16)
    A, B = v.worst_pair
    assert all(isinstance(x, int) for x in A + B)
    d = weighted_density(G, A, B)
    from regulab import global_density

    assert abs(d - global_density(G)) == pytest.approx(v.worst_deviation, rel=1e-12)


def test_dispatch_and_validation():
    G = complete_graph(5)
    assert check_quasirandom(G, 0.4).mode == "exhaustive"
    big = random_graph(305, 0, 20, p=0.5)
    assert check_quasirandom(big, 0.2, seed=0).mode == "search"
    assert check_quasirandom(big, 0.2, mode="search", seed=0).mode == "search"
    with pytest.raises(InputError, match="beta must lie"):
        check_quasirandom(G, 1.5)
    with pytest.raises(InputError, match="D must exceed 1"):
        check_quasirandom(G, 0.3, 1.0)
    with pytest.raises(InputError, match="unknown mode"):
        check_quasirandom(G, 0.3, mode="guess")
    with pytest.raises(InputError, match="capped"):
        check_quasirandom(random_graph(305, 1, 16), 0.2, mode="exhaustive")


def test_edgeless_graph_ratio_is_tight():
    G = WeightedGraph(n=4, mu=np.ones(4), rho=np.zeros((4, 4)))
    v = check_quasirandom(G, 0.25, 2.0, mode="exhaustive")
    # zero global density: every qualifying pair has d = 0 = g, ratio 1
    assert v.passed and v.worst_deviation == 1.0


def test_verdict_to_dict_roundtrips_keys():
    v = check_quasirandom(complete_graph(5), 0.4, mode="exhaustive")
    d = v.to_dict()
    assert d["kind"] == "beta" and d["passed"] is True
    assert d["worst_pair"] == {"A": [1, 2], "B": [3, 4]}
    assert d["n_qualifying"] == 50
