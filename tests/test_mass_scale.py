"""Verdicts do not depend on the unit of mass.

Scaling every vertex mass by 2^k and every pair weight by 2^2k leaves
every density unchanged.  Powers of two also keep every sum, product
and mass floor exact, so each verdict must equal the unscaled one bit
for bit: value, witness, qualifying count, passed and certified.  The
floors' rounding slack scales with the masses, so this holds far from
the normalized scale as well, where an absolute slack once let empty
sides qualify.
"""

import warnings

import numpy as np
import pytest

from regulab import (
    HeavyVertexWarning,
    SubgraphPair,
    WeightedGraph,
    check_pair,
    check_partition,
    check_quasirandom,
    split_atoms,
)

from _helpers import complete_graph, random_graph, random_subpair

EXPONENTS = [-40, -30, -20, 20, 40]


def scaled(G, k):
    """G with mu times 2^k and rho times 2^2k."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeavyVertexWarning)
        return WeightedGraph(n=G.n, mu=G.mu * 2.0**k, rho=G.rho * 2.0 ** (2 * k))


def scaled_pair(P, k):
    return SubgraphPair(graph=scaled(P.graph, k), f_mask=P.f_mask)


def host(k, n, p):
    """A host with non-unit masses and global density near 1."""
    return random_graph(1101, k, n, p=p, weight_range=(1.0, 3.0))


QR_CASES = [  # (host, beta, D, mode)
    (host(0, 9, 0.5), 0.25, None, "exhaustive"),
    (host(1, 9, 0.4), 0.2, 3.0, "exhaustive"),
    (host(2, 10, 0.5), 0.2, None, "search"),
    (host(3, 10, 0.4), 0.25, 2.0, "search"),
]


@pytest.mark.parametrize("G, beta, D, mode", QR_CASES)
def test_quasirandom_verdicts_are_scale_free(G, beta, D, mode):
    base = check_quasirandom(G, beta, D, mode=mode, seed=3, restarts=8).to_dict()
    assert base["worst_pair"] is not None
    for k in EXPONENTS:
        v = check_quasirandom(scaled(G, k), beta, D, mode=mode, seed=3, restarts=8)
        assert v.to_dict() == base, k


@pytest.mark.parametrize("mode", ["exhaustive", "search"])
@pytest.mark.parametrize("k", range(2))
def test_pair_verdicts_are_scale_free(mode, k):
    P = random_subpair(1102, k, 10, unit_mu=False)
    A, B = range(5), range(5, 10)
    base = check_pair(P, A, B, 0.3, mode=mode, seed=k, restarts=8).to_dict()
    assert base["worst_witness"] is not None
    for e in EXPONENTS:
        v = check_pair(scaled_pair(P, e), A, B, 0.3, mode=mode, seed=k, restarts=8)
        assert v.to_dict() == base, e


def test_partition_verdicts_are_scale_free():
    P = random_subpair(1103, 0, 10, unit_mu=False)
    clusters = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    base = check_partition(P, [9], clusters, 0.3)
    assert base.pair_verdicts
    for k in EXPONENTS:
        r = check_partition(scaled_pair(P, k), [9], clusters, 0.3)
        assert r.pair_verdicts == base.pair_verdicts, k
        assert r.irregular_pairs == base.irregular_pairs
        assert (r.passed, r.w0_ok, r.balance_ok, r.pairs_ok) == (
            base.passed, base.w0_ok, base.balance_ok, base.pairs_ok)
        assert r.w0_mass == base.w0_mass * 2.0**k
        assert r.balance_gap == base.balance_gap * 2.0**k


def test_decimal_scale_keeps_empty_sides_out():
    # mu times 1e-10 is inexact, so only the verdict and counts are pinned
    # at that scale: an absolute 1e-9 slack let all 3^10 assignments,
    # empty sides included, qualify and reported a NaN deviation
    K = complete_graph(10)
    G = WeightedGraph(n=10, mu=K.mu * 1e-10, rho=K.rho * 1e-20)
    v = check_quasirandom(G, 0.3)
    assert v.passed and v.certified and v.n_qualifying == 25902
    assert np.isfinite(v.worst_deviation) and all(v.worst_pair)
    p = check_pair(SubgraphPair.full(G), range(5), range(5, 10), 0.3)
    assert p.passed and p.n_qualifying == 676


def test_split_atoms_is_scale_free():
    # 8 unit masses in one atom at eps = 0.5, L = 1 give w* = 2: four
    # clusters of 2.  An absolute 1e-9 slack sent every vertex to W0 once
    # w* fell below it.
    K = complete_graph(8)
    base = split_atoms(K, [range(8)], 0.5, 1)
    assert base.clusters == ((0, 1), (2, 3), (4, 5), (6, 7)) and base.w0 == ()
    for k in EXPONENTS:
        s = split_atoms(scaled(K, k), [range(8)], 0.5, 1)
        assert (s.clusters, s.w0, s.oversized) == (base.clusters, (), ()), k
        assert s.w_star == base.w_star * 2.0**k
    G = WeightedGraph(n=8, mu=K.mu * 1e-10, rho=K.rho * 1e-20)
    assert split_atoms(G, [range(8)], 0.5, 1).clusters == base.clusters
