"""Frozen results of the three seeded witness searches.

Each search restarts from seeded random states and keeps the best local
optimum, near-ties going to the lexicographically smallest witness.  The
value, witness, climb moves and restarts below were recorded on small
seeded hosts; a change to the restart loop, a start or a climb that
moves any of them shows here.  Moves are only visible on what the
``_search`` entry points return, so those are called directly with the
objective their public front end builds, and the witness is read off
the public verdict.
"""

import math
import warnings

import numpy as np
import pytest

from regulab import (
    EdgeFunction,
    SubgraphPair,
    best_basic_search,
    check_pair,
    check_quasirandom,
    global_density,
)
from regulab._search import disjoint_pair_search, pair_witness_search

from _helpers import complete_graph, random_graph, random_subpair, random_symmetric_values


def _pair_search(P, A, B, eps, seed, restarts):
    """The engine's search on (A, B), and the public verdict on it."""
    a, b = np.array(A), np.array(B)
    cross = P.rho_f[np.ix_(a, b)]
    wa, wb = P.graph.mu[a], P.graph.mu[b]
    base = float(cross.sum()) / (float(wa.sum()) * float(wb.sum()))
    best = pair_witness_search(
        cross, wa, wb, eps * wa.sum(), eps * wb.sum(),
        lambda t, wx, wy: np.abs(t / (wx * wy) - base),
        seed=seed, restarts=restarts,
    )
    verdict = check_pair(P, A, B, eps, mode="search", seed=seed, restarts=restarts)
    assert verdict.worst_deviation == best.value
    return best, verdict.worst_witness


def _disjoint_search(G, beta, D, seed, restarts):
    """check_quasirandom's search, and its public verdict."""
    g = global_density(G)

    def objective(s_ab, mu_a, mu_b):
        d = s_ab / (mu_a * mu_b)
        if D is None:
            return np.abs(d - g)
        with np.errstate(divide="ignore"):
            return np.maximum(d / g, g / d)

    best = disjoint_pair_search(
        G.rho, G.mu, beta * G.mu_total, objective, seed=seed, restarts=restarts
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verdict = check_quasirandom(G, beta, D, mode="search", seed=seed, restarts=restarts)
    assert verdict.worst_deviation == best.value
    return best, verdict.worst_pair


@pytest.mark.parametrize("tag, n, A, B, eps, seed, restarts, value, witness, moves", [
    (0, 16, range(8), range(8, 16), 0.3, 5, 16,
     1.1121195372979988, ((0, 5, 6), (12, 14, 15)), 77),
    (1, 40, range(0, 40, 2), range(1, 40, 2), 0.25, 3, 12,
     0.5296104089719852, ((0, 2, 6, 8, 26, 30, 36), (3, 7, 13, 17, 19, 31)), 134),
])
def test_pair_search_is_frozen(tag, n, A, B, eps, seed, restarts, value, witness, moves):
    P = random_subpair(900, tag, n, p_host=0.7 if tag == 0 else 0.6,
                       p_keep=0.6 if tag == 0 else 0.5, unit_mu=False)
    best, found = _pair_search(P, A, B, eps, seed, restarts)
    assert (best.value, found, best.moves, best.restarts) == (value, witness, moves, restarts)


@pytest.mark.parametrize("tag, n, p, beta, D, seed, restarts, value, witness, moves", [
    (0, 18, 0.5, 0.2, None, 2, 16,
     0.8303627123377004, ((2, 4, 7, 9), (0, 1, 12, 13, 16)), 125),
    (2, 16, 1.0, 0.2, 1.05, 6, 10,
     1.9187420057298215, ((7, 10, 11), (1, 2, 8)), 61),
])
def test_disjoint_search_is_frozen(tag, n, p, beta, D, seed, restarts, value, witness, moves):
    G = random_graph(901, tag, n, p=p)
    best, found = _disjoint_search(G, beta, D, seed, restarts)
    assert (best.value, found, best.moves, best.restarts) == (value, witness, moves, restarts)


def test_best_basic_search_is_frozen():
    G = random_graph(901, 1, 20, p=0.3)
    r = EdgeFunction(random_symmetric_values(902, 0, 20))
    bf, corr = best_basic_search(G, r, seed=4, restarts=16)
    assert (bf.a, bf.b, corr) == (
        (2, 3, 4, 5, 6, 9, 11, 15, 17), (0, 8, 10, 12, 13, 14, 16, 18), -0.051641124319722516
    )
    # one mask, both signs: the winner keeps its signed correlation
    mask = G.edge_mask.astype(float)
    sides = ((0, 4, 7, 8, 10, 11, 12, 17), (1, 2, 3, 5, 6, 9, 13, 14, 15, 16, 18, 19))
    for sign in (1.0, -1.0):
        bf, corr = best_basic_search(G, EdgeFunction(sign * mask), seed=1, restarts=8)
        assert ((bf.a, bf.b), corr) == (sides, sign * 0.16837626463424313)
    # on r = 0 both signs end at the empty witness, with correlation +0.0
    bf, corr = best_basic_search(G, EdgeFunction.zeros(20), seed=1, restarts=8)
    assert (bf.a, bf.b, corr) == ((), (), 0.0) and math.copysign(1.0, corr) == 1.0


def test_all_ties_go_to_the_smallest_witness():
    # on a unit complete graph every sub-pair has the same deviation, so
    # no climb moves and the smallest start across restarts wins
    K = complete_graph(10)
    pair = [_pair_search(SubgraphPair.full(K), range(5), range(5, 10), 0.3, 0, r)
            for r in (8, 1)]
    assert [(b.value, w, b.moves) for b, w in pair] == [
        (0.0, ((0, 1), (7, 8, 9)), 0), (0.0, ((1, 2, 3), (7, 8)), 0)
    ]
    disjoint = [_disjoint_search(K, 0.2, None, 0, r) for r in (8, 1)]
    assert [(b.value, w, b.moves) for b, w in disjoint] == [
        (0.09999999999999998, ((0, 1, 2, 7, 8, 9), (4, 5, 6)), 0),
        (0.09999999999999998, ((1, 2), (0, 9)), 0),
    ]
    # more restarts can only move the witness down in lexicographic order
    assert pair[0][1] < pair[1][1] and disjoint[0][1] < disjoint[1][1]


def test_restarts_count_only_the_restarts_run():
    # no two disjoint sets of K_5 both reach 0.6 mu(V), and no subset of a
    # side reaches more than its mass: the first restart has no feasible
    # start, so the search stops having run none
    K = complete_graph(5)
    deviation = lambda t, wx, wy: np.abs(t / (wx * wy) - 1.0)
    found = [
        disjoint_pair_search(K.rho, K.mu, 0.6 * K.mu_total, deviation, seed=0, restarts=64),
        pair_witness_search(K.rho[:2, 2:], K.mu[:2], K.mu[2:], 2.5, 1.0, deviation,
                            seed=0, restarts=64),
    ]
    for best in found:
        assert (best.value, best.a, best.b, best.restarts, best.moves) == (-np.inf, None, None, 0, 0)
