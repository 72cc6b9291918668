"""End-to-end acceptance checks, one test per advertised guarantee.

Each test pins a seeded instance family, measures the quantity that the
guarantee speaks about, and asserts it against an explicit tolerance.
Exact frozen constants double as instance fingerprints: they were
cross-checked against the independent brute-force routes in
tests/_oracles.py (or against closed-form hand calculations) before
being inlined, so silent drift in a generator or a numeric kernel fails
loudly rather than sliding by.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per guarantee; ``-s`` additionally prints the measured numbers.
"""

import time
from math import comb

import numpy as np
import pytest

from regulab import (
    EdgeFunction,
    ProbMatrixSpec,
    SubgraphPair,
    WeightedGraph,
    best_basic_exhaustive,
    best_basic_search,
    build_regular_partition,
    check_pair,
    check_quasirandom,
    check_volume_pair,
    chernoff_K,
    classical_epsilon_regular,
    concentration_test,
    gen_gnpij,
    make_star,
    normalize,
    strong_decompose,
    volume_weights,
)
from regulab.demos import counterexample_demo

import _oracles as oracle
from _helpers import (
    random_graph,
    random_subpair,
    random_symmetric_values,
    random_unweighted_edges,
)


def test_criterion_1_search_never_beats_and_usually_matches_exhaustive():
    # 100 hosts with 4 <= n <= 12 and a random symmetric objective; the
    # restarted alternating search must never report a correlation above
    # the enumerated optimum and must hit it on at least 90 instances.
    t0 = time.perf_counter()
    matches = exceeds = 0
    for k in range(100):
        n = 4 + k % 9
        G = random_graph(1000, k, n, p=0.5)
        f = EdgeFunction(random_symmetric_values(1000, k, n))
        _, corr_exh = best_basic_exhaustive(G, f)
        _, corr_sea = best_basic_search(G, f, seed=k, restarts=64)
        if abs(corr_sea) > abs(corr_exh) + 1e-12:
            exceeds += 1
        if abs(abs(corr_sea) - abs(corr_exh)) <= 1e-9 * max(1.0, abs(corr_exh)):
            matches += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\n[criterion 1] matches={matches}/100 exceeds={exceeds} "
        f"elapsed={elapsed:.2f}s"
    )
    assert exceeds == 0
    assert matches >= 90  # measured: 98
    assert elapsed < 60.0


def test_criterion_2_decomposition_identity_and_certificates():
    # 50 subgraph-pair instances across n in {6..64}: the three parts
    # must reassemble the indicator pointwise, raw projection energy
    # must be nondecreasing step to step, and whenever the loop stops at
    # the correlation threshold on a host small enough to enumerate, the
    # pseudorandomness certificate must survive full enumeration.
    ns = [6, 8, 10, 12, 16, 20, 28, 40, 64]
    worst_identity = 0.0
    mono_violations = 0
    cert_failures = 0
    cert_checked = 0
    stops: dict[str, int] = {}
    for k in range(50):
        n = ns[k % len(ns)]
        P0 = random_subpair(3000, k, n, p_host=0.6, p_keep=0.65, unit_mu=True)
        G, _ = normalize(P0.graph)
        P = SubgraphPair(graph=G, f_mask=P0.f_mask)
        f = P.indicator()
        dec = strong_decompose(
            G, f, eps=0.25, J=lambda m: 8.0 * m * m, M_max=16, mode="auto", seed=k
        )
        total = dec.f_str.values + dec.f_psd.values + dec.f_err.values
        worst_identity = max(worst_identity, float(np.max(np.abs(total - f.values))))
        energies = [h["energy_raw"] for h in dec.energy_history]
        mono_violations += sum(
            1 for prev, cur in zip(energies, energies[1:]) if cur < prev - 1e-12
        )
        stops[dec.stop_reason] = stops.get(dec.stop_reason, 0) + 1
        if dec.stop_reason != "pseudorandom":
            # budget stops route everything unstructured into f_err
            assert not dec.f_psd.values.any()
        elif n <= 12:
            cert_checked += 1
            _, corr = best_basic_exhaustive(G, dec.f_psd)
            if abs(corr) >= dec.cert_bound + 1e-12:
                cert_failures += 1
    print(
        f"\n[criterion 2] worst_identity={worst_identity:.3e} "
        f"mono_violations={mono_violations} "
        f"cert_failures={cert_failures}/{cert_checked} stops={stops}"
    )
    assert worst_identity <= 1e-9
    assert mono_violations == 0
    assert cert_failures == 0
    assert stops.get("pseudorandom", 0) >= 1  # measured: 9 of 50
    assert cert_checked >= 1


def test_criterion_3_partition_bullets_on_a_512_vertex_host():
    # Sampled 512-vertex host, subgraph = host minus the edges inside a
    # planted 128-vertex block.  The exceptional-mass and balance
    # bullets must hold as machine-checked inequalities and the
    # witness-search irregular fraction must stay at or below eps.
    t0 = time.perf_counter()
    G = gen_gnpij(512, ProbMatrixSpec.uniform(0.2, 0.8), seed=5)
    block = np.arange(128)
    f_mask = G.edge_mask.copy()
    f_mask[np.ix_(block, block)] = False
    n_f_edges = int(np.count_nonzero(np.triu(f_mask, 1)))
    assert G.edge_count == 65322  # instance fingerprint
    assert n_f_edges == 61287
    P = SubgraphPair(graph=G, f_mask=f_mask)
    result = build_regular_partition(P, 0.3, 4, seed=0, mode="search", restarts=64)
    elapsed = time.perf_counter() - t0
    bullets = result.bullets
    frac = result.pair_counts["irregular_fraction"]
    print(
        f"\n[criterion 3] exceptional_mass={bullets['exceptional_mass']['value']:.4g}"
        f"/{bullets['exceptional_mass']['bound']:.4g} "
        f"balance={bullets['balance']['value']:.4g}/{bullets['balance']['bound']:.4g} "
        f"irregular_fraction={frac:.4g} clusters={result.pair_counts['n_clusters']} "
        f"elapsed={elapsed:.1f}s"
    )
    assert bullets["exceptional_mass"]["ok"]
    assert bullets["balance"]["ok"]
    assert frac <= 0.3  # measured: 0.0
    assert elapsed < 300.0


def test_criterion_4_unit_weights_collapse_to_classical_regularity():
    # With unit vertex weights and unit pair weights on a complete
    # bipartite host, the weighted checker, the classical front end, and
    # an independent brute force must agree verdict for verdict.
    disagreements = 0
    passing = failing = 0
    for k in range(50):
        rng = np.random.default_rng([4000, k])
        edges = [(i, j) for i in range(6) for j in range(6) if rng.random() < 0.5]
        eps = 0.3 if k % 2 == 0 else 0.45
        rho = np.zeros((12, 12))
        rho[:6, 6:] = 1.0
        rho = rho + rho.T
        host = WeightedGraph(n=12, mu=np.ones(12), rho=rho)
        f_mask = np.zeros((12, 12), dtype=bool)
        for i, j in edges:
            f_mask[i, 6 + j] = f_mask[6 + j, i] = True
        v_weighted = check_pair(
            SubgraphPair(graph=host, f_mask=f_mask), range(6), range(6, 12), eps,
            mode="exhaustive",
        )
        v_classical = classical_epsilon_regular(6, 6, edges, eps)
        v_brute = oracle.classical_regular(6, 6, edges, eps)
        if not (v_weighted.passed == v_classical.passed == v_brute):
            disagreements += 1
        if v_brute:
            passing += 1
        else:
            failing += 1
    print(
        f"\n[criterion 4] disagreements={disagreements}/50 "
        f"passing={passing} failing={failing}"
    )
    assert disagreements == 0
    assert passing == 18 and failing == 32  # both verdict classes exercised


def test_criterion_5_sampled_inverse_probability_weights_concentrate():
    # One 1000-vertex sample with probabilities uniform in [0.1, 0.9]:
    # the total pair weight must land within 1% of its expectation
    # C(1000, 2), and 200 sampled qualifying pairs must all have
    # relative weight deviation below beta/2.
    G = gen_gnpij(1000, ProbMatrixSpec.uniform(0.1, 0.9), seed=7)
    expected = float(comb(1000, 2))
    rel = abs(G.rho_total - expected) / expected
    report = concentration_test(G, 0.1, seed=7, n_samples=200)
    print(
        f"\n[criterion 5] rho_total={G.rho_total:.4f} expected={expected:.0f} "
        f"rel={rel:.3e} max_deviation={report.max_deviation:.6f} "
        f"threshold={report.threshold}"
    )
    assert rel < 0.01  # measured: 3.60e-4
    assert report.max_deviation == pytest.approx(0.02451015716937377, rel=1e-12)
    assert report.max_deviation < 0.05  # = beta / 2
    assert report.passed


def test_criterion_6_weighted_regularity_implies_volume_regularity():
    # 30 seeded unweighted graphs with sides of 4..8 vertices: whenever
    # the pair is weighted-regular under volume weights it must also be
    # volume-regular, with both checks exhaustive.  Densities are tuned
    # so a healthy share of instances pass the (stronger) weighted check.
    w_pass = v_pass = breaks = 0
    for k in range(30):
        rng = np.random.default_rng([6000, k])
        sa = int(rng.integers(4, 9))
        sb = int(rng.integers(4, 9))
        n = sa + sb
        if k % 2 == 0:
            p, eps = float(rng.uniform(0.75, 0.95)), 0.5
        else:
            p, eps = float(rng.uniform(0.5, 0.7)), 0.4
        edges = random_unweighted_edges(6000, k, n, p=p, min_degree=1)
        A, B = list(range(sa)), list(range(sa, n))
        v_weighted = check_pair(
            SubgraphPair.full(volume_weights(n, edges)), A, B, eps, mode="exhaustive"
        )
        v_volume = check_volume_pair(n, edges, A, B, eps, mode="exhaustive")
        w_pass += v_weighted.passed
        v_pass += v_volume.passed
        breaks += v_weighted.passed and not v_volume.passed
    print(f"\n[criterion 6] weighted_pass={w_pass}/30 volume_pass={v_pass}/30 breaks={breaks}")
    assert breaks == 0
    assert w_pass >= 1  # measured: 16 (implication exercised, not vacuous)
    assert w_pass == 16 and v_pass == 30  # instance fingerprints


def test_criterion_7_counterexample_separates_volume_from_weighted():
    # The half-dense construction at n=400: the planted (A2, B2) corner
    # must violate volume regularity at eps=0.05 by a wide margin, while
    # at eps=0.25 the block structure shows no weighted violation.  Both
    # margins are reported.  A free witness search over arbitrary
    # sub-pairs does find sampling-noise deviations inside the sparse
    # random corner at this size (each present pair carries weight
    # 1/p = 20, so 50x50 corners fluctuate wildly); that number is
    # frozen and printed alongside the block margins.
    demo = counterexample_demo(400, 7)
    vol, wtd = demo["volume"], demo["weighted"]
    assert demo["n_random_edges"] == 496  # instance fingerprint
    # volume side: violation found, checked two ways
    assert vol["violates"] is True
    assert vol["deviation"] == pytest.approx(3116.474291710388, rel=1e-12)
    assert vol["threshold"] == pytest.approx(762.4, rel=1e-12)
    assert vol["margin"] == pytest.approx(2354.074291710388, rel=1e-12)
    assert vol["margin"] > 0
    assert vol["search_verdict"]["passed"] is False
    assert vol["search_verdict"]["certified"] is True
    # weighted side: the planted blocks are far inside the tolerance
    assert wtd["block_violation"] is False
    assert wtd["worst_block_deviation"] == pytest.approx(0.006, abs=1e-12)
    assert wtd["block_margin"] == pytest.approx(0.244, rel=1e-12)
    assert wtd["block_margin"] > 0
    free_dev = wtd["search_verdict"]["worst_deviation"]
    assert free_dev == pytest.approx(0.8252, rel=1e-9)
    print(
        f"\n[criterion 7] volume: deviation={vol['deviation']:.4f} "
        f"threshold={vol['threshold']:.4f} margin={vol['margin']:.4f} | "
        f"weighted blocks: worst={wtd['worst_block_deviation']:.4f} "
        f"margin={wtd['block_margin']:.4f} | free-search deviation={free_dev:.4f}"
    )


def test_criterion_8_closed_form_anchor_values_are_exact():
    # Complete graph: every qualifying disjoint pair has density exactly
    # 1 against global density (n-1)/n, so the exhaustive worst
    # quasirandomness deviation is 1/n up to one float rounding.
    for n in (6, 8, 10):
        K = WeightedGraph(n=n, mu=np.ones(n), rho=np.ones((n, n)) - np.eye(n))
        v = check_quasirandom(K, 0.2, mode="exhaustive")
        assert v.worst_deviation == 1.0 - (n - 1) / n
        assert abs(v.worst_deviation - 1.0 / n) < 5e-16
        if n == 8:
            assert v.worst_deviation == 0.125  # exactly representable
    # sample-size constant at beta = 1/2: 4800 / (1/2)^6 = 307200
    assert chernoff_K(0.5) == 307200.0
    # stars with n - 1 a power of two: all weights are dyadic, so the
    # normalization identities hold to the last bit
    for n in (5, 9, 17):
        star = make_star(n)
        assert star.mu_total == 1.0
        assert star.rho_total == n * (n - 1) / 2.0
    print("\n[criterion 8] complete-graph, sample-size, and star anchors exact")
