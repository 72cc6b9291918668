"""Weighted epsilon-regular pairs and partitions.

For a spanning subgraph F of a host G, disjoint A and B form a weighted
epsilon-regular pair when every A' in A, B' in B with mu(A') >=
eps * mu(A) and mu(B') >= eps * mu(B) satisfies

    | d_F(A', B') - d_F(A, B) | < eps,      d_F = rho_F / (mu mu),

and a partition W0, W1, ..., Wl is weighted epsilon-regular when W0 is
light (mu(W0) <= eps mu(V)), the other clusters are balanced up to one
vertex mass, and all but at most eps * l^2 of the unordered cluster
pairs are regular.  Mass floors are inclusive (>=) throughout, which
only differs from a strict reading at exact threshold ties.  The
rounding slack is FLOAT_TOL times the mass the floor is a share of
(mu(A) or mu(B) for a sub-pair), so no verdict depends on the unit of
mass, and an empty side never qualifies.

One engine, ``pair_verdict``, checks every form of the pair condition:
exhaustive mode certifies verdicts up to the constant size cap
|A| + |B| <= SUBSET_PAIR_CAP, search mode hill-climbs for violating
witnesses, and ``auto``, every check's default, enumerates exactly when
the pair is within the cap.  The weighted, classical (unit
weights), relative and volume forms are front ends to it.  A 1 x 1
pair is its own only qualifying sub-pair, so its verdict (exhaustive,
certified, deviation 0) needs no search.  ``check_partition`` runs
every cluster pair with a multi-vertex side through the engine and
gives all pairs of two singleton clusters that same 1 x 1 verdict in
one batch, their base densities read off one array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import isfinite
from typing import Callable, Iterable, Sequence

import numpy as np

from ._enumerate import SUBSET_PAIR_CAP, resolve_mode, scan_subset_pairs
from ._search import pair_witness_search
from .core import (
    FLOAT_TOL,
    InputError,
    SubgraphPair,
    WeightedGraph,
    _columns,
    _endpoint_checks,
    _raise_first_failure,
    index_array,
    pair_sides,
)

__all__ = [
    "PairRegularityVerdict",
    "PartitionCheckReport",
    "check_pair",
    "check_partition",
    "classical_epsilon_regular",
    "relative_regularity",
]

@dataclass(frozen=True)
class PairRegularityVerdict:
    """Outcome of a pair regularity check.

    ``worst_witness`` holds the sub-pair (as vertex tuples) achieving
    ``worst_deviation``.  ``certified`` follows the usual rule:
    exhaustive verdicts always, search verdicts only when a violation
    was found.  ``form`` records which density notion was checked
    (weighted, classical, relative edge-ratio, or volume).
    """

    epsilon: float
    passed: bool
    mode: str
    certified: bool
    base_density: float
    worst_deviation: float | None
    worst_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    vacuous: bool = False
    n_qualifying: int | None = None
    form: str = "weighted"
    threshold: float | None = None

    def deviation_bound(self) -> float:
        """What worst_deviation is compared against (epsilon unless the
        form rescales deviations, as the volume form does)."""
        return self.epsilon if self.threshold is None else self.threshold

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "passed": self.passed,
            "mode": self.mode,
            "certified": self.certified,
            "form": self.form,
            "base_density": self.base_density,
            "worst_deviation": self.worst_deviation,
            "threshold": self.deviation_bound(),
            "worst_witness": None if self.worst_witness is None
            else {"A": list(self.worst_witness[0]), "B": list(self.worst_witness[1])},
            "vacuous": self.vacuous,
            "n_qualifying": self.n_qualifying,
        }


def pair_verdict(
    crosses: Sequence[np.ndarray],
    wa: np.ndarray,
    wb: np.ndarray,
    deviation: Callable[[list[np.ndarray], np.ndarray, np.ndarray], np.ndarray],
    *,
    eps: float,
    base: float,
    ids_a: Sequence[int],
    ids_b: Sequence[int],
    threshold: float | None = None,
    form: str = "weighted",
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> PairRegularityVerdict:
    """Maximize deviation(tables, wX, wY) over sub-pairs X x Y with
    wX >= eps wa.sum() and wY >= eps wb.sum(), ``tables`` holding each
    cross table summed over X x Y, and pass below ``threshold`` (eps
    when None).  A 1 x 1 pair gets ``_one_by_one_verdict``.  No
    qualifying sub-pair of finite deviation makes a vacuous pass.
    Witness positions are reported through ``ids_a`` and ``ids_b``.
    """
    ka, kb = crosses[0].shape
    mode = resolve_mode(mode, (ka, kb), SUBSET_PAIR_CAP, "|A|+|B|")
    if ka == 1 and kb == 1:
        return _one_by_one_verdict(
            eps, base, int(ids_a[0]), int(ids_b[0]), form=form, threshold=threshold
        )
    if mode == "exhaustive":
        best = scan_subset_pairs(
            crosses, wa, wb, eps * wa.sum(), eps * wb.sum(), deviation
        )
    else:
        (cross,) = crosses
        best = pair_witness_search(
            cross, wa, wb, eps * wa.sum(), eps * wb.sum(),
            lambda t, wx, wy: deviation([t], wx, wy),
            seed=seed, restarts=restarts,
        )
    witness = None if best.a is None else (
        tuple(int(ids_a[i]) for i in best.a),
        tuple(int(ids_b[i]) for i in best.b),
    )
    return _finish_verdict(
        eps, mode, best.value, witness, best.n_qualifying, base, form, threshold
    )


def _one_by_one_verdict(
    eps: float,
    base: float,
    u: int,
    v: int,
    *,
    form: str = "weighted",
    threshold: float | None = None,
) -> PairRegularityVerdict:
    """The verdict on the pair ({u}, {v}), which is its own only
    qualifying sub-pair: exhaustive, deviation 0, certified."""
    return _finish_verdict(eps, "exhaustive", 0.0, ((u,), (v,)), 1, base, form, threshold)


def _finish_verdict(
    eps: float,
    mode: str,
    worst: float,
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None,
    n_qualifying: int | None,
    base: float,
    form: str,
    threshold: float | None,
) -> PairRegularityVerdict:
    """Judge the worst deviation found (witness in vertex ids, None when
    nothing qualified) against the threshold."""
    vacuous = witness is None or not isfinite(worst)
    passed = vacuous or bool(worst < (eps if threshold is None else threshold))
    return PairRegularityVerdict(
        epsilon=eps, passed=passed, mode=mode,
        certified=mode == "exhaustive" or not passed,
        base_density=base,
        worst_deviation=None if vacuous else float(worst),
        worst_witness=None if vacuous else witness,
        vacuous=vacuous, n_qualifying=n_qualifying, form=form, threshold=threshold,
    )


def _density_verdict(
    cross: np.ndarray, wa: np.ndarray, wb: np.ndarray, eps: float, **options
) -> PairRegularityVerdict:
    """The condition |d(X, Y) - d(A, B)| < eps on one cross table."""
    base = float(cross.sum()) / (float(wa.sum()) * float(wb.sum()))

    def deviation(tables, wx, wy):
        return np.abs(tables[0] / (wx * wy) - base)

    return pair_verdict([cross], wa, wb, deviation, eps=eps, base=base, **options)


def _weighted_pair(
    P: SubgraphPair, a: np.ndarray, b: np.ndarray, eps: float, **options
) -> PairRegularityVerdict:
    mu = P.graph.mu
    return _density_verdict(
        P.rho_f[np.ix_(a, b)], mu[a], mu[b], eps, ids_a=a, ids_b=b, **options
    )


def _check_epsilon(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise InputError(f"epsilon must lie in (0, 1), got {eps}")


def check_pair(
    P: SubgraphPair,
    A: Iterable[int],
    B: Iterable[int],
    eps: float,
    *,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> PairRegularityVerdict:
    """Weighted epsilon-regularity of (A, B) with respect to F.

    ``exhaustive`` enumerates every qualifying sub-pair and certifies;
    ``search`` hill-climbs for a violation, so its pass is no
    certificate; ``auto`` enumerates when |A| + |B| <= SUBSET_PAIR_CAP.
    """
    _check_epsilon(eps)
    a, b = pair_sides(P.graph.n, A, B)
    return _weighted_pair(P, a, b, eps, mode=mode, seed=seed, restarts=restarts)


# -- partitions ----------------------------------------------------------


@dataclass
class PartitionCheckReport:
    """Machine check of the three partition requirements."""

    passed: bool
    epsilon: float
    n_clusters: int
    w0_mass: float
    w0_bound: float
    w0_ok: bool
    balance_gap: float
    balance_bound: float
    balance_ok: bool
    n_pairs: int
    n_irregular: int
    irregular_bound: float
    pairs_ok: bool
    irregular_pairs: list[tuple[int, int]] = field(default_factory=list)
    pair_verdicts: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "epsilon": self.epsilon,
            "n_clusters": self.n_clusters,
            "w0": {"mass": self.w0_mass, "bound": self.w0_bound, "ok": self.w0_ok},
            "balance": {"gap": self.balance_gap, "bound": self.balance_bound,
                        "ok": self.balance_ok},
            "pairs": {"total": self.n_pairs, "irregular": self.n_irregular,
                      "bound": self.irregular_bound, "ok": self.pairs_ok,
                      "irregular_pairs": [list(p) for p in self.irregular_pairs]},
            "pair_verdicts": self.pair_verdicts,
        }

    def bullets(self) -> dict:
        """The same three verdicts in the partition builder's layout."""
        return {
            "exceptional_mass": {"value": self.w0_mass, "bound": self.w0_bound,
                                 "ok": self.w0_ok},
            "balance": {"value": self.balance_gap, "bound": self.balance_bound,
                        "ok": self.balance_ok},
            "irregular_pairs": {"value": self.n_irregular,
                                "bound": self.irregular_bound, "ok": self.pairs_ok},
        }


def partition_indices(
    n: int, w0: Iterable[int] | None, clusters: Sequence[Iterable[int]]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted index arrays of W0 and the clusters, validated once.

    Clusters must be nonempty and no vertex may appear twice; with
    ``w0`` given (not None) every vertex must also be covered.
    """
    w0_idx = index_array(n, () if w0 is None else w0, "W0")
    cluster_idx = [index_array(n, c, f"W{i + 1}") for i, c in enumerate(clusters)]
    if any(c.size == 0 for c in cluster_idx):
        raise InputError("clusters other than W0 must be nonempty")
    counts = np.bincount(np.concatenate([w0_idx, *cluster_idx]), minlength=n)
    doubled = int(np.count_nonzero(counts > 1))
    if w0 is None:
        if doubled:
            raise InputError(f"clusters must be disjoint ({doubled} repeated)")
    elif doubled or not counts.all():
        missing = int(np.count_nonzero(counts == 0))
        raise InputError(
            f"partition must cover every vertex exactly once "
            f"({missing} missing, {doubled} repeated)"
        )
    return w0_idx, cluster_idx


def cluster_pair_verdicts(
    P: SubgraphPair,
    cluster_idx: Sequence[np.ndarray],
    eps: float,
    *,
    mode: str,
    seed: int,
    restarts: int,
) -> list[tuple[int, int, PairRegularityVerdict]]:
    """Weighted verdicts (i, j, verdict) for every cluster pair i < j,
    1-based in row order; the k-th pair is searched with seed + k.

    Pairs with a multi-vertex side go through the engine.  Pairs of two
    singleton clusters need no search: their base densities are read
    off one array and each gets the engine's 1 x 1 verdict.  A 1 x 1
    pair is within every cap, so the mode is validated once, up front.
    """
    resolve_mode(mode, (1, 1), SUBSET_PAIR_CAP, "|A|+|B|")
    mu = P.graph.mu
    singles = [i for i, c in enumerate(cluster_idx) if c.size == 1]
    s = np.array([cluster_idx[i][0] for i in singles], dtype=np.intp)
    base = (P.rho_f[np.ix_(s, s)] / np.outer(mu[s], mu[s])).tolist()
    slot = dict(zip(singles, range(len(singles))))
    vertex = s.tolist()
    verdicts = []
    for k, (i, j) in enumerate(combinations(range(len(cluster_idx)), 2)):
        if i in slot and j in slot:
            x, y = slot[i], slot[j]
            v = _one_by_one_verdict(eps, base[x][y], vertex[x], vertex[y])
        else:
            v = _weighted_pair(
                P, cluster_idx[i], cluster_idx[j], eps,
                mode=mode, seed=seed + k, restarts=restarts,
            )
        verdicts.append((i + 1, j + 1, v))
    return verdicts


def partition_report(
    G: WeightedGraph,
    w0_idx: np.ndarray,
    cluster_idx: Sequence[np.ndarray],
    eps: float,
    irregular: list[tuple[int, int]],
    pair_verdicts: list[dict] | None = None,
) -> PartitionCheckReport:
    """Judge the light-W0, balance and irregular-pair requirements.

    Mass comparisons allow FLOAT_TOL * mu(V) of rounding slack, so the
    verdict does not change when ``normalize`` rescales mu; the pair
    count is compared with FLOAT_TOL slack.  ``irregular`` lists the
    1-based irregular cluster pairs.
    """
    ell = len(cluster_idx)
    tol = FLOAT_TOL * G.mu_total
    w0_mass = float(G.mu[w0_idx].sum()) if w0_idx.size else 0.0
    w0_bound = eps * G.mu_total
    masses = np.array([G.mu[c].sum() for c in cluster_idx])
    balance_gap = float(masses.max() - masses.min()) if ell else 0.0
    balance_bound = float(G.mu.max())
    irregular_bound = eps * ell * ell
    w0_ok = bool(w0_mass <= w0_bound + tol)
    balance_ok = bool(balance_gap <= balance_bound + tol)
    pairs_ok = bool(len(irregular) <= irregular_bound + FLOAT_TOL)
    return PartitionCheckReport(
        passed=w0_ok and balance_ok and pairs_ok,
        epsilon=eps, n_clusters=ell,
        w0_mass=w0_mass, w0_bound=w0_bound, w0_ok=w0_ok,
        balance_gap=balance_gap, balance_bound=balance_bound, balance_ok=balance_ok,
        n_pairs=ell * (ell - 1) // 2, n_irregular=len(irregular),
        irregular_bound=irregular_bound, pairs_ok=pairs_ok,
        irregular_pairs=irregular, pair_verdicts=pair_verdicts or [],
    )


def check_partition(
    P: SubgraphPair,
    w0: Iterable[int],
    clusters: list,
    eps: float,
    *,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> PartitionCheckReport:
    """Check the light-W0, balance, and pair-regularity requirements.

    The pair budget is eps * l^2 over the l*(l-1)/2 unordered cluster
    pairs, as stated.  Per-pair verdicts follow ``check_pair`` in the
    requested mode, so with search mode the irregular count is a lower
    bound (only found violations count as irregular).
    """
    _check_epsilon(eps)
    w0_idx, cluster_idx = partition_indices(P.graph.n, w0, clusters)
    if not cluster_idx:
        raise InputError("need at least one cluster besides W0")
    verdicts = cluster_pair_verdicts(
        P, cluster_idx, eps, mode=mode, seed=seed, restarts=restarts
    )
    return partition_report(
        P.graph, w0_idx, cluster_idx, eps,
        [(i, j) for i, j, v in verdicts if not v.passed],
        [
            {"i": i, "j": j, "passed": v.passed,
             "worst_deviation": v.worst_deviation, "certified": v.certified}
            for i, j, v in verdicts
        ],
    )


# -- classical and relative forms -----------------------------------------


def _cross_matrix(
    a_size: int,
    b_size: int,
    edges: Iterable[tuple[int, int]],
    name: str,
    host: np.ndarray | None = None,
) -> np.ndarray:
    """The 0/1 matrix of local (A index, B index) edges.

    Every entry needs integer endpoints inside the sides (and, given a
    ``host`` matrix, on one of its edges) and must not repeat an earlier
    entry.  The first failing entry is cited, with its first failed
    check in that order.
    """
    i, j = _columns(edges, 2, name)

    def in_range(ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        valid = (0 <= ii) & (ii < a_size) & (0 <= jj) & (jj < b_size)
        if host is not None:
            valid[valid] = host[ii[valid], jj[valid]] != 0.0
        return valid

    def outside(k: int) -> str:
        if host is None:
            return f"{name}[{k}]: ({i[k]}, {j[k]}) outside sides {a_size}x{b_size}"
        return f"{name}[{k}]: ({i[k]}, {j[k]}) is not an edge of G"

    ii, jj, _, checks = _endpoint_checks(i, j, name, in_range, outside)
    _raise_first_failure(checks)
    matrix = np.zeros((a_size, b_size))
    matrix[ii, jj] = 1.0
    return matrix


def classical_epsilon_regular(
    a_size: int,
    b_size: int,
    f_edges: Iterable[tuple[int, int]],
    eps: float,
    *,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> PairRegularityVerdict:
    """Classical bipartite epsilon-regularity.

    ``f_edges`` are (i, j) with i indexing side A and j side B, both
    0-based locally.  With unit weights the weighted density of the 0/1
    cross matrix is e(A', B') / (|A'| |B'|), so the weighted condition
    on it is the classical one.  Witnesses come back in local (A-side,
    B-side) indices.
    """
    if a_size < 1 or b_size < 1:
        raise InputError("both sides need at least one vertex")
    f_mat = _cross_matrix(a_size, b_size, f_edges, "f_edges")
    _check_epsilon(eps)
    return _density_verdict(
        f_mat, np.ones(a_size), np.ones(b_size), eps,
        ids_a=range(a_size), ids_b=range(b_size), form="classical",
        mode=mode, seed=seed, restarts=restarts,
    )


def relative_regularity(
    a_size: int,
    b_size: int,
    f_edges: Iterable[tuple[int, int]],
    g_edges: Iterable[tuple[int, int]],
    eps: float,
) -> PairRegularityVerdict:
    """Relative form: compare e_F(A', B') / e_G(A', B') to the base ratio.

    Exhaustive only, so |A| + |B| <= SUBSET_PAIR_CAP.  Sub-pairs spanning no G-edge carry no relative
    density and are skipped.  Size floors are |A'| >= eps |A| and
    |B'| >= eps |B|.
    """
    _check_epsilon(eps)
    g_mat = _cross_matrix(a_size, b_size, g_edges, "g_edges")
    f_mat = _cross_matrix(a_size, b_size, f_edges, "f_edges", host=g_mat)
    total_g = g_mat.sum()
    if total_g == 0:
        raise InputError("relative regularity needs at least one G-edge between the sides")
    base = float(f_mat.sum() / total_g)

    def deviation(tables, wx, wy):
        tf, tg = tables
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = tf / tg
        return np.where(tg > 0, np.abs(ratio - base), -np.inf)

    return pair_verdict(
        [f_mat, g_mat], np.ones(a_size), np.ones(b_size), deviation,
        eps=eps, base=base, ids_a=range(a_size), ids_b=range(b_size),
        form="relative", mode="exhaustive",
    )
