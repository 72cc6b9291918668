"""Reference models: inhomogeneous random graphs, stars, volume weights.

The random model G(n, (p_ij)) keeps unit vertex weights and gives each
sampled edge the weight 1/p_ij, so every pair weight has unit mean and
rho(A, B) concentrates near |A| |B| for large disjoint sets; the
Chernoff utilities quantify the sample sizes involved.  The star model
concentrates half the vertex mass on the hub, which makes the
(hub, leaves) pair constantly dense and hence regular at every eps, at
the price of a global density of order n^2 and zero-weight leaf pairs.
Degree-proportional ("volume") weights

    mu(v) = n deg(v) / vol(V),    rho(u, v) = n^2 / vol(V) on edges,

make the weighted pair density equal the volume-normalized edge density
e(X, Y) vol(V) / (vol(X) vol(Y)) exactly, so weighted regularity
verdicts transfer to volume form with the same floors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import ceil, sqrt
from typing import Iterable

import numpy as np

from .core import (
    HeavyVertexWarning,
    InputError,
    WeightedGraph,
    _columns,
    _endpoint_checks,
    _raise_first_failure,
    pair_sides,
    rho_sum,
)
from .regularity import PairRegularityVerdict, pair_verdict

__all__ = [
    "ProbMatrixSpec",
    "gen_gnpij",
    "chernoff_K",
    "ConcentrationReport",
    "concentration_test",
    "make_star",
    "volume_weights",
    "volume_density",
    "check_volume_pair",
    "Counterexample",
    "make_counterexample",
]


# -- inhomogeneous random graphs --------------------------------------------


@dataclass(frozen=True)
class ProbMatrixSpec:
    """Edge-probability matrix in one of four shapes.

    constant: p_ij = p; uniform: p_ij iid U[low, high]; explicit: a full
    matrix; rank_one: p_ij = x_i x_j.  All probabilities must lie in
    (0, 1].  Only the uniform kind consumes random numbers when
    materialized.
    """

    kind: str
    p: float | None = None
    low: float | None = None
    high: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)
    vector: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, p: float) -> "ProbMatrixSpec":
        if not (0.0 < p <= 1.0):
            raise InputError(f"p must lie in (0, 1], got {p}")
        return cls(kind="constant", p=float(p))

    @classmethod
    def uniform(cls, low: float, high: float) -> "ProbMatrixSpec":
        if not (0.0 < low <= high <= 1.0):
            raise InputError(f"need 0 < low <= high <= 1, got [{low}, {high}]")
        return cls(kind="uniform", low=float(low), high=float(high))

    @classmethod
    def explicit(cls, matrix: np.ndarray) -> "ProbMatrixSpec":
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("probability matrix must be square")
        if not np.array_equal(m, m.T):
            raise InputError("probability matrix must be symmetric")
        off = m[~np.eye(m.shape[0], dtype=bool)]
        if off.size and not ((off > 0.0) & (off <= 1.0)).all():
            raise InputError("off-diagonal probabilities must lie in (0, 1]")
        return cls(kind="explicit", matrix=m)

    @classmethod
    def rank_one(cls, vector: Iterable[float]) -> "ProbMatrixSpec":
        x = np.asarray(list(vector), dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise InputError("rank-one spec needs a nonempty vector")
        if not ((x > 0.0) & (x <= 1.0)).all():
            raise InputError("rank-one entries must lie in (0, 1]")
        return cls(kind="rank_one", vector=x)

    def materialize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The (n, n) symmetric probability matrix with zero diagonal."""
        if self.kind == "constant":
            P = np.full((n, n), self.p, dtype=np.float64)
        elif self.kind == "uniform":
            upper = rng.uniform(self.low, self.high, size=(n, n))
            P = np.triu(upper, k=1)
            P = P + P.T
        elif self.kind == "explicit":
            if self.matrix.shape != (n, n):
                raise InputError(
                    f"probability matrix is {self.matrix.shape}, expected ({n}, {n})"
                )
            P = self.matrix.copy()
        elif self.kind == "rank_one":
            if self.vector.size != n:
                raise InputError(
                    f"rank-one vector has length {self.vector.size}, expected {n}"
                )
            P = np.outer(self.vector, self.vector)
        else:
            raise InputError(f"unknown probability spec kind {self.kind!r}")
        np.fill_diagonal(P, 0.0)
        return P


def gen_gnpij(
    n: int,
    spec: ProbMatrixSpec,
    seed: int,
    *,
    p_min: float | None = None,
) -> WeightedGraph:
    """Sample G(n, (p_ij)) with unit mu and edge weights 1/p_ij.

    ``p_min`` optionally rejects probability matrices whose smallest
    off-diagonal entry falls below a concentration floor.
    """
    if n < 2:
        raise InputError("need at least two vertices")
    rng = np.random.default_rng(seed)
    P = spec.materialize(n, rng)
    off = ~np.eye(n, dtype=bool)
    if p_min is not None and float(P[off].min()) < p_min:
        raise InputError(
            f"smallest edge probability {P[off].min():.6g} is below "
            f"the requested floor {p_min:.6g}"
        )
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    sampled = upper & (rng.random((n, n)) < P)
    rho = np.zeros((n, n))
    rho[sampled] = 1.0 / P[sampled]
    rho = rho + rho.T
    return WeightedGraph(n=n, mu=np.ones(n), rho=rho)


def chernoff_K(beta: float) -> float:
    """Sample-size constant for beta-concentration: K = 4800 / beta^6."""
    if not (0.0 < beta < 1.0):
        raise InputError(f"beta must lie in (0, 1), got {beta}")
    return 4800.0 / beta**6


@dataclass
class ConcentrationReport:
    beta: float
    threshold: float
    n_samples: int
    size_min: int
    size_max: int
    max_deviation: float
    mean_deviation: float
    passed: bool
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]]

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "threshold": self.threshold,
            "n_samples": self.n_samples,
            "size_min": self.size_min,
            "size_max": self.size_max,
            "max_deviation": self.max_deviation,
            "mean_deviation": self.mean_deviation,
            "passed": self.passed,
            "worst_pair": {
                "A": list(self.worst_pair[0]),
                "B": list(self.worst_pair[1]),
            },
        }


def concentration_test(
    G: WeightedGraph,
    beta: float,
    *,
    seed: int,
    n_samples: int = 200,
    size_range: tuple[int, int] | None = None,
) -> ConcentrationReport:
    """Empirical pair-weight concentration on random disjoint sets.

    Expects inverse-probability edge weights, so rho(A, B) / (|A| |B|)
    has unit mean; the sampled deviation must stay below beta / 2.
    Sizes default to [ceil(beta n), floor(n / 3)].
    """
    if not (0.0 < beta < 1.0):
        raise InputError(f"beta must lie in (0, 1), got {beta}")
    n = G.n
    if size_range is None:
        size_range = (max(1, ceil(beta * n)), n // 3)
    k_min, k_max = size_range
    if not (1 <= k_min <= k_max and 2 * k_max <= n):
        raise InputError(f"infeasible sample sizes [{k_min}, {k_max}] for n = {n}")
    rng = np.random.default_rng(seed)
    deviations = np.empty(n_samples)
    worst: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    worst_dev = -1.0
    for s in range(n_samples):
        ka = int(rng.integers(k_min, k_max + 1))
        kb = int(rng.integers(k_min, k_max + 1))
        perm = rng.permutation(n)
        A = np.sort(perm[:ka])
        B = np.sort(perm[ka:ka + kb])
        dev = abs(rho_sum(G, A, B) / (ka * kb) - 1.0)
        deviations[s] = dev
        if dev > worst_dev:
            worst_dev = dev
            worst = (tuple(int(v) for v in A), tuple(int(v) for v in B))
    return ConcentrationReport(
        beta=beta,
        threshold=beta / 2.0,
        n_samples=n_samples,
        size_min=k_min,
        size_max=k_max,
        max_deviation=float(deviations.max()),
        mean_deviation=float(deviations.mean()),
        passed=bool(deviations.max() < beta / 2.0),
        worst_pair=worst,
    )


# -- stars -------------------------------------------------------------------


def make_star(n: int) -> WeightedGraph:
    """Star on n vertices, hub 0: mu splits half hub / half leaves,
    every spoke has weight n / 2.

    Totals are mu(V) = 1 and sum rho = C(n, 2), so the global density is
    n (n - 1); the (hub, leaves) pair has constant density 2 n (n - 1).
    The hub's mass share triggers the heavy-vertex warning by design, so
    it is suppressed here.
    """
    if n < 2:
        raise InputError("a star needs at least two vertices")
    mu = np.full(n, 1.0 / (2.0 * (n - 1)))
    mu[0] = 0.5
    rho = np.zeros((n, n))
    rho[0, 1:] = n / 2.0
    rho[1:, 0] = n / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeavyVertexWarning)
        return WeightedGraph(n=n, mu=mu, rho=rho)


# -- volume weights -----------------------------------------------------------


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """The 0/1 adjacency matrix of an unweighted edge list.

    Entries need integer, distinct endpoints in [0, n), and (v, u)
    repeats (u, v).  The first failing entry is cited, with its first
    failed check in that order.
    """
    u, v = _columns(edges, 2, "edges")
    iu, iv, _, checks = _endpoint_checks(
        u, v, "edges",
        lambda i, j: (0 <= i) & (i < n) & (0 <= j) & (j < n) & (i != j),
        lambda k: f"edges[{k}]: need distinct endpoints in [0, {n}), got ({u[k]}, {v[k]})",
        unordered=True,
    )
    _raise_first_failure(checks)
    adj = np.zeros((n, n))
    adj[iu, iv] = adj[iv, iu] = 1.0
    return adj


def volume_weights(n: int, edges: Iterable[tuple[int, int]]) -> WeightedGraph:
    """Degree-proportional weighting of an unweighted graph.

    mu(v) = n deg(v) / vol(V) and rho = n^2 / vol(V) on every edge, so
    weighted pair densities coincide with volume-normalized edge
    densities and the global density is exactly 1.  Isolated vertices
    have no volume to carry and are rejected.
    """
    adj = _adjacency(n, edges)
    deg = adj.sum(axis=1)
    if np.any(deg == 0):
        isolated = int(np.flatnonzero(deg == 0)[0])
        raise InputError(
            f"vertex {isolated} is isolated; volume weights need positive degrees"
        )
    vol = float(deg.sum())
    mu = n * deg / vol
    rho = adj * (n * n / vol)
    return WeightedGraph(n=n, mu=mu, rho=rho)


def _volume_sides(
    n: int, edges: Iterable[tuple[int, int]], A: Iterable[int], B: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency, degrees, and two disjoint sides that both carry volume."""
    adj = _adjacency(n, edges)
    a, b = pair_sides(n, A, B)
    deg = adj.sum(axis=1)
    if deg[a].sum() == 0.0 or deg[b].sum() == 0.0:
        raise InputError("both sides must carry volume")
    return adj, deg, a, b


def volume_density(
    n: int,
    edges: Iterable[tuple[int, int]],
    X: Iterable[int],
    Y: Iterable[int],
) -> float:
    """e(X, Y) vol(V) / (vol(X) vol(Y)) for disjoint X, Y."""
    adj, deg, x, y = _volume_sides(n, edges, X, Y)
    e_xy = float(adj[np.ix_(x, y)].sum())
    return e_xy * float(deg.sum()) / (float(deg[x].sum()) * float(deg[y].sum()))


def check_volume_pair(
    n: int,
    edges: Iterable[tuple[int, int]],
    A: Iterable[int],
    B: Iterable[int],
    eps: float,
    *,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> PairRegularityVerdict:
    """Volume-form regularity of a pair in an unweighted graph.

    Sub-pairs qualify by volume floors vol(X) >= eps vol(A); they must
    carry the expected share of edges:

        |e(X, Y) - e(A, B) vol(X) vol(Y) / (vol(A) vol(B))|
            < eps vol(A) vol(B) / vol(V).

    Deviations and the reported threshold are in edge-count units.
    Dividing both sides by vol(X) vol(Y) / vol(V) shows this is a
    volume-density comparison with a tolerance that loosens for small
    sub-pairs, so weighted regularity under degree-proportional weights
    (a constant tolerance of eps on the same densities) implies it.
    """
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    adj, deg, a, b = _volume_sides(n, edges, A, B)
    vol_v = float(deg.sum())
    wa = deg[a]
    wb = deg[b]
    vol_a = float(wa.sum())
    vol_b = float(wb.sum())
    cross = adj[np.ix_(a, b)]
    e_ab = float(cross.sum())
    share = e_ab / (vol_a * vol_b)

    def deviation(tables, wx, wy):
        return np.abs(tables[0] - share * (wx * wy))

    return pair_verdict(
        [cross], wa, wb, deviation,
        eps=eps, base=e_ab * vol_v / (vol_a * vol_b), ids_a=a, ids_b=b,
        threshold=eps * vol_a * vol_b / vol_v, form="volume",
        mode=mode, seed=seed, restarts=restarts,
    )


# -- the bipartite counterexample ---------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """Half-dense bipartite construction separating edge-count and
    volume/weighted regularity.

    With quarters A1, A2, B1, B2: A1 x B and A2 x B1 are complete while
    A2 x B2 keeps each edge with probability 1 / sqrt(n).  Counting
    edges per vertex pair, (A, B) looks far from regular at the
    (A2, B2) sub-pair; weighting sampled edges by sqrt(n) (reciprocal
    probability) restores near-constant block densities.
    """

    n: int
    parts: dict[str, tuple[int, ...]]
    det_edges: tuple[tuple[int, int], ...]
    random_edges: tuple[tuple[int, int], ...]
    p_random: float

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(self.det_edges) + list(self.random_edges)

    def adjacency(self) -> np.ndarray:
        return _adjacency(self.n, self.edges)

    def reciprocal_graph(self) -> WeightedGraph:
        """Unit mu; weight 1 on sure edges, sqrt(n) on sampled ones."""
        rho = np.zeros((self.n, self.n))
        for u, v in self.det_edges:
            rho[u, v] = rho[v, u] = 1.0
        w = 1.0 / self.p_random
        for u, v in self.random_edges:
            rho[u, v] = rho[v, u] = w
        return WeightedGraph(n=self.n, mu=np.ones(self.n), rho=rho)


def make_counterexample(n: int, seed: int) -> Counterexample:
    if n < 8 or n % 4:
        raise InputError("the counterexample needs n divisible by 4, n >= 8")
    q = n // 4
    a1 = tuple(range(0, q))
    a2 = tuple(range(q, 2 * q))
    b1 = tuple(range(2 * q, 3 * q))
    b2 = tuple(range(3 * q, 4 * q))
    det: list[tuple[int, int]] = []
    for u in a1:
        for v in b1 + b2:
            det.append((u, v))
    for u in a2:
        for v in b1:
            det.append((u, v))
    p = 1.0 / sqrt(n)
    rng = np.random.default_rng(seed)
    coins = rng.random((q, q))
    rand = [
        (a2[i], b2[j]) for i in range(q) for j in range(q) if coins[i, j] < p
    ]
    return Counterexample(
        n=n,
        parts={
            "A1": a1, "A2": a2, "B1": b1, "B2": b2,
            "A": a1 + a2, "B": b1 + b2,
        },
        det_edges=tuple(det),
        random_edges=tuple(rand),
        p_random=p,
    )
