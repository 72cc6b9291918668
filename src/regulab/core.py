"""Weighted graph primitives.

A graph on vertices 0..n-1 carries strictly positive vertex weights
``mu`` and strictly positive edge weights ``rho``; vertex pairs that are
not edges weigh zero.  Set masses, pair densities, and an inner product
on symmetric pair functions are all expressed through the two weight
systems:

    rho(A, B)   = sum over u in A, v in B of rho(u, v) (ordered pairs,
                  so rho(V, V) counts every edge twice),
    d(A, B)     = rho(A, B) / (mu(A) * mu(B))  for disjoint A, B,
    <g, h>      = (1 / C(n,2)) * sum over unordered pairs of
                  g(u,v) * h(u,v) * rho(u,v).

``normalize`` rescales weights so that mu(V) = n and the all-ones pair
function has unit norm (total unordered edge weight C(n,2)); every
downstream check assumes that convention unless noted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb, inf
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

FLOAT_TOL = 1e-9

__all__ = [
    "FLOAT_TOL",
    "InputError",
    "HeavyVertexWarning",
    "WeightedGraph",
    "SubgraphPair",
    "EdgeFunction",
    "NormalizationScales",
    "index_array",
    "mu_sum",
    "rho_sum",
    "weighted_density",
    "global_density",
    "normalize",
    "inner_product",
    "norm",
]


class InputError(ValueError):
    """Invalid graph data or parameters (maps to CLI exit code 2)."""


class HeavyVertexWarning(UserWarning):
    """A single vertex holds over a tenth of the total vertex mass and
    more than twice the average share."""


def index_array(n: int, subset: Iterable[int], name: str = "subset") -> np.ndarray:
    """Sorted, duplicate-free int64 index array for a vertex subset.

    Entries must be integers (``True`` and ``1.0`` are rejected, not
    cast); an integer beyond int64 is out of range like any other.
    """
    out_of_range = f"{name}: vertex indices must lie in [0, {n})"
    if isinstance(subset, np.ndarray) and subset.dtype.kind in "iu":
        arr = np.unique(subset.astype(np.int64))
    else:
        items = list(subset)
        if not all(map(_is_index, items)):
            raise InputError(f"{name}: vertex indices must be integers")
        try:
            arr = np.unique(np.array(items, dtype=np.int64))
        except OverflowError:
            raise InputError(out_of_range) from None
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise InputError(out_of_range)
    return arr


def pair_sides(n: int, A: Iterable[int], B: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index arrays of two nonempty, disjoint vertex sets."""
    a = index_array(n, A, "A")
    b = index_array(n, B, "B")
    if not a.size or not b.size:
        raise InputError("pair sides must be nonempty")
    if np.intersect1d(a, b).size:
        raise InputError("pair sides must be disjoint")
    return a, b


def _is_index(x: object) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _index_column(values: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An endpoint column as int64, and the mask of its integer entries.

    Entries that are not integers, or that lie outside int64, become -1
    and so fail every range check; error messages quote ``values``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64), np.ones(values.shape, dtype=bool)
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64), np.ones(len(values), dtype=bool)
        except OverflowError:
            pass
    is_int = np.fromiter(map(_is_index, values), dtype=bool, count=len(values))
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    kept = [int(x) if ok and lo <= x <= hi else -1 for x, ok in zip(values, is_int)]
    return np.array(kept, dtype=np.int64), is_int


def _saturated_float(x: float) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        return inf if x > 0 else -inf


def _weight_column(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Edge weights as float64; integers beyond the float range become +-inf."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        return np.array([_saturated_float(x) for x in values], dtype=np.float64)


def _columns(rows: Iterable[Sequence], width: int, name: str) -> list[list]:
    """The columns of an iterable of fixed-width rows."""
    rows = list(rows)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    bad = np.flatnonzero(lengths != width)
    if bad.size:
        raise InputError(f"{name}[{bad[0]}]: expected {width} values")
    return [list(map(itemgetter(j), rows)) for j in range(width)]


_Check = tuple[np.ndarray, Callable[[int], str]]


def _raise_first_failure(checks: list[_Check]) -> None:
    """Raise for the first entry that fails a check.

    Each check is a per-entry pass mask and a message for entry k; the
    failing entry reports its first failed check in list order.
    """
    starts = [fails[0] for fails in (np.flatnonzero(~ok) for ok, _ in checks) if fails.size]
    if not starts:
        return
    k = int(min(starts))
    raise InputError(next(message(k) for ok, message in checks if not ok[k]))


def _endpoint_checks(
    u: Sequence[int] | np.ndarray,
    v: Sequence[int] | np.ndarray,
    name: str,
    in_range: Callable[[np.ndarray, np.ndarray], np.ndarray],
    outside: Callable[[int], str],
    *,
    unordered: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[_Check]]:
    """Endpoint arrays of an edge list, its in-range mask, and its
    integer, range and duplicate checks, in that order.

    ``in_range(iu, iv)`` masks the entries whose int64 endpoints are
    valid (entries that are not integers read as -1), and ``outside(k)``
    is the message for entry k when they are not.  An entry repeats
    when an earlier valid entry has the same endpoints, in either order
    when ``unordered``.
    """
    iu, u_int = _index_column(u)
    iv, v_int = _index_column(v)
    valid = in_range(iu, iv)
    lo, hi = (np.minimum(iu, iv), np.maximum(iu, iv)) if unordered else (iu, iv)
    stride = int(hi[valid].max()) + 1 if valid.any() else 1
    _, first = np.unique(np.where(valid, lo * stride + hi, -1), return_index=True)
    fresh = np.zeros(len(iu), dtype=bool)
    fresh[first] = True
    checks = [
        (u_int & v_int, lambda k: f"{name}[{k}]: endpoints must be integers"),
        (valid, outside),
        (fresh, lambda k: f"{name}[{k}]: duplicate edge ({u[k]}, {v[k]})"),
    ]
    return iu, iv, valid, checks


def _below_and_ordered(n: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The endpoint test of a graph's edges: 0 <= u < v < n."""
    return lambda iu, iv: (0 <= iu) & (iu < iv) & (iv < n)


def _check_pair_matrix(n: int, values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n, n):
        raise InputError(f"{name}: expected shape ({n}, {n}), got {values.shape}")
    if not np.array_equal(values, values.T):
        raise InputError(f"{name}: matrix must be exactly symmetric")
    if np.any(np.diagonal(values) != 0.0):
        raise InputError(f"{name}: diagonal must be zero (no loops)")
    return values


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex-weighted, edge-weighted undirected graph without loops.

    ``rho`` is the dense symmetric matrix of edge weights with zeros off
    the edge set; an entry is positive exactly when the pair is an edge.
    Arrays are frozen after construction.
    """

    n: int
    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.shape != (self.n,):
            raise InputError(f"mu: expected {self.n} vertex weights, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            raise InputError("mu: vertex weights must be finite and strictly positive")
        rho = _check_pair_matrix(self.n, self.rho, "rho")
        if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
            raise InputError("rho: edge weights must be finite and nonnegative")
        mu = mu.copy()
        rho = rho.copy()
        mu.setflags(write=False)
        rho.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)
        tol = FLOAT_TOL * mu.sum()  # a slack in the unit of mass
        heavy = mu.max() > mu.sum() / 10.0 + tol
        lopsided = mu.max() > 2.0 * mu.sum() / self.n + tol
        if self.n >= 2 and heavy and lopsided:
            warnings.warn(
                "a single vertex carries more than 10% of the total vertex "
                "mass (and over twice the average); mass floors may behave "
                "degenerately",
                HeavyVertexWarning,
                stacklevel=2,
            )

    @classmethod
    def from_edges(
        cls,
        n: int,
        mu: Sequence[float] | np.ndarray,
        edges: Iterable[tuple[int, int, float]],
    ) -> "WeightedGraph":
        """Graph from (u, v, rho) triples; see ``from_edge_columns``."""
        return cls.from_edge_columns(n, mu, *_columns(edges, 3, "edges"))

    @classmethod
    def from_edge_columns(
        cls,
        n: int,
        mu: Sequence[float] | np.ndarray,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        w: Sequence[float] | np.ndarray,
    ) -> "WeightedGraph":
        """Graph whose k-th edge is (u[k], v[k]) with weight w[k].

        Edges need integer endpoints 0 <= u < v < n, no repeats, and
        finite positive weights.  The first failing edge is cited, with
        its first failed check in that order.
        """
        iu, iv, _, checks = _endpoint_checks(
            u, v, "edges", _below_and_ordered(n),
            lambda k: f"edges[{k}]: need 0 <= u < v < n, got ({u[k]}, {v[k]}) with n={n}")
        weights = _weight_column(w)
        checks.append((np.isfinite(weights) & (weights > 0.0), lambda k: (
            f"edges[{k}]: edge weight must be finite and positive, got {float(weights[k])}")))
        _raise_first_failure(checks)
        rho = np.zeros((n, n), dtype=np.float64)
        rho[iu, iv] = rho[iv, iu] = weights
        return cls(n=n, mu=np.asarray(mu, dtype=np.float64), rho=rho)

    # -- basic views ---------------------------------------------------

    @property
    def edge_mask(self) -> np.ndarray:
        return self.rho > 0.0

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, rho) with u < v, sorted lexicographically."""
        iu, iv = np.nonzero(np.triu(self.rho, k=1))
        return list(zip(iu.tolist(), iv.tolist(), self.rho[iu, iv].tolist()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.rho, k=1)))

    @property
    def mu_total(self) -> float:
        return float(self.mu.sum())

    @property
    def rho_total(self) -> float:
        """Total edge weight over unordered pairs."""
        return float(np.triu(self.rho, k=1).sum())

    @property
    def pair_count(self) -> int:
        return comb(self.n, 2)


@dataclass(frozen=True)
class SubgraphPair:
    """A host graph G together with a spanning subgraph F (F keeps every
    vertex and a subset of the edges; edge weights are inherited)."""

    graph: WeightedGraph
    f_mask: np.ndarray
    rho_f: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.f_mask)
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        n = self.graph.n
        if mask.shape != (n, n):
            raise InputError(f"f_mask: expected shape ({n}, {n})")
        if not np.array_equal(mask, mask.T) or np.any(np.diagonal(mask)):
            raise InputError("f_mask: must be symmetric with empty diagonal")
        if np.any(mask & ~self.graph.edge_mask):
            raise InputError("F must be a subset of the host graph's edges")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "f_mask", mask)
        rho_f = np.where(mask, self.graph.rho, 0.0)
        rho_f.setflags(write=False)
        object.__setattr__(self, "rho_f", rho_f)

    @classmethod
    def from_edges(
        cls, graph: WeightedGraph, f_edges: Iterable[tuple[int, int]]
    ) -> "SubgraphPair":
        """Pair from (u, v) edge tuples; see ``from_edge_columns``."""
        return cls.from_edge_columns(graph, *_columns(f_edges, 2, "f_edges"))

    @classmethod
    def from_edge_columns(
        cls, graph: WeightedGraph, u: Sequence[int] | np.ndarray, v: Sequence[int] | np.ndarray
    ) -> "SubgraphPair":
        """Pair whose k-th F-edge is (u[k], v[k]).

        F-edges need integer endpoints 0 <= u < v < n, no repeats, and
        must be host edges.  The first failing edge is cited, with its
        first failed check in that order.
        """
        iu, iv, in_range, checks = _endpoint_checks(
            u, v, "f_edges", _below_and_ordered(graph.n),
            lambda k: f"f_edges[{k}]: need 0 <= u < v < n, got ({u[k]}, {v[k]})")
        host = np.ones(len(iu), dtype=bool)
        host[in_range] = graph.rho[iu[in_range], iv[in_range]] != 0.0
        checks.append((host, lambda k: f"f_edges[{k}]: ({u[k]}, {v[k]}) is not an edge of the host graph"))
        _raise_first_failure(checks)
        mask = np.zeros((graph.n, graph.n), dtype=bool)
        mask[iu, iv] = mask[iv, iu] = True
        return cls(graph=graph, f_mask=mask)

    @classmethod
    def full(cls, graph: WeightedGraph) -> "SubgraphPair":
        return cls(graph=graph, f_mask=graph.edge_mask)

    @property
    def n(self) -> int:
        return self.graph.n

    def f_edge_list(self) -> list[tuple[int, int]]:
        iu, iv = np.nonzero(np.triu(self.f_mask, k=1))
        return list(zip(iu.tolist(), iv.tolist()))

    def indicator(self) -> "EdgeFunction":
        """The pair function 1_F (1 on F's edges, 0 elsewhere)."""
        return EdgeFunction(self.f_mask.astype(np.float64))


@dataclass(frozen=True)
class EdgeFunction:
    """Symmetric real-valued function on vertex pairs of an n-vertex graph."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        n = values.shape[0] if values.ndim == 2 else -1
        values = _check_pair_matrix(n, values, "values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, n: int) -> "EdgeFunction":
        return cls(np.zeros((n, n), dtype=np.float64))

    @classmethod
    def cross_indicator(cls, n: int, A: Iterable[int], B: Iterable[int]) -> "EdgeFunction":
        """Indicator of pairs with one endpoint in A and the other in B
        (A and B disjoint)."""
        a = index_array(n, A, "A")
        b = index_array(n, B, "B")
        if np.intersect1d(a, b).size:
            raise InputError("cross_indicator: A and B must be disjoint")
        values = np.zeros((n, n), dtype=np.float64)
        if a.size and b.size:
            values[np.ix_(a, b)] = 1.0
            values[np.ix_(b, a)] = 1.0
        return cls(values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __add__(self, other: "EdgeFunction") -> "EdgeFunction":
        return EdgeFunction(self.values + _as_values(other, self.n))

    def __sub__(self, other: "EdgeFunction") -> "EdgeFunction":
        return EdgeFunction(self.values - _as_values(other, self.n))

    def __mul__(self, scalar: float) -> "EdgeFunction":
        return EdgeFunction(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "EdgeFunction":
        return EdgeFunction(-self.values)


def _as_values(g: EdgeFunction | np.ndarray, n: int) -> np.ndarray:
    values = g.values if isinstance(g, EdgeFunction) else np.asarray(g, dtype=np.float64)
    if values.shape != (n, n):
        raise InputError(f"pair function has shape {values.shape}, expected ({n}, {n})")
    return values


# -- masses and densities ----------------------------------------------


def mu_sum(G: WeightedGraph, S: Iterable[int]) -> float:
    """Total vertex mass of S."""
    idx = index_array(G.n, S, "S")
    return float(G.mu[idx].sum())


def _rho_matrix(H: WeightedGraph | SubgraphPair) -> tuple[WeightedGraph, np.ndarray]:
    if isinstance(H, SubgraphPair):
        return H.graph, H.rho_f
    return H, H.rho


def rho_sum(H: WeightedGraph | SubgraphPair, A: Iterable[int], B: Iterable[int]) -> float:
    """Edge mass between A and B over ordered pairs (u in A, v in B).

    For disjoint A and B every edge contributes once; with A = B = V
    every edge contributes twice.  For a SubgraphPair the sum runs over
    F's edges only.
    """
    G, R = _rho_matrix(H)
    a = index_array(G.n, A, "A")
    b = index_array(G.n, B, "B")
    if not a.size or not b.size:
        return 0.0
    return float(R[np.ix_(a, b)].sum())


def weighted_density(
    H: WeightedGraph | SubgraphPair, A: Iterable[int], B: Iterable[int]
) -> float:
    """rho(A, B) / (mu(A) mu(B)) for disjoint nonempty A, B."""
    G, R = _rho_matrix(H)
    a, b = pair_sides(G.n, A, B)
    return float(R[np.ix_(a, b)].sum()) / (float(G.mu[a].sum()) * float(G.mu[b].sum()))


def global_density(G: WeightedGraph) -> float:
    """rho(V, V) / mu(V)^2 (the ordered sum counts every edge twice)."""
    return 2.0 * G.rho_total / G.mu_total**2


# -- normalization -----------------------------------------------------


@dataclass(frozen=True)
class NormalizationScales:
    mu_scale: float
    rho_scale: float


def normalize(G: WeightedGraph) -> tuple[WeightedGraph, NormalizationScales]:
    """Rescale so mu(V) = n and total unordered edge weight is C(n, 2).

    The second condition makes the all-ones pair function have unit
    norm.  Requires at least one edge.
    """
    if G.edge_count == 0:
        raise InputError("normalize: graph has no edges to rescale")
    if G.n < 2:
        raise InputError("normalize: need at least two vertices")
    mu_scale = G.n / G.mu_total
    rho_scale = comb(G.n, 2) / G.rho_total
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeavyVertexWarning)
        scaled = WeightedGraph(n=G.n, mu=G.mu * mu_scale, rho=G.rho * rho_scale)
    return scaled, NormalizationScales(mu_scale=mu_scale, rho_scale=rho_scale)


def is_normalized(G: WeightedGraph, rtol: float = 1e-9) -> bool:
    if G.edge_count == 0 or G.n < 2:
        return False
    mu_ok = abs(G.mu_total - G.n) <= rtol * G.n
    rho_ok = abs(G.rho_total - comb(G.n, 2)) <= rtol * comb(G.n, 2)
    return mu_ok and rho_ok


# -- inner product -----------------------------------------------------


def inner_product(
    G: WeightedGraph,
    g: EdgeFunction | np.ndarray,
    h: EdgeFunction | np.ndarray,
) -> float:
    """<g, h> = (1 / C(n,2)) sum over unordered pairs of g * h * rho.

    Pairs off the edge set contribute nothing regardless of g and h.
    """
    if G.n < 2:
        raise InputError("inner_product: need at least two vertices")
    gv = _as_values(g, G.n)
    hv = _as_values(h, G.n)
    # every unordered pair appears twice in the full elementwise sum
    total = float((gv * hv * G.rho).sum()) / 2.0
    return total / comb(G.n, 2)


def norm(G: WeightedGraph, g: EdgeFunction | np.ndarray) -> float:
    return float(np.sqrt(max(inner_product(G, g, g), 0.0)))
