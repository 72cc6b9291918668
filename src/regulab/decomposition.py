"""Structured + pseudorandom + small decomposition of pair functions.

Given a pair function f with ||f|| <= 1 on a host graph, the greedy
energy-increment loop peels off basic functions (cross-pair indicators
gamma_{A,B} with A, B disjoint) while some gamma correlates with the
residual above a shrinking threshold:

    repeat: find gamma maximizing |<f - f_str, gamma>|;
            stop if the best correlation is below 1 / J(M + 1);
            otherwise add gamma to the basis and recompute f_str as the
            least-squares projection of f with coefficients clipped to
            [-M, M].

On a threshold stop, f_psd is the unclipped projection residual and
f_err the clipping difference, so f = f_str + f_psd + f_err exactly; on
a budget stop the non-pseudorandom remainder goes to f_err and f_psd is
zero.  The reported certificate is the best correlation measured
against the final f_psd itself, so it stays honest when clipping made
the search residual and f_psd differ.  Correlation maximization is
exhaustive (3^n assignments) for n up to the constant BEST_BASIC_CAP
and alternating-maximization search above it; ``auto``, the default,
picks by that cap.  A decomposition is certified only on an exact
certificate: the maximizer ran exhaustively, or f_psd is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from ._enumerate import decode_assignment, resolve_mode, ternary_assignment_sums
from ._search import best_of_restarts
from .core import (
    EdgeFunction,
    InputError,
    WeightedGraph,
    _is_index,
    index_array,
    inner_product,
    norm,
)

BEST_BASIC_CAP = 12  # vertices n of the 3^n correlation table
ALTERNATING_ROUNDS = 64  # best-response rounds per alternating maximization
RIDGE_CONDITION_LIMIT = 1e12
RIDGE_FACTOR = 1e-10

__all__ = [
    "BEST_BASIC_CAP",
    "BasicFunction",
    "ProjectionResult",
    "StructuredDecomposition",
    "correlation",
    "basic_inner",
    "best_basic_exhaustive",
    "best_basic_search",
    "project_structured",
    "strong_decompose",
]


@dataclass(frozen=True)
class BasicFunction:
    """gamma_{A,B}: 1 on pairs with one endpoint in A and one in B."""

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        a = _basic_side(self.n, self.a, "A")
        b = _basic_side(self.n, self.b, "B")
        if set(a) & set(b):
            raise InputError("basic function sides must be disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def indicator(self) -> EdgeFunction:
        return EdgeFunction.cross_indicator(self.n, self.a, self.b)

    def same_support(self, other: "BasicFunction") -> bool:
        return (self.a == other.a and self.b == other.b) or (
            self.a == other.b and self.b == other.a
        )


def _basic_side(n: int, side: Iterable[int], name: str) -> tuple[int, ...]:
    """A side of a basic function as sorted, distinct vertex ids; entries
    must be integers (``True`` and ``1.0`` are rejected, not cast)."""
    items = tuple(side)
    if not all(map(_is_index, items)):
        raise InputError(f"{name}: vertex indices must be integers")
    out = tuple(sorted(set(map(int, items))))
    if out and not (0 <= out[0] and out[-1] < n):
        raise InputError(f"{name}: vertex indices out of range")
    return out


def _cross_sum(W: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    if not a.size or not b.size:
        return 0.0
    return float(W[np.ix_(a, b)].sum())


def correlation(
    G: WeightedGraph,
    r: EdgeFunction,
    A: Iterable[int],
    B: Iterable[int],
) -> float:
    """<r, gamma_{A,B}> for disjoint A, B."""
    a = index_array(G.n, A, "A")
    b = index_array(G.n, B, "B")
    if np.intersect1d(a, b).size:
        raise InputError("correlation: A and B must be disjoint")
    W = r.values * G.rho
    return _cross_sum(W, a, b) / comb(G.n, 2)


def basic_inner(G: WeightedGraph, p: BasicFunction, q: BasicFunction) -> float:
    """<gamma_p, gamma_q> without materializing the indicator matrices."""
    R = G.rho
    pa, pb = np.asarray(p.a, dtype=np.int64), np.asarray(p.b, dtype=np.int64)
    qa, qb = np.asarray(q.a, dtype=np.int64), np.asarray(q.b, dtype=np.int64)
    aa = np.intersect1d(pa, qa)
    bb = np.intersect1d(pb, qb)
    ab = np.intersect1d(pa, qb)
    ba = np.intersect1d(pb, qa)
    total = _cross_sum(R, aa, bb) + _cross_sum(R, ab, ba)
    return total / comb(G.n, 2)


def best_basic_exhaustive(G: WeightedGraph, r: EdgeFunction) -> tuple[BasicFunction, float]:
    """Maximize |<r, gamma_{A,B}>| over all disjoint pairs by enumeration,
    for n <= BEST_BASIC_CAP.

    Ties resolve to the lexicographically smallest assignment; with
    r = 0 everywhere that is the empty pair.
    """
    resolve_mode("exhaustive", (G.n,), BEST_BASIC_CAP, "n")
    W = r.values * G.rho
    _, _, s_ab = ternary_assignment_sums(W, G.mu)
    code = int(np.argmax(np.abs(s_ab)))
    corr = float(s_ab[code]) / comb(G.n, 2)
    a, b = decode_assignment(code, G.n)
    return BasicFunction(G.n, a, b), corr


def _alternating_fixpoint(
    W: np.ndarray, b_start: np.ndarray, sign: float
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Alternate best-response A- and B-steps from a starting B side.

    Each half-step replaces one side by its exact best response, so the
    signed objective sign * sum_{A x B} W never decreases; asserted per
    step.  Returns A, B, the objective and the rounds taken.
    """
    b = b_start.copy()
    value = -np.inf
    a = np.zeros_like(b)
    for rounds in range(1, ALTERNATING_ROUNDS + 1):
        d = W @ b.astype(np.float64)
        a = (sign * d > 0.0) & ~b
        value_a = float(sign * d[a].sum())
        # the two sides of each comparison are the same bilinear sum
        # accumulated in different orders, so the slack must scale with it
        assert value_a >= value - 1e-9 * (1.0 + abs(value))
        e = W @ a.astype(np.float64)
        b_new = (sign * e > 0.0) & ~a
        value_b = float(sign * e[b_new].sum())
        assert value_b >= value_a - 1e-9 * (1.0 + abs(value_a))
        value = value_b
        if (b_new == b).all():
            break
        b = b_new
    return a, b, value, rounds


def best_basic_search(
    G: WeightedGraph,
    r: EdgeFunction,
    *,
    seed: int,
    restarts: int = 64,
) -> tuple[BasicFunction, float]:
    """Alternating maximization of |<r, gamma_{A,B}>| from random B
    sides, both signs per start (+1 first, so it wins a tie)."""
    W = r.values * G.rho
    n = G.n
    pairs = comb(n, 2)

    def climb(b_start):
        for sign in (1.0, -1.0):
            a, b, value, rounds = _alternating_fixpoint(W, b_start, sign)
            yield sign * value / pairs, a, b, rounds

    best = best_of_restarts(seed, restarts, lambda rng: rng.random(n) < 0.5, climb, abs)
    return BasicFunction(n, best.a, best.b), best.value


def _best_basic(
    G: WeightedGraph,
    r: EdgeFunction,
    mode: str,
    seed: int,
    restarts: int,
) -> tuple[BasicFunction, float]:
    # ``mode`` is already resolved to "exhaustive" or "search"
    if mode == "exhaustive":
        return best_basic_exhaustive(G, r)
    return best_basic_search(G, r, seed=seed, restarts=restarts)


# -- projection ------------------------------------------------------------


@dataclass
class ProjectionResult:
    """Least-squares projection onto the span of a basic-function basis.

    ``coefficients`` are clipped to [-k_bound, k_bound]; ``raw`` keeps
    the unclipped least-squares solution.  ``f_proj`` / ``f_proj_raw``
    are the corresponding combinations.  ``ridge`` reports the
    regularizer added when the Gram matrix is ill-conditioned
    (condition number above 1e12), ``degenerate`` that even that failed
    and a pseudo-inverse was used.
    """

    coefficients: tuple[float, ...]
    raw: tuple[float, ...]
    f_proj: EdgeFunction
    f_proj_raw: EdgeFunction
    condition: float
    ridge: float
    clipped: bool
    degenerate: bool


def _combine(n: int, coeffs: Sequence[float], basis: Sequence[BasicFunction]) -> EdgeFunction:
    vals = np.zeros((n, n))
    for c, bf in zip(coeffs, basis):
        if c == 0.0 or not bf.a or not bf.b:
            continue
        a = np.asarray(bf.a, dtype=np.int64)
        b = np.asarray(bf.b, dtype=np.int64)
        vals[np.ix_(a, b)] += c
        vals[np.ix_(b, a)] += c
    return EdgeFunction(vals)


def project_structured(
    G: WeightedGraph,
    f: EdgeFunction,
    basis: Sequence[BasicFunction],
    k_bound: float,
) -> ProjectionResult:
    """Project f onto span(basis) in the rho-weighted inner product."""
    m = len(basis)
    if m == 0:
        zero = EdgeFunction.zeros(G.n)
        return ProjectionResult((), (), zero, zero, 0.0, 0.0, False, False)
    if k_bound <= 0:
        raise InputError("k_bound must be positive")
    gram = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = basic_inner(G, basis[i], basis[j])
    rhs = np.array([correlation(G, f, bf.a, bf.b) for bf in basis])
    condition = float(np.linalg.cond(gram)) if m else 0.0
    ridge = 0.0
    degenerate = False
    solve_mat = gram
    if not np.isfinite(condition) or condition > RIDGE_CONDITION_LIMIT:
        ridge = RIDGE_FACTOR * float(np.trace(gram)) / m
        solve_mat = gram + ridge * np.eye(m)
    try:
        raw = np.linalg.solve(solve_mat, rhs)
    except np.linalg.LinAlgError:
        raw, *_ = np.linalg.lstsq(solve_mat, rhs, rcond=None)
        degenerate = True
    clipped_arr = np.clip(raw, -k_bound, k_bound)
    clipped = bool(np.any(clipped_arr != raw))
    f_proj = _combine(G.n, clipped_arr, basis)
    f_proj_raw = f_proj if not clipped else _combine(G.n, raw, basis)
    return ProjectionResult(
        coefficients=tuple(float(c) for c in clipped_arr),
        raw=tuple(float(c) for c in raw),
        f_proj=f_proj,
        f_proj_raw=f_proj_raw,
        condition=condition,
        ridge=ridge,
        clipped=clipped,
        degenerate=degenerate,
    )


# -- the decomposition loop -------------------------------------------------


@dataclass
class StructuredDecomposition:
    """f = f_str + f_psd + f_err with per-part certificates.

    ``psd_certificate`` is the best |<f_psd, gamma>| found at
    termination, to be compared with ``cert_bound`` = 1/J(M); it is
    exact when ``mode``, the mode that ran, is exhaustive or f_psd is
    zero, and a search lower bound otherwise.  ``err_norm`` = ||f_err||.
    ``certified`` means the loop stopped at the correlation threshold,
    the certificate is exact and respects its bound, and err_norm <= eps.
    """

    terms: list[tuple[float, BasicFunction]]
    M: int
    k_bound: float
    f_str: EdgeFunction
    f_psd: EdgeFunction
    f_err: EdgeFunction
    psd_certificate: float
    cert_bound: float
    err_norm: float
    eps: float
    certified: bool
    stop_reason: str
    mode: str
    clipped: bool
    ridge: float
    energy_history: list[dict]

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "k_bound": self.k_bound,
            "terms": [
                {"coefficient": c, "A": list(bf.a), "B": list(bf.b)}
                for c, bf in self.terms
            ],
            "psd_certificate": self.psd_certificate,
            "cert_bound": self.cert_bound,
            "err_norm": self.err_norm,
            "eps": self.eps,
            "certified": self.certified,
            "stop_reason": self.stop_reason,
            "mode": self.mode,
            "clipped": self.clipped,
            "ridge": self.ridge,
            "energy_history": self.energy_history,
        }


def strong_decompose(
    G: WeightedGraph,
    f: EdgeFunction,
    *,
    eps: float,
    J: Callable[[int], float] | None = None,
    j_of_basis: Callable[[Sequence[BasicFunction], int], float] | None = None,
    M_max: int = 64,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
    stop_when: Callable[[Sequence[BasicFunction]], bool] | None = None,
) -> StructuredDecomposition:
    """Greedy energy-increment decomposition of f.

    ``J`` maps a prospective term count m >= 1 to the correlation
    denominator (must be nondecreasing; checked on consulted values).
    ``j_of_basis`` may replace it when the threshold depends on the
    basis itself rather than its size.  ``stop_when`` is an external
    budget: consulted with the would-be extended basis, a True return
    stops the loop before the candidate is added.
    """
    mode = resolve_mode(mode, (G.n,), BEST_BASIC_CAP, "n")
    if (J is None) == (j_of_basis is None):
        raise InputError("exactly one of J and j_of_basis is required")
    if eps <= 0:
        raise InputError("eps must be positive")
    f_norm = norm(G, f)
    if f_norm > 1.0 + 1e-9:
        raise InputError(f"strong_decompose requires ||f|| <= 1, got {f_norm:.6g}")

    def j_value(basis: Sequence[BasicFunction], m: int) -> float:
        value = float(j_of_basis(basis, m)) if j_of_basis is not None else float(J(m))
        if not np.isfinite(value) or value <= 0:
            raise InputError(f"J({m}) must be a positive finite number, got {value}")
        return value

    basis: list[BasicFunction] = []
    projection = project_structured(G, f, basis, 1.0)
    energy_history: list[dict] = []
    stop_reason = "pseudorandom"
    prev_threshold = np.inf
    threshold = np.nan
    while True:
        M = len(basis)
        if M >= M_max:
            stop_reason = "term_budget"
            break
        threshold = 1.0 / j_value(basis, M + 1)
        if threshold > prev_threshold + 1e-15:
            raise InputError("J must be nondecreasing in the term count")
        prev_threshold = threshold
        residual = EdgeFunction(f.values - projection.f_proj.values)
        candidate, corr = _best_basic(G, residual, mode, seed + M, restarts)
        if abs(corr) < threshold:
            stop_reason = "pseudorandom"
            break
        if any(candidate.same_support(t) for t in basis):
            # an exact projection would have zero residual correlation with
            # a basis member; reaching here means clipping blocks progress
            stop_reason = "stalled"
            break
        if stop_when is not None and stop_when(basis + [candidate]):
            stop_reason = "external_budget"
            break
        basis.append(candidate)
        projection = project_structured(G, f, basis, k_bound=float(len(basis)))
        energy_history.append({
            "M": len(basis),
            "correlation": corr,
            "threshold": threshold,
            "energy_raw": inner_product(G, projection.f_proj_raw, projection.f_proj_raw),
            "energy": inner_product(G, projection.f_proj, projection.f_proj),
            "clipped": projection.clipped,
            "ridge": projection.ridge,
        })

    M = len(basis)
    f_str = projection.f_proj
    if stop_reason == "pseudorandom":
        f_psd = EdgeFunction(f.values - projection.f_proj_raw.values)
        f_err = EdgeFunction(projection.f_proj_raw.values - f_str.values)
    else:
        # budget stops: the remainder is not certified pseudorandom, so it
        # all counts as error mass
        f_psd = EdgeFunction.zeros(G.n)
        f_err = EdgeFunction(f.values - f_str.values)

    psd_zero = not np.any(f_psd.values)
    if psd_zero:
        psd_certificate = 0.0
    else:
        _, cert_corr = _best_basic(G, f_psd, mode, seed + M + 1, restarts)
        psd_certificate = abs(cert_corr)
    cert_bound = 1.0 / j_value(basis, max(M, 1))
    err_norm = norm(G, f_err)
    # a search only bounds the best correlation from below: no proof
    certified = (
        stop_reason == "pseudorandom"
        and (mode == "exhaustive" or psd_zero)
        and psd_certificate < cert_bound + 1e-12
        and err_norm <= eps + 1e-12
    )
    return StructuredDecomposition(
        terms=list(zip(projection.coefficients, basis)),
        M=M,
        k_bound=float(max(M, 1)),
        f_str=f_str,
        f_psd=f_psd,
        f_err=f_err,
        psd_certificate=psd_certificate,
        cert_bound=cert_bound,
        err_norm=err_norm,
        eps=eps,
        certified=certified,
        stop_reason=stop_reason,
        mode=mode,
        clipped=projection.clipped,
        ridge=projection.ridge,
        energy_history=energy_history,
    )
