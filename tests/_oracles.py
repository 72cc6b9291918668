"""Brute-force reference implementations used to cross-check the library.

Everything here trades speed for transparent correctness: plain loops
over itertools enumerations, Python floats, and no code shared with the
package internals.  Mass floors are inclusive within an absolute
FLOOR_TOL.  The library's slack is instead FLOAT_TOL times the mass the
floor is a share of, and an empty side never qualifies there; on the
normalized-scale hosts these oracles are run on, both rules select the
same sets.
"""

from itertools import combinations, product
from math import comb, inf, isfinite

FLOOR_TOL = 1e-9


def global_density(mu, rho):
    n = len(mu)
    total = sum(rho[u][v] for u in range(n) for v in range(u + 1, n))
    return 2.0 * total / sum(mu) ** 2


def _cross(rho, A, B):
    return sum(rho[u][v] for u in A for v in B)


def qr_worst(mu, rho, beta, D=None):
    """Worst deviation over all qualifying disjoint (A, B) assignments.

    Returns (worst, n_qualifying); worst is None when no assignment
    qualifies.  Beta mode measures |d - g|, ratio mode the larger of
    d/g and g/d (infinite at d = 0).
    """
    n = len(mu)
    g = global_density(mu, rho)
    floor = beta * sum(mu)
    worst = None
    count = 0
    for roles in product((0, 1, 2), repeat=n):
        A = [v for v in range(n) if roles[v] == 1]
        B = [v for v in range(n) if roles[v] == 2]
        mu_a = sum(mu[v] for v in A)
        mu_b = sum(mu[v] for v in B)
        if mu_a < floor - FLOOR_TOL or mu_b < floor - FLOOR_TOL:
            continue
        count += 1
        d = _cross(rho, A, B) / (mu_a * mu_b)
        if D is None:
            dev = abs(d - g)
        else:
            dev = max(d / g, g / d) if d > 0.0 else inf
        if worst is None or dev > worst:
            worst = dev
    return worst, count


def pair_worst(mu, rho_f, A, B, eps):
    """Worst |d_F(X, Y) - d_F(A, B)| over qualifying sub-pairs.

    Returns (worst, n_qualifying); floors are mu(X) >= eps mu(A) and
    mu(Y) >= eps mu(B), inclusive within FLOOR_TOL.
    """
    mass_a = sum(mu[v] for v in A)
    mass_b = sum(mu[v] for v in B)
    base = _cross(rho_f, A, B) / (mass_a * mass_b)
    xs = [
        X
        for k in range(1, len(A) + 1)
        for X in combinations(A, k)
        if sum(mu[v] for v in X) >= eps * mass_a - FLOOR_TOL
    ]
    ys = [
        Y
        for k in range(1, len(B) + 1)
        for Y in combinations(B, k)
        if sum(mu[v] for v in Y) >= eps * mass_b - FLOOR_TOL
    ]
    worst = None
    for X in xs:
        mx = sum(mu[v] for v in X)
        for Y in ys:
            my = sum(mu[v] for v in Y)
            dev = abs(_cross(rho_f, X, Y) / (mx * my) - base)
            if worst is None or dev > worst:
                worst = dev
    return worst, len(xs) * len(ys)


def classical_regular(a_size, b_size, edges, eps):
    """Classical bipartite eps-regularity by full enumeration.

    ``edges`` are (i, j) pairs in local side coordinates.  Returns True
    when every qualifying sub-pair density stays strictly within eps of
    the pair density.
    """
    eset = set(edges)
    d = len(eset) / (a_size * b_size)
    for ka in range(1, a_size + 1):
        if ka < eps * a_size - FLOOR_TOL:
            continue
        for kb in range(1, b_size + 1):
            if kb < eps * b_size - FLOOR_TOL:
                continue
            for A in combinations(range(a_size), ka):
                for B in combinations(range(b_size), kb):
                    e = sum(1 for i in A for j in B if (i, j) in eset)
                    if abs(e / (ka * kb) - d) >= eps:
                        return False
    return True


def relative_worst(a_size, b_size, f_edges, g_edges, eps):
    """Worst |e_F(X,Y)/e_G(X,Y) - base| over qualifying sub-pairs with
    at least one G-edge; size floors |X| >= eps |A|, |Y| >= eps |B|."""
    fset = set(f_edges)
    gset = set(g_edges)
    base = len(fset) / len(gset)
    worst = None
    for ka in range(1, a_size + 1):
        if ka < eps * a_size - FLOOR_TOL:
            continue
        for kb in range(1, b_size + 1):
            if kb < eps * b_size - FLOOR_TOL:
                continue
            for A in combinations(range(a_size), ka):
                for B in combinations(range(b_size), kb):
                    eg = sum(1 for i in A for j in B if (i, j) in gset)
                    if eg == 0:
                        continue
                    ef = sum(1 for i in A for j in B if (i, j) in fset)
                    dev = abs(ef / eg - base)
                    if worst is None or dev > worst:
                        worst = dev
    return worst


def volume_worst(n, edges, A, B, eps):
    """Worst cleared-form volume deviation and its threshold.

    The deviation for (X, Y) is |e(X,Y) - e(A,B) vol(X) vol(Y) /
    (vol(A) vol(B))|, maximized over vol(X) >= eps vol(A), vol(Y) >=
    eps vol(B); the returned threshold is eps vol(A) vol(B) / vol(V).
    """
    eset = {frozenset(e) for e in edges}
    deg = [0] * n
    for e in eset:
        u, v = tuple(e)
        deg[u] += 1
        deg[v] += 1
    vol_v = float(sum(deg))
    vol_a = float(sum(deg[v] for v in A))
    vol_b = float(sum(deg[v] for v in B))
    e_ab = sum(1 for u in A for v in B if frozenset((u, v)) in eset)
    share = e_ab / (vol_a * vol_b)
    threshold = eps * vol_a * vol_b / vol_v
    worst = None
    for ka in range(1, len(A) + 1):
        for X in combinations(A, ka):
            vx = float(sum(deg[v] for v in X))
            if vx < eps * vol_a - FLOOR_TOL:
                continue
            for kb in range(1, len(B) + 1):
                for Y in combinations(B, kb):
                    vy = float(sum(deg[v] for v in Y))
                    if vy < eps * vol_b - FLOOR_TOL:
                        continue
                    e_xy = sum(
                        1 for u in X for v in Y if frozenset((u, v)) in eset
                    )
                    dev = abs(e_xy - share * vx * vy)
                    if worst is None or dev > worst:
                        worst = dev
    return worst, threshold


def best_basic(mu, rho, r):
    """max |<r, gamma_{A,B}>| over all disjoint (A, B) by enumeration."""
    n = len(mu)
    pairs = comb(n, 2)
    best = 0.0
    for roles in product((0, 1, 2), repeat=n):
        A = [v for v in range(n) if roles[v] == 1]
        B = [v for v in range(n) if roles[v] == 2]
        corr = sum(r[u][v] * rho[u][v] for u in A for v in B) / pairs
        if abs(corr) > best:
            best = abs(corr)
    return best


def inner(rho, g, h):
    n = len(rho)
    total = sum(
        g[u][v] * h[u][v] * rho[u][v] for u in range(n) for v in range(u + 1, n)
    )
    return total / comb(n, 2)


# -- file validation -----------------------------------------------------------


class EntryError(ValueError):
    """A graph or pair dict the reference validator rejects."""


def _require(condition, message):
    if not condition:
        raise EntryError(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive_finite(x):
    try:
        return isfinite(x) and x > 0
    except OverflowError:  # an integer beyond the float range
        return False


def _as_float(x):
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def graph_from_dict(data):
    """One entry at a time, the validation of a graph dict as the file
    reader did it before it checked whole columns: every entry's shape
    and types first, then each edge's range, repeat and weight in order.
    That reader crashed on an integer too large for a float; here, as in
    the package, such a weight is not finite.

    Returns (n, mu, rho) as Python lists; raises EntryError.
    """
    _require(isinstance(data, dict), "graph: expected a JSON object")
    _require("n" in data, "graph: missing key 'n'")
    n = data["n"]
    _require(_is_int(n) and n >= 1, f"graph: 'n' must be a positive integer, got {n!r}")
    _require("mu" in data, "graph: missing key 'mu'")
    mu = data["mu"]
    _require(isinstance(mu, list), "graph: 'mu' must be a list")
    _require(len(mu) == n, f"graph: 'mu' has {len(mu)} entries, expected n={n}")
    for i, x in enumerate(mu):
        _require(_is_number(x) and _positive_finite(x),
                 f"mu[{i}]: vertex weight must be a positive finite number, got {x!r}")
    _require("edges" in data, "graph: missing key 'edges'")
    edges = data["edges"]
    _require(isinstance(edges, list), "graph: 'edges' must be a list")
    parsed = []
    for k, e in enumerate(edges):
        _require(isinstance(e, list) and len(e) == 3, f"edges[{k}]: expected [u, v, rho]")
        u, v, w = e
        _require(_is_int(u) and _is_int(v), f"edges[{k}]: endpoints must be integers")
        _require(_is_number(w), f"edges[{k}]: weight must be a number")
        parsed.append((u, v, _as_float(w)))
    rho = [[0.0] * n for _ in range(n)]
    seen = set()
    for k, (u, v, w) in enumerate(parsed):
        _require(0 <= u < v < n, f"edges[{k}]: need 0 <= u < v < n, got ({u}, {v}) with n={n}")
        _require((u, v) not in seen, f"edges[{k}]: duplicate edge ({u}, {v})")
        _require(isfinite(w) and w > 0.0,
                 f"edges[{k}]: edge weight must be finite and positive, got {w}")
        seen.add((u, v))
        rho[u][v] = rho[v][u] = w
    return n, [float(x) for x in mu], rho


def pair_from_dict(data):
    """The pair-dict counterpart of ``graph_from_dict``.  Boolean F-edge
    endpoints are rejected like graph endpoints (the old reader crashed
    on them).

    Returns (n, mu, rho, f_mask, A, B) as Python lists; raises EntryError.
    """
    n, mu, rho = graph_from_dict(data)
    _require("f_edges" in data, "pair: missing key 'f_edges'")
    f_edges = data["f_edges"]
    _require(isinstance(f_edges, list), "pair: 'f_edges' must be a list")
    for k, e in enumerate(f_edges):
        _require(isinstance(e, list) and len(e) == 2, f"f_edges[{k}]: expected [u, v]")
        _require(_is_int(e[0]) and _is_int(e[1]), f"f_edges[{k}]: endpoints must be integers")
    mask = [[False] * n for _ in range(n)]
    for k, (u, v) in enumerate(f_edges):
        _require(0 <= u < v < n, f"pair: f_edges[{k}]: need 0 <= u < v < n, got ({u}, {v})")
        _require(not mask[u][v], f"pair: f_edges[{k}]: duplicate edge ({u}, {v})")
        _require(rho[u][v] != 0.0,
                 f"pair: f_edges[{k}]: ({u}, {v}) is not an edge of the host graph")
        mask[u][v] = mask[v][u] = True
    sides = []
    for key in ("A", "B"):
        if key not in data:
            sides.append(None)
            continue
        side = data[key]
        _require(isinstance(side, list), f"pair: '{key}' must be a list of vertices")
        for i, x in enumerate(side):
            _require(_is_int(x), f"{key}[{i}]: vertex must be an integer")
        _require(all(0 <= x < n for x in side), f"{key}: vertex indices must lie in [0, {n})")
        sides.append(list(side))
    return n, mu, rho, mask, sides[0], sides[1]
