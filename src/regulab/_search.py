"""Witness search by steepest-ascent hill climbing from seeded restarts.

Exhaustive enumeration certifies verdicts but hits hard caps; beyond
them the checkers fall back to randomized local search.  One restart
loop, ``best_of_restarts``, runs every search: restart r starts from
``default_rng([seed, r])``, the loop stops at the first restart with no
feasible start, and it keeps the best local optimum, near-ties within
IMPROVE_TOL going to the lexicographically smallest witness, so results
are reproducible for a fixed seed.  Three searches hand it their own
start and climb:

* ``pair_witness_search``: subsets X of a fixed side A and Y of a fixed
  side B, moves toggle one vertex in or out, mass floors respected;
* ``disjoint_pair_search``: disjoint (A, B) inside the whole vertex set,
  moves reassign one vertex between {outside, A, B};
* ``decomposition.best_basic_search``: alternating best responses for
  both signs of a correlation.

The two climbs here evaluate every single-vertex move incrementally and
apply the best strictly improving one (lowest move index on ties).
Each search turns its mass floors into least masses once, through
``_enumerate.lowest_mass``, so starts and moves judge floors as the
enumerations do: inclusive, with a rounding slack proportional to the
total the floor is a share of, and never met by an empty side.
Every search returns one ``Maximum`` record, as enumeration does.  A
found violation is a certificate; exhausting the budget without one is
not.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ._enumerate import Maximum, lowest_mass
from .core import InputError

IMPROVE_TOL = 1e-15

Objective = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
# a climb's local optimum: value, the two witness sides as masks, moves made
LocalOptimum = tuple[float, np.ndarray, np.ndarray, int]


def _move_budget(size: int) -> int:
    """Climb moves allowed on a state over ``size`` vertices."""
    return 12 * size + 24


def best_of_restarts(
    seed: int,
    restarts: int,
    start: Callable[[np.random.Generator], object | None],
    climb: Callable[[object], Iterable[LocalOptimum]],
    rank: Callable[[float], float] = float,
) -> Maximum:
    """The best local optimum over seeded restarts.

    ``start(rng)`` draws a feasible state, or None when none exists,
    which ends the search.  ``climb(state)`` yields the local optima
    reached from it.  Optima compare by ``rank(value)``; one within
    IMPROVE_TOL of the best replaces it only with a lexicographically
    smaller witness.  At least one restart is required: with none,
    nothing is searched, and an empty result would read as a vacuous
    pass.  The record counts the restarts that ran.
    """
    if restarts < 1:
        raise InputError(f"search needs at least one restart, got restarts={restarts}")
    best = Maximum(-np.inf, None, None)
    best_rank = -np.inf
    moves = 0
    run = 0
    while run < restarts:
        state = start(np.random.default_rng([seed, run]))
        if state is None:
            break
        run += 1
        for value, a_mask, b_mask, used in climb(state):
            moves += used
            a = tuple(np.flatnonzero(a_mask).tolist())
            b = tuple(np.flatnonzero(b_mask).tolist())
            score = rank(value)
            if score > best_rank + IMPROVE_TOL or (
                abs(score - best_rank) <= IMPROVE_TOL
                and (best.a is None or (a, b) < (best.a, best.b))
            ):
                best, best_rank = Maximum(float(value), a, b), score
    return Maximum(best.value, best.a, best.b, restarts=run, moves=moves)


# -- subsets of two fixed sides ---------------------------------------------


def pair_witness_search(
    cross: np.ndarray,
    a_weights: np.ndarray,
    b_weights: np.ndarray,
    a_floor: float,
    b_floor: float,
    objective: Objective,
    *,
    seed: int,
    restarts: int = 64,
) -> Maximum:
    """Maximize objective(T, wX, wY) over X x Y with mass floors.

    ``cross[u, v]`` is the pair weight between the u-th vertex of side A
    and the v-th vertex of side B; T is its sum over X x Y.
    """
    max_moves = _move_budget(sum(cross.shape))
    a_lo = lowest_mass(a_floor, a_weights.sum())
    b_lo = lowest_mass(b_floor, b_weights.sum())

    def start(rng):
        x = _random_feasible(rng, a_weights, a_lo)
        y = _random_feasible(rng, b_weights, b_lo)
        return None if x is None or y is None else (x, y)

    def climb(state):
        yield _climb_pair(
            cross, a_weights, b_weights, a_lo, b_lo, objective, *state, max_moves
        )

    return best_of_restarts(seed, restarts, start, climb)


def _random_feasible(
    rng: np.random.Generator, weights: np.ndarray, lo: float
) -> np.ndarray | None:
    """A random subset of mass >= lo, or None when the whole set is lighter."""
    if weights.sum() < lo:
        return None
    member = rng.random(weights.shape[0]) < 0.5
    if weights[member].sum() >= lo:
        return member
    for u in rng.permutation(np.flatnonzero(~member)):
        member[u] = True
        if weights[member].sum() >= lo:
            return member
    return member if member.all() else None


def _climb_pair(
    cross: np.ndarray,
    wa: np.ndarray,
    wb: np.ndarray,
    a_lo: float,
    b_lo: float,
    objective: Objective,
    x: np.ndarray,
    y: np.ndarray,
    max_moves: int,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    row_to_y = cross @ y.astype(np.float64)  # per-row sum into current Y
    col_to_x = cross.T @ x.astype(np.float64)
    w_x = float(wa[x].sum())
    w_y = float(wb[y].sum())
    t = float(x.astype(np.float64) @ row_to_y)
    value = float(objective(np.asarray(t), np.asarray(w_x), np.asarray(w_y)))
    moves = 0
    while moves < max_moves:
        sign_a = np.where(x, -1.0, 1.0)
        t_a = t + sign_a * row_to_y
        wx_a = w_x + sign_a * wa
        with np.errstate(divide="ignore", invalid="ignore"):
            vals_a = objective(t_a, wx_a, np.asarray(w_y))
        vals_a = np.where(wx_a >= a_lo, vals_a, -np.inf)

        sign_b = np.where(y, -1.0, 1.0)
        t_b = t + sign_b * col_to_x
        wy_b = w_y + sign_b * wb
        with np.errstate(divide="ignore", invalid="ignore"):
            vals_b = objective(t_b, np.asarray(w_x), wy_b)
        vals_b = np.where(wy_b >= b_lo, vals_b, -np.inf)

        ia = int(np.argmax(vals_a))
        ib = int(np.argmax(vals_b))
        if vals_a[ia] >= vals_b[ib]:
            side, idx, new_value = 0, ia, float(vals_a[ia])
        else:
            side, idx, new_value = 1, ib, float(vals_b[ib])
        if not np.isfinite(new_value) or new_value <= value + IMPROVE_TOL:
            break
        if side == 0:
            s = 1.0 if not x[idx] else -1.0
            x[idx] = not x[idx]
            t += s * float(row_to_y[idx])
            w_x += s * float(wa[idx])
            col_to_x += s * cross[idx, :]
        else:
            s = 1.0 if not y[idx] else -1.0
            y[idx] = not y[idx]
            t += s * float(col_to_x[idx])
            w_y += s * float(wb[idx])
            row_to_y += s * cross[:, idx]
        value = new_value
        moves += 1
    return value, x, y, moves


# -- disjoint pairs inside one vertex set ------------------------------------


def disjoint_pair_search(
    weights: np.ndarray,
    mu: np.ndarray,
    floor: float,
    objective: Objective,
    *,
    seed: int,
    restarts: int = 64,
) -> Maximum:
    """Maximize objective(s_ab, mu_a, mu_b) over disjoint A, B with
    mu(A), mu(B) >= floor.  ``weights`` must be symmetric with zero
    diagonal; s_ab sums weights over cross pairs (each one once)."""
    max_moves = _move_budget(mu.shape[0])
    lo = lowest_mass(floor, mu.sum())

    def climb(role):
        value, role, moves = _climb_roles(weights, mu, lo, objective, role, max_moves)
        yield value, role == 1, role == 2, moves

    return best_of_restarts(
        seed, restarts, lambda rng: _random_roles(rng, mu, lo), climb
    )


def _random_roles(
    rng: np.random.Generator, mu: np.ndarray, lo: float
) -> np.ndarray | None:
    """Random disjoint sides of mass >= lo each, or None when none exist."""
    n = mu.shape[0]
    role = rng.integers(0, 3, n)
    for side in (1, 2):
        if mu[role == side].sum() >= lo:
            continue
        for u in rng.permutation(np.flatnonzero(role == 0)):
            role[u] = side
            if mu[role == side].sum() >= lo:
                break
        if mu[role == side].sum() < lo:
            break
    if mu[role == 1].sum() >= lo and mu[role == 2].sum() >= lo:
        return role
    # deterministic fallback: heaviest-first alternating split
    role = np.zeros(n, dtype=np.int64)
    order = np.lexsort((np.arange(n), -mu))
    side_mass = {1: 0.0, 2: 0.0}
    for u in order:
        side = 1 if side_mass[1] <= side_mass[2] else 2
        role[u] = side
        side_mass[side] += mu[u]
    if side_mass[1] >= lo and side_mass[2] >= lo:
        return role
    return None


def _climb_roles(
    weights: np.ndarray,
    mu: np.ndarray,
    lo: float,
    objective: Objective,
    role: np.ndarray,
    max_moves: int,
) -> tuple[float, np.ndarray, int]:
    a = role == 1
    b = role == 2
    to_a = weights @ a.astype(np.float64)  # per-vertex weight into current A
    to_b = weights @ b.astype(np.float64)
    mu_a = float(mu[a].sum())
    mu_b = float(mu[b].sum())
    s_ab = float(a.astype(np.float64) @ to_b)
    value = float(objective(np.asarray(s_ab), np.asarray(mu_a), np.asarray(mu_b)))
    moves = 0
    neg_inf = -np.inf
    while moves < max_moves:
        in_a = role == 1
        in_b = role == 2
        outside = role == 0

        # family 0: move u into A (valid from outside or from B)
        s_new = np.where(outside, s_ab + to_b, s_ab + to_b - to_a)
        ma_new = mu_a + mu
        mb_new = np.where(in_b, mu_b - mu, mu_b)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals0 = objective(s_new, ma_new, mb_new)
        vals0 = np.where(~in_a & (ma_new >= lo) & (mb_new >= lo), vals0, neg_inf)

        # family 1: move u into B
        s_new = np.where(outside, s_ab + to_a, s_ab + to_a - to_b)
        mb_new = mu_b + mu
        ma_new = np.where(in_a, mu_a - mu, mu_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals1 = objective(s_new, ma_new, mb_new)
        vals1 = np.where(~in_b & (ma_new >= lo) & (mb_new >= lo), vals1, neg_inf)

        # family 2: move u outside
        s_new = np.where(in_a, s_ab - to_b, s_ab - to_a)
        ma_new = np.where(in_a, mu_a - mu, mu_a)
        mb_new = np.where(in_b, mu_b - mu, mu_b)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals2 = objective(s_new, ma_new, mb_new)
        vals2 = np.where(~outside & (ma_new >= lo) & (mb_new >= lo), vals2, neg_inf)

        picks = [(int(np.argmax(v)), v) for v in (vals0, vals1, vals2)]
        fam = max(range(3), key=lambda f: picks[f][1][picks[f][0]])
        idx = picks[fam][0]
        new_value = float(picks[fam][1][idx])
        if not np.isfinite(new_value) or new_value <= value + IMPROVE_TOL:
            break

        u = idx
        old = int(role[u])
        new = (1, 2, 0)[fam]
        # update cross sum and masses
        if old == 1:
            s_ab -= float(to_b[u])
            mu_a -= float(mu[u])
            to_a -= weights[u, :]
        elif old == 2:
            s_ab -= float(to_a[u])
            mu_b -= float(mu[u])
            to_b -= weights[u, :]
        if new == 1:
            s_ab += float(to_b[u])
            mu_a += float(mu[u])
            to_a += weights[u, :]
        elif new == 2:
            s_ab += float(to_a[u])
            mu_b += float(mu[u])
            to_b += weights[u, :]
        role[u] = new
        value = new_value
        moves += 1
    return value, role, moves
