"""Exhaustive enumeration kernels shared by the checkers.

Two enumeration shapes recur:

* all assignments of n vertices to {outside, A, B} with A, B disjoint
  (3^n states), carrying the masses of A and B and the cross edge mass
  between them;
* all pairs (X, Y) of subsets of two fixed disjoint sides (2^|A| * 2^|B|
  states), scanned in blocks against one or more cross-weight matrices.

Assignment and subset indices are encoded most-significant-digit-first
in vertex order, so ascending index order is lexicographic order on
membership vectors and ``argmax`` tie-breaks resolve to the
lexicographically smallest witness.

Every maximizer here and in ``_search`` decides its mass floors through
``lowest_mass``: floors are inclusive, the slack is FLOAT_TOL times the
total the floor is a share of, and an empty side never qualifies.
Every check decides between enumeration and search through
``resolve_mode``, against a constant size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FLOAT_TOL, InputError

TERNARY_CAP = 14  # vertices n of the 3^n assignment tables
SUBSET_PAIR_CAP = 26  # side sizes |A| + |B| of the subset-pair scan
SCAN_BLOCK_CELLS = 1 << 22  # table cells the subset-pair scan holds at once


@dataclass(frozen=True)
class Maximum:
    """The best value of one maximization and the witness attaining it.

    ``a`` and ``b`` are the witness sides as sorted position tuples,
    None when nothing qualified.  The work counters are
    ``n_qualifying`` (states enumerated that clear the floors; None for
    a search) and the ``restarts`` run and climb ``moves`` (zero for an
    enumeration).
    """

    value: float
    a: tuple[int, ...] | None
    b: tuple[int, ...] | None
    n_qualifying: int | None = None
    restarts: int = 0
    moves: int = 0


def lowest_mass(floor: float, total: float) -> float:
    """The least mass that clears ``floor``, a share of mass ``total``.

    The rounding slack FLOAT_TOL * total scales with the masses, so a
    verdict does not depend on the unit of mass.  The floor / 2 bound
    keeps an empty side (and with it a 0/0 objective) out at every scale.
    """
    return max(floor - FLOAT_TOL * total, floor / 2)


def resolve_mode(mode: str, sizes: tuple[int, ...], cap: int, what: str) -> str:
    """Validate a check mode and resolve it to "exhaustive" or "search".

    The instance size is ``sum(sizes)``, named ``what`` in errors.
    "auto" enumerates exactly when the size is within the cap, and
    "exhaustive" beyond the cap is an error.
    """
    if mode not in ("auto", "exhaustive", "search"):
        raise InputError(f"unknown mode {mode!r}")
    size = sum(sizes)
    if mode == "auto":
        return "exhaustive" if size <= cap else "search"
    if mode == "exhaustive" and size > cap:
        got = "+".join(map(str, sizes))
        raise InputError(
            f"exhaustive enumeration is capped at {what}={cap} (got {got}); "
            "use search mode"
        )
    return mode


def ternary_assignment_sums(
    weights: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masses and cross sums for every {outside, A, B} assignment.

    Returns arrays of length 3^n indexed by the assignment code whose
    base-3 digits, most significant first, give vertex 0..n-1 the roles
    0 = outside, 1 = in A, 2 = in B:

        mu_a[i], mu_b[i]  -- vertex masses of A and B,
        s_ab[i]           -- sum of weights[u, v] over u in A, v in B
                             (each unordered cross pair once).
    """
    n = mu.shape[0]
    mu_a = np.zeros(1)
    mu_b = np.zeros(1)
    s_ab = np.zeros(1)
    # from_a[:, j] (j < k): weight from the current A-members to vertex j
    from_a = np.zeros((1, n))
    from_b = np.zeros((1, n))
    # add vertices from n-1 down to 0 so vertex 0 lands in the most
    # significant digit
    for k in range(n - 1, -1, -1):
        to_k_from_a = from_a[:, k]
        to_k_from_b = from_b[:, k]
        s_ab = np.concatenate([s_ab, s_ab + to_k_from_b, s_ab + to_k_from_a])
        mu_a = np.concatenate([mu_a, mu_a + mu[k], mu_a])
        mu_b = np.concatenate([mu_b, mu_b, mu_b + mu[k]])
        keep_a = from_a[:, :k]
        keep_b = from_b[:, :k]
        row = weights[k, :k]
        from_a = np.vstack([keep_a, keep_a + row, keep_a])
        from_b = np.vstack([keep_b, keep_b, keep_b + row])
    return mu_a, mu_b, s_ab


def decode_assignment(code: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invert the assignment encoding: code -> (A, B) as sorted tuples."""
    a: list[int] = []
    b: list[int] = []
    for v in range(n):
        digit = (code // 3 ** (n - 1 - v)) % 3
        if digit == 1:
            a.append(v)
        elif digit == 2:
            b.append(v)
    return tuple(a), tuple(b)


def ternary_argmax(
    weights: np.ndarray,
    mu: np.ndarray,
    floor: float,
    objective: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> Maximum:
    """Maximize objective(s_ab, mu_a, mu_b) over disjoint (A, B) with
    mu(A), mu(B) >= floor (see ``lowest_mass``), by enumeration."""
    lo = lowest_mass(floor, mu.sum())
    mu_a, mu_b, s_ab = ternary_assignment_sums(weights, mu)
    qualifying = (mu_a >= lo) & (mu_b >= lo)
    n_qualifying = int(qualifying.sum())
    if not n_qualifying:
        return Maximum(-np.inf, None, None, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = objective(s_ab, mu_a, mu_b)
    values = np.where(qualifying, values, -np.inf)
    code = int(np.argmax(values))
    return Maximum(float(values[code]), *decode_assignment(code, mu.shape[0]), n_qualifying)


# -- subset machinery ------------------------------------------------------


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sum of values over every subset of k items, indexed so that item j
    occupies bit (k-1-j); ascending index = lexicographic membership order."""
    out = np.zeros(1)
    # last item first so item 0 lands in the most significant bit,
    # matching decode_subset and _membership_block
    for j in range(values.shape[0] - 1, -1, -1):
        out = np.concatenate([out, out + values[j]])
    return out


def decode_subset(index: int, k: int) -> tuple[int, ...]:
    return tuple(j for j in range(k) if (index >> (k - 1 - j)) & 1)


def _membership_block(k: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the (k, 2^k) membership matrix."""
    codes = np.arange(start, stop, dtype=np.int64)
    shifts = (k - 1 - np.arange(k, dtype=np.int64))[:, None]
    return ((codes[None, :] >> shifts) & 1).astype(np.float64)


def scan_subset_pairs(
    crosses: Sequence[np.ndarray],
    a_weights: np.ndarray,
    b_weights: np.ndarray,
    a_floor: float,
    b_floor: float,
    value_fn: Callable[[list[np.ndarray], np.ndarray, np.ndarray], np.ndarray],
) -> Maximum:
    """Maximize value_fn over pairs (X, Y) of qualifying subsets.

    ``crosses`` are (|A|, |B|) matrices; for each the scanner forms the
    table of sums over X x Y.  ``value_fn(tables, wx, wy)`` receives one
    table block per cross plus the matching subset-mass column/row and
    returns the deviation block.  Qualifying means subset mass >= floor,
    a share of the side's mass (see ``lowest_mass``).  The maximizer is
    the first in (X, Y)-lexicographic order, scanned blockwise; no
    witness is reported when no qualifying value exceeds -inf.
    """
    ka = int(a_weights.shape[0])
    kb = int(b_weights.shape[0])
    wa = subset_sums(a_weights)
    wb = subset_sums(b_weights)
    qa = wa >= lowest_mass(a_floor, a_weights.sum())
    qb = wb >= lowest_mass(b_floor, b_weights.sum())
    n_qualifying = int(qa.sum()) * int(qb.sum())
    if n_qualifying == 0:
        return Maximum(-np.inf, None, None, 0)

    nb = 1 << kb
    col_block = min(nb, max(1, SCAN_BLOCK_CELLS // 256))
    row_block = max(1, SCAN_BLOCK_CELLS // col_block)

    mb_blocks = [
        (cs, min(cs + col_block, nb), _membership_block(kb, cs, min(cs + col_block, nb)))
        for cs in range(0, nb, col_block)
    ]

    best_value = -np.inf
    best_a = -1
    best_b = -1
    na = 1 << ka
    wb_row = wb[None, :]
    for rs in range(0, na, row_block):
        re = min(rs + row_block, na)
        if not qa[rs:re].any():
            continue
        ma = _membership_block(ka, rs, re).T  # (rows, ka)
        partials = [ma @ c for c in crosses]  # (rows, kb)
        wx = wa[rs:re][:, None]
        row_ok = qa[rs:re]
        for cs, ce, mb in mb_blocks:
            if not qb[cs:ce].any():
                continue
            tables = [p @ mb for p in partials]
            # non-qualifying subsets may divide by zero mass; they are
            # masked out on the next line
            with np.errstate(divide="ignore", invalid="ignore"):
                block = value_fn(tables, wx, wb_row[:, cs:ce])
            block = np.where(row_ok[:, None] & qb[None, cs:ce], block, -np.inf)
            flat = int(np.argmax(block))
            val = float(block.flat[flat])
            if val > best_value:
                best_value = val
                best_a = rs + flat // block.shape[1]
                best_b = cs + flat % block.shape[1]
    if best_a < 0:
        return Maximum(best_value, None, None, n_qualifying)
    return Maximum(
        best_value, decode_subset(best_a, ka), decode_subset(best_b, kb), n_qualifying
    )

