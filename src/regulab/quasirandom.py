"""Quasi-randomness checks for weighted graphs.

A graph is beta-quasi-random if every disjoint pair A, B with
mu(A), mu(B) >= beta * mu(V) has

    | rho(A, B) / (mu(A) mu(B)) - rho(V, V) / mu(V)^2 | < beta,

and (D, beta)-quasi-random (D > 1) if instead every such pair density
lies within a factor D of the global density.  Exhaustive mode settles
the quantifier by enumerating all 3^n assignments, for n up to the
constant TERNARY_CAP; search mode hill-climbs for a violating pair, so
"passed" there only means no violation was found.  ``auto``, the
default, enumerates exactly when n is within the cap.  The beta
threshold is absolute, so verdicts are scale-sensitive: the checker
warns when the global density strays far from 1, which normalization
would fix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._enumerate import TERNARY_CAP, resolve_mode, ternary_argmax
from ._search import disjoint_pair_search
from .core import InputError, WeightedGraph, global_density

__all__ = [
    "ScaleWarning",
    "QuasirandomVerdict",
    "check_quasirandom",
]


class ScaleWarning(UserWarning):
    """Global density far from 1; absolute thresholds may be meaningless."""


@dataclass(frozen=True)
class QuasirandomVerdict:
    """Outcome of a quasi-randomness check.

    ``kind`` is "beta" (absolute deviation) or "ratio" (D-sandwich).
    ``worst_deviation`` is the largest |density - global| in beta mode
    and the largest max(density/global, global/density) in ratio mode
    (infinite for a zero-density qualifying pair).  ``certified`` is
    True when the verdict is rigorous: always in exhaustive mode, and
    for found violations in search mode.  ``vacuous`` marks the case of
    no qualifying pair at all.
    """

    kind: str
    passed: bool
    mode: str
    certified: bool
    beta: float
    D: float | None
    global_density: float
    worst_deviation: float | None
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    vacuous: bool = False
    n_qualifying: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "mode": self.mode,
            "certified": self.certified,
            "beta": self.beta,
            "D": self.D,
            "global_density": self.global_density,
            "worst_deviation": self.worst_deviation,
            "worst_pair": None if self.worst_pair is None
            else {"A": list(self.worst_pair[0]), "B": list(self.worst_pair[1])},
            "vacuous": self.vacuous,
            "n_qualifying": self.n_qualifying,
        }


def _validate(G: WeightedGraph, beta: float, D: float | None) -> float:
    if not (0.0 < beta < 1.0):
        raise InputError(f"beta must lie in (0, 1), got {beta}")
    if D is not None and not D > 1.0:
        raise InputError(f"D must exceed 1, got {D}")
    g = global_density(G)
    if G.edge_count > 0 and not (0.5 <= g <= 2.0):
        warnings.warn(
            f"global density {g:.6g} is outside [1/2, 2]; the absolute beta "
            "threshold may be vacuous or unreachable (normalize the graph first)",
            ScaleWarning,
            stacklevel=3,
        )
    return g


def check_quasirandom(
    G: WeightedGraph,
    beta: float,
    D: float | None = None,
    *,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> QuasirandomVerdict:
    """Exhaustive enumeration (n <= TERNARY_CAP under auto) or witness
    search.

    With no qualifying pair the verdict is a vacuous pass.
    """
    mode = resolve_mode(mode, (G.n,), TERNARY_CAP, "n")
    g = _validate(G, beta, D)
    kind = "beta" if D is None else "ratio"
    floor = beta * G.mu_total

    def objective(s_ab, mu_a, mu_b):
        if kind == "beta":
            # one expression, so numpy reuses its temporaries on 3^n arrays
            return np.abs(s_ab / (mu_a * mu_b) - g)
        d = s_ab / (mu_a * mu_b)
        if g <= 0.0:
            return np.where(d == 0.0, 1.0, np.inf)
        with np.errstate(divide="ignore"):
            return np.maximum(d / g, g / d)

    if mode == "exhaustive":
        best = ternary_argmax(G.rho, G.mu, floor, objective)
    else:
        best = disjoint_pair_search(
            G.rho, G.mu, floor, objective, seed=seed, restarts=restarts
        )
    vacuous = best.a is None
    passed = vacuous or bool(best.value < beta if kind == "beta" else best.value <= D)
    return QuasirandomVerdict(
        kind=kind, passed=passed, mode=mode,
        certified=mode == "exhaustive" or not passed,
        beta=beta, D=D, global_density=g,
        worst_deviation=None if vacuous else best.value,
        worst_pair=None if vacuous else (best.a, best.b),
        vacuous=vacuous, n_qualifying=best.n_qualifying,
    )
