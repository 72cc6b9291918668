"""Regular partitions from structured decompositions.

Pipeline: normalize the host, decompose the pair indicator 1_F into
f_str + f_psd + f_err, refine the vertex set into the atoms of the
structured part (vertices with identical side memberships across all
basic terms), then split each atom greedily into clusters of mass close
to

    w* = eps * mu(V) / (L + a),        a = number of atoms,

with the light leftovers collected in the exceptional cluster W_0.
Every produced cluster has mass in (w* - max mu, w*], which gives the
exceptional-mass and balance guarantees directly: the leftovers total
less than a * w* <= eps * mu(V), and any two cluster masses differ by
less than max mu.

The correlation threshold for step m uses the running atom count,
1 / J with J = j_factor * ell^2 / eps^3 and ell = (L + a) / eps, and the
loop additionally stops before the atom count would exceed

    max_atoms = floor(eps * mu(V) / max mu) - L,

which keeps w* >= max mu so no single vertex outweighs a chunk.  Every
cluster pair gets a direct regularity verdict from the pair loop of
``regularity.check_partition``: the one pair-deviation engine for pairs
with a multi-vertex side, and one batch of 1 x 1 verdicts for the pairs
of two singleton clusters.  Each pair also gets one extra column, the
localized error energy

    E_ij = sum over W_i x W_j of f_err^2 rho / rho(W_i, W_j) <= eta.

The exceptional-mass, balance, and irregular-pair bullets are read off
the same partition checker that ``verify`` runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import floor
from typing import Sequence

import numpy as np

from .core import (
    FLOAT_TOL,
    EdgeFunction,
    InputError,
    NormalizationScales,
    SubgraphPair,
    WeightedGraph,
    is_normalized,
    mu_sum,
    normalize,
)
from .decomposition import (
    BasicFunction,
    StructuredDecomposition,
    strong_decompose,
)
from .regularity import cluster_pair_verdicts, partition_indices, partition_report

PAIR_DETAIL_LIMIT = 2000

__all__ = [
    "ChunkOversizeWarning",
    "SplitResult",
    "PairClassification",
    "BuildReport",
    "atoms_from_structure",
    "split_atoms",
    "classify_pairs",
    "build_regular_partition",
]


class ChunkOversizeWarning(UserWarning):
    """A single vertex outweighs the chunk target and joins W_0."""


def atoms_from_structure(n: int, basis: Sequence[BasicFunction]) -> list[tuple[int, ...]]:
    """Group vertices by their side memberships across all basic terms.

    Two vertices share an atom iff for every term they are both in A,
    both in B, or both in neither.  Atoms are ordered by their smallest
    member; with an empty basis the whole vertex set is one atom.
    """
    digits = np.zeros((len(basis), n), dtype=np.int8)
    for t, bf in enumerate(basis):
        if bf.a:
            digits[t, list(bf.a)] = 1
        if bf.b:
            digits[t, list(bf.b)] = 2
    groups: dict[bytes, list[int]] = {}
    for v in range(n):
        groups.setdefault(digits[:, v].tobytes(), []).append(v)
    atoms = sorted(groups.values(), key=lambda vs: vs[0])
    return [tuple(vs) for vs in atoms]


@dataclass(frozen=True)
class SplitResult:
    w0: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]
    w_star: float
    mu_max: float
    n_atoms: int
    oversized: tuple[int, ...]


def split_atoms(
    G: WeightedGraph,
    atoms: Sequence[Sequence[int]],
    eps: float,
    L: int,
) -> SplitResult:
    """Greedy mass-balanced refinement of atoms into clusters.

    Within an atom, vertices are taken heaviest first (ties by index); a
    chunk closes when the next vertex would push it past w*.  A closed
    chunk always lands in (w* - max mu, w*].  The atom's final chunk is
    kept as a cluster only if it also clears w* - max mu; lighter
    leftovers go to W_0, as do vertices heavier than w* on their own.
    Mass comparisons allow FLOAT_TOL * mu(V) of rounding slack, as
    ``partition_report`` does, so the split does not depend on the unit
    of mass.
    """
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    if L < 1:
        raise InputError("L must be a positive integer")
    seen = sorted(v for atom in atoms for v in atom)
    if seen != list(range(G.n)):
        raise InputError("atoms must partition the vertex set")
    mu = G.mu
    mu_max = float(mu.max())
    w_star = eps * G.mu_total / (L + len(atoms))
    tol = FLOAT_TOL * G.mu_total
    w0: list[int] = []
    clusters: list[tuple[int, ...]] = []
    oversized: list[int] = []
    for atom in atoms:
        members = sorted(atom, key=lambda v: (-mu[v], v))
        chunk: list[int] = []
        mass = 0.0
        for v in members:
            if mu[v] > w_star + tol:
                oversized.append(v)
                continue
            if mass + mu[v] > w_star + tol:
                clusters.append(tuple(sorted(chunk)))
                chunk, mass = [], 0.0
            chunk.append(v)
            mass += float(mu[v])
        if chunk:
            if mass > w_star - mu_max + tol:
                clusters.append(tuple(sorted(chunk)))
            else:
                w0.extend(chunk)
    if oversized:
        w0.extend(oversized)
        warnings.warn(
            f"{len(oversized)} vertices heavier than the chunk target "
            f"w* = {w_star:.6g} were moved to the exceptional cluster",
            ChunkOversizeWarning,
        )
    return SplitResult(
        w0=tuple(sorted(w0)),
        clusters=tuple(clusters),
        w_star=w_star,
        mu_max=mu_max,
        n_atoms=len(atoms),
        oversized=tuple(sorted(oversized)),
    )


# -- pair classification ---------------------------------------------------


@dataclass(frozen=True)
class PairClassification:
    """Joint verdict for one cluster pair (1-based indices i < j)."""

    i: int
    j: int
    regular: bool
    deviation: float | None
    energy: float
    energy_ok: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "regular": self.regular,
            "deviation": self.deviation,
            "energy": self.energy,
            "energy_ok": self.energy_ok,
            "vacuous": self.vacuous,
        }


def classify_pairs(
    P: SubgraphPair,
    f_err: EdgeFunction,
    clusters: Sequence[Sequence[int]],
    eps: float,
    eta: float,
    *,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 64,
) -> tuple[list[PairClassification], dict]:
    """Classify every cluster pair by error energy and by regularity.

    The regularity verdicts come from the partition checker's pair loop
    (the k-th pair searched with seed + k).  All pair energies are read
    at once off C (f_err^2 rho) C^T and C rho C^T, with C the
    cluster-indicator matrix.  Pairs with rho(W_i, W_j) = 0 have no
    energy reading and count as irregular on the energy route.  The
    honored verdict for the irregular-pair budget is the direct
    regularity check.
    """
    G = P.graph
    _, cluster_idx = partition_indices(G.n, None, clusters)
    ell = len(cluster_idx)
    C = np.zeros((ell, G.n))
    for i, c in enumerate(cluster_idx):
        C[i, c] = 1.0
    err_mass = C @ (f_err.values * f_err.values * G.rho) @ C.T
    rho_mass = C @ G.rho @ C.T
    with np.errstate(divide="ignore", invalid="ignore"):
        energy = np.where(rho_mass > 0.0, err_mass / rho_mass, np.inf)
    results = []
    for i, j, v in cluster_pair_verdicts(
        P, cluster_idx, eps, mode=mode, seed=seed, restarts=restarts
    ):
        e = float(energy[i - 1, j - 1])
        results.append(PairClassification(
            i=i, j=j, regular=v.passed, deviation=v.worst_deviation,
            energy=e, energy_ok=bool(e <= eta + FLOAT_TOL), vacuous=v.vacuous,
        ))

    irregular = sum(1 for r in results if not r.regular)
    energy_flagged = sum(1 for r in results if not r.energy_ok)
    counts = {
        "n_clusters": ell,
        "n_pairs": len(results),
        "irregular": irregular,
        "energy_flagged": energy_flagged,
        "irregular_bound": eps * ell * ell,
        "irregular_fraction": irregular / (ell * ell) if ell else 0.0,
    }
    return results, counts


# -- the builder -------------------------------------------------------------


@dataclass
class BuildReport:
    """Everything produced on the way to a candidate regular partition."""

    eps: float
    L: int
    eta: float
    j_factor: float
    max_atoms: int
    seed: int
    mode: str
    scales: NormalizationScales | None
    decomposition: StructuredDecomposition
    atoms: list[tuple[int, ...]]
    split: SplitResult
    w0_mass: float
    mu_total: float
    cluster_masses: list[float]
    pairs: list[PairClassification]
    pair_counts: dict
    bullets: dict
    passed: bool
    flags: list[str] = field(default_factory=list)

    @property
    def w0(self) -> tuple[int, ...]:
        return self.split.w0

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        return self.split.clusters

    def to_dict(self, *, pair_detail_limit: int = PAIR_DETAIL_LIMIT) -> dict:
        # keep the report size bounded: past the limit, flagged pairs are
        # listed first and the list is capped; the counts stay exact
        if len(self.pairs) > pair_detail_limit:
            flagged = [p for p in self.pairs if not (p.regular and p.energy_ok)]
            clean = [p for p in self.pairs if p.regular and p.energy_ok]
            listed = (flagged + clean)[:pair_detail_limit]
            truncated = True
        else:
            listed = self.pairs
            truncated = False
        return {
            "eps": self.eps,
            "L": self.L,
            "eta": self.eta,
            "j_factor": self.j_factor,
            "max_atoms": self.max_atoms,
            "seed": self.seed,
            "mode": self.mode,
            "scales": None
            if self.scales is None
            else {"mu_scale": self.scales.mu_scale, "rho_scale": self.scales.rho_scale},
            "decomposition": self.decomposition.to_dict(),
            "n_atoms": len(self.atoms),
            "w_star": self.split.w_star,
            "mu_max": self.split.mu_max,
            "oversized": list(self.split.oversized),
            "w0": list(self.split.w0),
            "w0_mass": self.w0_mass,
            "mu_total": self.mu_total,
            "clusters": [list(c) for c in self.split.clusters],
            "cluster_masses": self.cluster_masses,
            "pairs": [p.to_dict() for p in listed],
            "pairs_truncated": truncated,
            "pair_counts": self.pair_counts,
            "bullets": self.bullets,
            "passed": self.passed,
            "flags": self.flags,
        }


def default_max_atoms(G: WeightedGraph, eps: float, L: int) -> int:
    """Largest atom count keeping w* >= max mu, floored at 1."""
    return max(1, floor(eps * G.mu_total / float(G.mu.max())) - L)


def build_regular_partition(
    P: SubgraphPair,
    eps: float,
    L: int,
    *,
    seed: int = 0,
    mode: str = "auto",
    restarts: int = 64,
    M_max: int = 64,
    eta: float | None = None,
    j_factor: float = 100.0,
    max_atoms: int | None = None,
) -> BuildReport:
    """Build a candidate eps-regular partition with at most L + a clusters.

    ``eta`` is the per-pair error-energy budget (default eps^6 / 100),
    and the decomposition's goal for ||f_err|| is eps * sqrt(eta).
    ``j_factor`` scales the correlation denominator, ``max_atoms`` caps
    the structured part's atom count (default keeps w* at least the
    largest vertex weight).  ``mode`` applies to the decomposition and to
    every cluster pair, each resolving ``auto`` by its own size cap;
    ``BuildReport.mode`` is the requested mode and the decomposition's
    ``mode`` the one that ran.  The report's bullets record
    whether the produced partition meets the exceptional-mass, balance,
    and irregular-pair conditions; they are measured, not assumed.
    """
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    if L < 1:
        raise InputError("L must be a positive integer")
    flags: list[str] = []
    G = P.graph
    scales: NormalizationScales | None = None
    if not is_normalized(G):
        G, scales = normalize(G)
        P = SubgraphPair(graph=G, f_mask=P.f_mask)
        flags.append(
            f"host renormalized (mu x {scales.mu_scale:.6g}, "
            f"rho x {scales.rho_scale:.6g})"
        )
    if eta is None:
        eta = eps**6 / 100.0
    err_target = eps * float(np.sqrt(eta))
    if max_atoms is None:
        max_atoms = default_max_atoms(G, eps, L)
    n = G.n

    def threshold_denominator(basis: Sequence[BasicFunction], m: int) -> float:
        ell = (L + len(atoms_from_structure(n, basis))) / eps
        return j_factor * ell * ell / eps**3

    def atom_budget_hit(extended: Sequence[BasicFunction]) -> bool:
        return len(atoms_from_structure(n, extended)) > max_atoms

    decomposition = strong_decompose(
        G,
        P.indicator(),
        eps=err_target,
        j_of_basis=threshold_denominator,
        M_max=M_max,
        mode=mode,
        seed=seed,
        restarts=restarts,
        stop_when=atom_budget_hit,
    )
    if decomposition.stop_reason != "pseudorandom":
        flags.append(
            f"decomposition stopped on {decomposition.stop_reason}; the "
            "remainder is carried by f_err without a pseudorandomness "
            "certificate"
        )
    if not decomposition.certified:
        why = f"err_norm {decomposition.err_norm:.6g} vs target {err_target:.6g}"
        if decomposition.mode == "search" and np.any(decomposition.f_psd.values):
            why += "; its pseudorandomness certificate is a search lower bound"
        flags.append(f"decomposition not certified ({why})")

    basis = [bf for _, bf in decomposition.terms]
    atoms = atoms_from_structure(n, basis)
    split = split_atoms(G, atoms, eps, L)
    if split.oversized:
        flags.append(
            f"{len(split.oversized)} oversized vertices in the exceptional cluster"
        )
    cluster_masses = [mu_sum(G, c) for c in split.clusters]

    pairs, counts = classify_pairs(
        P,
        decomposition.f_err,
        split.clusters,
        eps,
        eta,
        mode=mode,
        seed=seed,
        restarts=restarts,
    )
    w0_idx, cluster_idx = partition_indices(n, split.w0, split.clusters)
    check = partition_report(
        G, w0_idx, cluster_idx, eps, [(p.i, p.j) for p in pairs if not p.regular]
    )
    if not check.pairs_ok:
        flags.append("irregular pair budget exceeded")
    return BuildReport(
        eps=eps,
        L=L,
        eta=eta,
        j_factor=j_factor,
        max_atoms=max_atoms,
        seed=seed,
        mode=mode,
        scales=scales,
        decomposition=decomposition,
        atoms=atoms,
        split=split,
        w0_mass=check.w0_mass,
        mu_total=G.mu_total,
        cluster_masses=cluster_masses,
        pairs=pairs,
        pair_counts=counts,
        bullets=check.bullets(),
        passed=check.passed,
        flags=flags,
    )
