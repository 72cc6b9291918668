"""Independent output checks for the benchmark's CLI reports.

Everything here recomputes from the generated input files with plain
numpy and never calls regulab: witness deviations and mass floors,
partition cover, W0 mass and balance, pair counts, the exit code each
report implies, and the exhaustive maxima of check-qr, check-pair,
decompose and verify reports, enumerated again by methods of its own.  Each check returns a list of problems; an empty
list means the report passed.

``summary`` distils the facts that the seed-0 reference pins: exit
codes, irregular-pair counts and exhaustive maxima.
"""

from __future__ import annotations

import json
import math
from math import comb
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
FLOOR_TOL = 1e-9
BRUTE_FORCE_MAX_SIDE = 8  # verify pairs with both sides this small are enumerated here
CELLS = 1 << 22  # table entries per enumeration block


def close(a, b) -> bool:
    return (
        isinstance(a, (int, float)) and not isinstance(a, bool)
        and math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    )


def band_ok(ok, value: float, bound: float) -> bool:
    """True unless ``ok`` contradicts value <= bound by more than rounding.

    Inside a relative band of 1e-6 around the bound either answer is
    accepted, so tolerance choices in the program do not matter here.
    """
    slack = 1e-6 * max(abs(bound), 1.0)
    if value < bound - slack:
        return ok is True
    if value > bound + slack:
        return ok is False
    return isinstance(ok, bool)


class Instance:
    """A generated input file as dense numpy arrays."""

    def __init__(self, path: Path):
        data = json.loads(path.read_text())
        self.n = n = int(data["n"])
        self.mu = np.asarray(data["mu"], dtype=np.float64)
        self.rho = np.zeros((n, n))
        edges = np.asarray(data["edges"], dtype=np.float64).reshape(-1, 3)
        u = edges[:, 0].astype(np.int64)
        v = edges[:, 1].astype(np.int64)
        self.rho[u, v] = self.rho[v, u] = edges[:, 2]
        self.rho_f = self.rho
        if "f_edges" in data:
            f = np.asarray(data["f_edges"], dtype=np.int64).reshape(-1, 2)
            mask = np.zeros((n, n), dtype=bool)
            mask[f[:, 0], f[:, 1]] = mask[f[:, 1], f[:, 0]] = True
            self.rho_f = np.where(mask, self.rho, 0.0)
        self.A = data.get("A")
        self.B = data.get("B")


def _sides_ok(n: int, X, Y, problems: list, what: str) -> bool:
    if not X or not Y:
        problems.append(f"{what}: empty side")
        return False
    if len(set(X)) != len(X) or len(set(Y)) != len(Y) or set(X) & set(Y):
        problems.append(f"{what}: sides repeat a vertex or overlap")
        return False
    if min(X + Y) < 0 or max(X + Y) >= n:
        problems.append(f"{what}: vertex out of range")
        return False
    return True


def _cross_density(R: np.ndarray, mu: np.ndarray, X, Y) -> float:
    return float(R[np.ix_(X, Y)].sum() / (mu[X].sum() * mu[Y].sum()))


def _expect_exit(exit_code: int, expected: int, problems: list) -> None:
    if exit_code != expected:
        problems.append(f"exit code {exit_code}, the report implies {expected}")


def _certificate(v: dict, mode: str, passed: bool, threshold: float, problems: list) -> None:
    """``certified`` must mean a proof: an exhaustive enumeration, a
    violating witness, or a reported ``upper`` bound below the threshold."""
    if mode == "exhaustive" or not passed:
        ok = v["certified"] is True
    else:
        upper = v.get("upper")
        ok = v["certified"] is False or (
            v["certified"] is True and isinstance(upper, (int, float)) and upper < threshold)
    if not ok:
        problems.append(f"certified={v['certified']} is not backed by an enumeration, "
                        f"a witness or an upper bound below {threshold}")


def _subset_table(k: int) -> np.ndarray:
    """(2^k, k) 0/1 membership matrix of every subset of k items."""
    codes = np.arange(1 << k)
    return ((codes[:, None] >> np.arange(k)) & 1).astype(np.float64)


def _role_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrices (3^k, k) of A- and B-membership over every
    assignment of k vertices to {outside, A, B}."""
    digits = (np.arange(3**k)[:, None] // 3 ** np.arange(k)) % 3
    return (digits == 1).astype(np.float64), (digits == 2).astype(np.float64)


def disjoint_pair_sums(W: np.ndarray, mu: np.ndarray):
    """Cross sums and masses of every disjoint (A, B), met in the middle.

    Returns (s_ab, mu_a, mu_b) as (3^h, 3^(n-h)) tables, h = n // 2: row
    i assigns the first h vertices, column j the rest.  W must be
    symmetric.
    """
    h = mu.size // 2
    a1, b1 = _role_tables(h)
    a2, b2 = _role_tables(mu.size - h)
    W11, W12, W22 = W[:h, :h], W[:h, h:], W[h:, h:]
    s1 = np.einsum("ij,jk,ik->i", a1, W11, b1)
    s2 = np.einsum("ij,jk,ik->i", a2, W22, b2)
    s = s1[:, None] + s2[None, :] + a1 @ W12 @ b2.T + b1 @ W12 @ a2.T
    ma = (a1 @ mu[:h])[:, None] + (a2 @ mu[h:])[None, :]
    mb = (b1 @ mu[:h])[:, None] + (b2 @ mu[h:])[None, :]
    return s, ma, mb


def pair_maxima(cross: np.ndarray, mui: np.ndarray, muj: np.ndarray, eps: float) -> np.ndarray:
    """Exhaustive max |d(X, Y) - d(Wi, Wj)| over qualifying X in Wi, Y in Wj.

    Takes a batch of same-shape pairs: cross (p, ka, kb) and side masses
    (p, ka), (p, kb).  Qualifying means nonempty with mass at least eps
    times the side's mass.  Enumerated in blocks of CELLS entries.
    """
    p, ka, kb = cross.shape
    ma, mb = _subset_table(ka), _subset_table(kb)
    wx, wy = mui @ ma.T, muj @ mb.T
    qx = (wx > 0) & (wx >= eps * mui.sum(1, keepdims=True) - FLOOR_TOL)
    qy = (wy > 0) & (wy >= eps * muj.sum(1, keepdims=True) - FLOOR_TOL)
    base = cross.sum(axis=(1, 2)) / (mui.sum(1) * muj.sum(1))
    out = np.full(p, -np.inf)
    group = max(1, CELLS >> (ka + kb))
    rows = max(1, CELLS // (group << kb))
    for s in range(0, p, group):
        g = slice(s, s + group)
        for r in range(0, 1 << ka, rows):
            x = slice(r, r + rows)
            t = ma[x] @ cross[g] @ mb.T  # (pairs, rows, 2^kb)
            with np.errstate(divide="ignore", invalid="ignore"):
                dev = np.abs(t / (wx[g, x, None] * wy[g, None, :]) - base[g, None, None])
            dev = np.where(qx[g, x, None] & qy[g, None, :], dev, -np.inf)
            out[g] = np.maximum(out[g], dev.reshape(dev.shape[0], -1).max(axis=1))
    return out


# -- check-qr ------------------------------------------------------------------


def check_qr(report: dict, inst: Instance, params: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    v = report["verdict"]
    beta, mode = params["beta"], params["mode"]
    mu_total = inst.mu.sum()
    g = float(inst.rho.sum() / mu_total**2)
    if not (close(report["global_density"], g) and close(v["global_density"], g)):
        problems.append(f"global density {v['global_density']!r}, recomputed {g}")
    if v["mode"] != mode:
        problems.append(f"mode {v['mode']!r}, requested {mode!r}")
    pair = v["worst_pair"]
    if pair is None:
        problems.append("no witness reported")
        return problems
    X, Y = pair["A"], pair["B"]
    if not _sides_ok(inst.n, X, Y, problems, "worst_pair"):
        return problems
    floor = beta * mu_total - FLOOR_TOL
    if inst.mu[X].sum() < floor or inst.mu[Y].sum() < floor:
        problems.append("worst_pair misses the beta * mu(V) mass floor")
    dev = abs(_cross_density(inst.rho, inst.mu, X, Y) - g)
    worst = v["worst_deviation"]
    if not close(worst, dev):
        problems.append(f"worst_deviation {worst!r}, witness recomputes to {dev}")
        return problems
    passed = worst < beta
    if v["passed"] is not passed:
        problems.append(f"passed={v['passed']} but worst {worst} vs beta {beta}")
    _certificate(v, mode, passed, beta, problems)
    if mode == "exhaustive":
        s, ma, mb = disjoint_pair_sums(inst.rho, inst.mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(s / (ma * mb) - g)
        best = float(dev[(ma >= floor) & (mb >= floor)].max())
        if not close(worst, best):
            problems.append(f"worst_deviation {worst!r}, enumeration gives {best}")
    _expect_exit(exit_code, 0 if v["passed"] else 3, problems)
    return problems


# -- check-pair ----------------------------------------------------------------


def check_pair(report: dict, inst: Instance, params: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    v = report["verdict"]
    eps, mode = params["eps"], params["mode"]
    A, B = inst.A, inst.B
    if report["A"] != A or report["B"] != B:
        problems.append("report sides differ from the pair file")
        return problems
    mu, R = inst.mu, inst.rho_f
    base = _cross_density(R, mu, A, B)
    if not close(v["base_density"], base):
        problems.append(f"base_density {v['base_density']!r}, recomputed {base}")
    if v["mode"] != mode:
        problems.append(f"mode {v['mode']!r}, requested {mode!r}")
    wit = v["worst_witness"]
    if wit is None:
        problems.append("no witness reported")
        return problems
    X, Y = wit["A"], wit["B"]
    if not _sides_ok(inst.n, X, Y, problems, "worst_witness"):
        return problems
    if not (set(X) <= set(A) and set(Y) <= set(B)):
        problems.append("witness leaves the pair sides")
        return problems
    if mu[X].sum() < eps * mu[A].sum() - FLOOR_TOL or mu[Y].sum() < eps * mu[B].sum() - FLOOR_TOL:
        problems.append("witness misses the eps * mu(side) mass floor")
    dev = abs(_cross_density(R, mu, X, Y) - base)
    worst = v["worst_deviation"]
    if not close(worst, dev):
        problems.append(f"worst_deviation {worst!r}, witness recomputes to {dev}")
        return problems
    passed = worst < eps
    if v["passed"] is not passed:
        problems.append(f"passed={v['passed']} but worst {worst} vs eps {eps}")
    _certificate(v, mode, passed, eps, problems)
    if mode == "exhaustive":
        best = float(pair_maxima(R[np.ix_(A, B)][None], mu[A][None], mu[B][None], eps)[0])
        if not close(worst, best):
            problems.append(f"worst_deviation {worst!r}, enumeration gives {best}")
    _expect_exit(exit_code, 0 if v["passed"] else 3, problems)
    return problems


# -- decompose -----------------------------------------------------------------


def check_decompose(report: dict, inst: Instance, params: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    d = report["decomposition"]
    c, eps = report["c"], params["eps"]
    n = inst.n
    pairs = comb(n, 2)
    W = (inst.rho_f > 0) * inst.rho  # 1_F weighted by rho
    terms, history = d["terms"], d["energy_history"]
    if d["M"] != len(terms) or len(history) != len(terms):
        problems.append("term count, M and energy history disagree")
        return problems
    for k, term in enumerate(terms):
        if not _sides_ok(n, term["A"], term["B"], problems, f"terms[{k}]"):
            return problems
    for k, h in enumerate(history):
        if not close(h["threshold"], 1.0 / (c * (k + 1) ** 2)):
            problems.append(f"energy_history[{k}]: threshold is not 1/J({k + 1})")
        if abs(h["correlation"]) < h["threshold"]:
            problems.append(f"energy_history[{k}]: term added below its threshold")
    if terms:
        # the first search runs on f itself, so its correlation is checkable
        X, Y = terms[0]["A"], terms[0]["B"]
        corr = float(W[np.ix_(X, Y)].sum()) / pairs
        if not close(history[0]["correlation"], corr):
            problems.append(f"first correlation {history[0]['correlation']!r}, recomputed {corr}")
        if params["mode"] == "exhaustive":
            best = float(np.abs(disjoint_pair_sums(W, inst.mu)[0]).max()) / pairs
            if not close(abs(corr), best):
                problems.append(f"first correlation {corr}, enumeration gives {best} in absolute value")
    m = max(d["M"], 1)
    if not close(d["cert_bound"], 1.0 / (c * m * m)):
        problems.append("cert_bound is not 1/J(M)")
    certified = (
        d["stop_reason"] == "pseudorandom"
        and d["psd_certificate"] < d["cert_bound"] + 1e-12
        and d["err_norm"] <= eps + 1e-12
    )
    if d["certified"] is not certified:
        problems.append(f"certified={d['certified']} contradicts its own fields")
    _expect_exit(exit_code, 0 if d["certified"] else 4, problems)
    return problems


# -- partition and verify ---------------------------------------------------------


def _cover_problems(n: int, parts: list) -> list[str]:
    seen = np.zeros(n, dtype=np.int64)
    for part in parts:
        idx = np.asarray(part, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            return ["partition names a vertex out of range"]
        np.add.at(seen, idx, 1)
    if np.any(seen != 1):
        return ["partition does not cover every vertex exactly once"]
    if any(len(c) == 0 for c in parts[1:]):
        return ["a cluster other than W0 is empty"]
    return []


def _bullet_problems(mu: np.ndarray, w0: list, clusters: list, eps: float,
                     w0_mass, w0_ok, gap, gap_ok, masses=None) -> list[str]:
    problems: list[str] = []
    want_w0 = float(mu[w0].sum()) if w0 else 0.0
    if not close(w0_mass, want_w0):
        problems.append(f"W0 mass {w0_mass!r}, recomputed {want_w0}")
    if not band_ok(w0_ok, want_w0, eps * mu.sum()):
        problems.append("W0 verdict contradicts its mass")
    want = np.array([mu[c].sum() for c in clusters])
    if masses is not None and not all(close(a, b) for a, b in zip(masses, want)):
        problems.append("cluster masses differ from the recomputed ones")
    want_gap = float(want.max() - want.min())
    if not close(gap, want_gap) and abs(gap - want_gap) > 1e-9 * mu.max():
        problems.append(f"balance gap {gap!r}, recomputed {want_gap}")
    if not band_ok(gap_ok, want_gap, float(mu.max())):
        problems.append("balance verdict contradicts its gap")
    return problems


def check_partition(report: dict, inst: Instance, params: dict, exit_code: int) -> list[str]:
    r = report["result"]
    parts = report["partition"]["clusters"]
    problems = _cover_problems(inst.n, parts)
    if problems:
        return problems
    if parts[0] != r["w0"] or parts[1:] != r["clusters"]:
        problems.append("partition block and result clusters disagree")
    eps = params["eps"]
    mu = inst.mu * (inst.n / inst.mu.sum())  # build_regular_partition works on the normalized host
    b = r["bullets"]
    problems += _bullet_problems(
        mu, parts[0], parts[1:], eps,
        b["exceptional_mass"]["value"], b["exceptional_mass"]["ok"],
        b["balance"]["value"], b["balance"]["ok"], r["cluster_masses"],
    )
    ell = len(parts) - 1
    counts = r["pair_counts"]
    if counts["n_clusters"] != ell or counts["n_pairs"] != ell * (ell - 1) // 2:
        problems.append("pair counts do not match the cluster count")
    if not close(counts["irregular_bound"], eps * ell * ell):
        problems.append("irregular bound is not eps * l^2")
    irr = counts["irregular"]
    if b["irregular_pairs"]["value"] != irr:
        problems.append("irregular bullet and pair counts disagree")
    if not band_ok(b["irregular_pairs"]["ok"], irr, eps * ell * ell):
        problems.append("irregular-pair verdict contradicts its count")
    listed = r["pairs"]
    if not r["pairs_truncated"]:
        if len(listed) != counts["n_pairs"] or sum(not p["regular"] for p in listed) != irr:
            problems.append("listed pairs disagree with the pair counts")
    for p in listed:
        if len(parts[p["i"]]) == 1 and len(parts[p["j"]]) == 1 and not (
            p["regular"] and p["deviation"] == 0.0
        ):
            problems.append(f"1x1 pair ({p['i']}, {p['j']}) is not trivially regular")
            break
    passed = all(section["ok"] for section in b.values())
    if r["passed"] is not passed:
        problems.append("passed contradicts the bullets")
    _expect_exit(exit_code, 3 if not r["passed"] else (0 if r["decomposition"]["certified"] else 4),
                 problems)
    return problems


def verify_maxima(inst: Instance, clusters: list, pairs: list, eps: float) -> np.ndarray:
    """pair_maxima for every listed (i, j), batched by pair shape."""
    out = np.empty(len(pairs))
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, (i, j) in enumerate(pairs):
        by_shape.setdefault((len(clusters[i]), len(clusters[j])), []).append(k)
    for ks in by_shape.values():
        wi = np.array([clusters[pairs[k][0]] for k in ks])
        wj = np.array([clusters[pairs[k][1]] for k in ks])
        out[ks] = pair_maxima(inst.rho_f[wi[:, :, None], wj[:, None, :]], inst.mu[wi], inst.mu[wj], eps)
    return out


def check_verify(report: dict, inst: Instance, params: dict, exit_code: int,
                 parts: list) -> list[str]:
    rep = report["report"]
    problems = _cover_problems(inst.n, parts)
    if problems:
        return problems
    eps = params["eps"]
    clusters = parts[1:]
    ell = len(clusters)
    if rep["n_clusters"] != ell:
        problems.append("cluster count differs from the partition file")
    problems += _bullet_problems(
        inst.mu, parts[0], clusters, eps,
        rep["w0"]["mass"], rep["w0"]["ok"], rep["balance"]["gap"], rep["balance"]["ok"],
    )
    verdicts = rep["pair_verdicts"]
    want_ij = [(i + 1, j + 1) for i in range(ell) for j in range(i + 1, ell)]
    if [(v["i"], v["j"]) for v in verdicts] != want_ij:
        problems.append("pair verdicts do not list every cluster pair in order")
        return problems
    irregular = [[v["i"], v["j"]] for v in verdicts if not v["passed"]]
    pairs = rep["pairs"]
    if pairs["irregular_pairs"] != irregular or pairs["irregular"] != len(irregular):
        problems.append("irregular pair list disagrees with the pair verdicts")
    if pairs["total"] != len(want_ij) or not close(pairs["bound"], eps * ell * ell):
        problems.append("pair total or bound is wrong")
    if not band_ok(pairs["ok"], len(irregular), eps * ell * ell):
        problems.append("irregular-pair verdict contradicts its count")
    # every pair small enough is enumerated again here
    sizes = [len(c) for c in clusters]
    small = [k for k, (i, j) in enumerate(want_ij)
             if max(sizes[i - 1], sizes[j - 1]) <= BRUTE_FORCE_MAX_SIDE]
    maxima = verify_maxima(inst, clusters, [(want_ij[k][0] - 1, want_ij[k][1] - 1) for k in small],
                           eps)
    reported = np.array([verdicts[k]["worst_deviation"] for k in small], dtype=np.float64)
    passed = np.array([verdicts[k]["passed"] is True for k in small], dtype=bool)
    certified = all(verdicts[k]["certified"] is True for k in small)
    bad = np.flatnonzero(~np.isclose(reported, maxima, rtol=REL_TOL, atol=ABS_TOL))
    if bad.size:
        b = bad[0]
        problems.append(f"pair {want_ij[small[b]]}: worst_deviation {float(reported[b])!r}, "
                        f"enumeration gives {maxima[b]}")
    elif np.any(passed != (reported < eps)) or not certified:
        problems.append("a pair verdict contradicts its exhaustive maximum")
    if rep["passed"] is not bool(rep["w0"]["ok"] and rep["balance"]["ok"] and pairs["ok"]):
        problems.append("passed contradicts the three requirements")
    _expect_exit(exit_code, 0 if rep["passed"] else 3, problems)
    return problems


# -- dispatch ------------------------------------------------------------------


CHECKERS = {
    "check-qr": check_qr,
    "check-pair": check_pair,
    "decompose": check_decompose,
    "partition": check_partition,
}


def certified_counts(obj) -> tuple[int, int]:
    """(certified, total) over every object in a report carrying a
    boolean ``certified`` field."""
    if isinstance(obj, dict):
        own = obj.get("certified")
        c, t = (int(own), 1) if isinstance(own, bool) else (0, 0)
        for v in obj.values():
            dc, dt = certified_counts(v)
            c, t = c + dc, t + dt
        return c, t
    if isinstance(obj, list):
        c = t = 0
        for v in obj:
            dc, dt = certified_counts(v)
            c, t = c + dc, t + dt
        return c, t
    return 0, 0


def summary(command: str, report: dict, exit_code: int) -> dict:
    """The facts pinned by the seed-0 reference for one call."""
    out: dict = {"exit": exit_code}
    if command in ("check-qr", "check-pair"):
        if report["verdict"]["mode"] == "exhaustive":
            out["max"] = report["verdict"]["worst_deviation"]
    elif command == "decompose":
        history = report["decomposition"]["energy_history"]
        out["max"] = history[0]["correlation"] if history else 0.0
    elif command == "partition":
        out["irregular"] = report["result"]["pair_counts"]["irregular"]
    elif command == "verify":
        out["irregular"] = report["report"]["pairs"]["irregular"]
        out["max"] = math.fsum(v["worst_deviation"] for v in report["report"]["pair_verdicts"])
    return out


def compare_reference(got: list[dict], want: list[dict]) -> list[list[str]]:
    """Per call, the facts that differ from the reference."""
    if len(got) != len(want):
        return [[f"{len(got)} calls, the reference has {len(want)}"]] * len(got)
    problems = []
    for g, w in zip(got, want):
        found = []
        for key in sorted(g.keys() | w.keys()):
            if key not in g or key not in w:
                found.append(f"{key} is missing from the report facts or the reference")
            elif not (close(g[key], w[key]) if key == "max" else g[key] == w[key]):
                found.append(f"{key} = {g[key]!r}, reference {w[key]!r}")
        problems.append(found)
    return problems


def tamper(command: str, report: dict) -> None:
    """Corrupt one checked field of a report in place."""
    if command in ("check-qr", "check-pair"):
        report["verdict"]["worst_deviation"] *= 1 + 1e-6
    elif command == "decompose":
        report["decomposition"]["energy_history"][0]["correlation"] *= 1 + 1e-6
    elif command == "partition":
        report["result"]["pair_counts"]["irregular"] += 1
    else:
        first = report["report"]["pair_verdicts"][0]
        first["passed"] = not first["passed"]
