"""The benchmark workloads: seeded inputs and the CLI calls run on them.

Every input is generated from the workload seed alone and written as a
JSON file; the CLI receives nothing but those files.  The partition
host is the acceptance-criterion-3 construction, ``gen_gnpij(n,
uniform(0.2, 0.8), seed=5+seed)`` minus the F-edges inside the first
n/4 vertices, at n=256, which still yields all-singleton clusters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

EPS = 0.3
BETA = 0.3
DECOMPOSE_EPS = 0.1


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  ``argv`` names files inside the work directory;
    ``report`` is the file the call writes its JSON report to."""

    command: str
    argv: tuple[str, ...]
    report: str
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[ModuleType, Path, int], None]
    calls: tuple[Call, ...]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_pair(rl: ModuleType, path: Path, P, A=None, B=None) -> None:
    # same layout as regulab.io.save_graph writes for graphs
    payload = rl.io.pair_to_dict(P, A, B)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _without_block(rl: ModuleType, G, block: np.ndarray):
    """SubgraphPair of G whose F drops every edge inside ``block``."""
    f_mask = G.edge_mask.copy()
    f_mask[np.ix_(block, block)] = False
    return rl.core.SubgraphPair(graph=G, f_mask=f_mask)


def _random_half(rl: ModuleType, G, rng: np.random.Generator):
    """SubgraphPair of G keeping each edge with probability 1/2."""
    keep = np.triu(rng.random((G.n, G.n)) < 0.5, k=1)
    keep = keep | keep.T
    return rl.core.SubgraphPair(graph=G, f_mask=G.edge_mask & keep)


def _uniform(rl: ModuleType):
    return rl.models.ProbMatrixSpec.uniform(0.2, 0.8)


# -- partition-fine -------------------------------------------------------------


def _gen_partition(rl: ModuleType, work: Path, seed: int) -> None:
    G = rl.models.gen_gnpij(256, _uniform(rl), seed=5 + seed)
    _write_pair(rl, work / "host.json", _without_block(rl, G, np.arange(64)))


PARTITION_CALLS = (
    Call("partition",
         ("partition", "--pair", "host.json", "--eps", str(EPS), "--L", "4",
          "--no-timestamp", "-o", "partition.json"),
         "partition.json", {"eps": EPS, "L": 4}),
    # clusters.json is the "partition" block of partition.json, copied
    # out by the benchmark between the two calls
    Call("verify",
         ("verify", "--pair", "host.json", "--partition", "clusters.json",
          "--eps", str(EPS), "--no-timestamp", "-o", "verify.json"),
         "verify.json", {"eps": EPS}),
)


# -- search-certify: witness search, then exhaustive certificates ---------------


def _gen_witness(rl: ModuleType, work: Path, seed: int) -> None:
    G = rl.models.gen_gnpij(1000, rl.models.ProbMatrixSpec.constant(0.5), seed=1000 + seed)
    rl.io.save_graph(G, work / "gnp1000.json")
    H, _ = rl.core.normalize(rl.models.gen_gnpij(600, _uniform(rl), seed=2000 + seed))
    rng = _rng(seed, 3)
    A = np.arange(200)
    B = np.arange(200, 400)
    # a planted empty sub-pair of 100 + 100 vertices makes the pair irregular
    block = np.concatenate([rng.choice(A, 100, replace=False), rng.choice(B, 100, replace=False)])
    _write_pair(rl, work / "pair600.json", _without_block(rl, H, block), A.tolist(), B.tolist())


WITNESS_CALLS = (
    Call("check-qr",
         ("check-qr", "--graph", "gnp1000.json", "--mode", "search", "--beta", str(BETA),
          "--no-timestamp", "-o", "qr1000.json"),
         "qr1000.json", {"input": "gnp1000.json", "beta": BETA, "mode": "search"}),
    Call("check-pair",
         ("check-pair", "--pair", "pair600.json", "--mode", "search", "--eps", str(EPS),
          "--no-timestamp", "-o", "pair600-report.json"),
         "pair600-report.json", {"input": "pair600.json", "eps": EPS, "mode": "search"}),
)


def _gen_small(rl: ModuleType, work: Path, seed: int) -> None:
    for k in range(3):
        G = rl.models.gen_gnpij(14, _uniform(rl), seed=3000 + 3 * seed + k)
        rl.io.save_graph(G, work / f"qr14-{k}.json")
    G = rl.models.gen_gnpij(26, _uniform(rl), seed=4000 + seed)
    _write_pair(rl, work / "pair26.json", _random_half(rl, G, _rng(seed, 4)),
                list(range(13)), list(range(13, 26)))
    H, _ = rl.core.normalize(rl.models.gen_gnpij(12, _uniform(rl), seed=5000 + seed))
    _write_pair(rl, work / "dec12.json", _random_half(rl, H, _rng(seed, 5)))


SMALL_CALLS = tuple(
    Call("check-qr",
         ("check-qr", "--graph", f"qr14-{k}.json", "--mode", "exhaustive", "--beta", str(BETA),
          "--no-timestamp", "-o", f"qr14-{k}-report.json"),
         f"qr14-{k}-report.json", {"input": f"qr14-{k}.json", "beta": BETA, "mode": "exhaustive"})
    for k in range(3)
) + (
    Call("check-pair",
         ("check-pair", "--pair", "pair26.json", "--mode", "exhaustive", "--eps", str(EPS),
          "--no-timestamp", "-o", "pair26-report.json"),
         "pair26-report.json", {"input": "pair26.json", "eps": EPS, "mode": "exhaustive"}),
    Call("decompose",
         ("decompose", "--pair", "dec12.json", "--mode", "exhaustive", "--eps", str(DECOMPOSE_EPS),
          "--no-timestamp", "-o", "dec12-report.json"),
         "dec12-report.json", {"input": "dec12.json", "eps": DECOMPOSE_EPS, "mode": "exhaustive"}),
)


def _gen_search_certify(rl: ModuleType, work: Path, seed: int) -> None:
    _gen_witness(rl, work, seed)
    _gen_small(rl, work, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "partition-fine",
            "acceptance construction at n=256: partition emits 256 singleton "
            "clusters, so verify makes 32,640 per-pair calls; dispatch dominates",
            _gen_partition,
            PARTITION_CALLS,
        ),
        Workload(
            "search-certify",
            "check-qr and check-pair by search (n=1000, 200+200) and by enumeration "
            "(n=14, 13+13), decompose n=12: hill climbing, parsing, 3^n and 2^26 tables",
            _gen_search_certify,
            WITNESS_CALLS + SMALL_CALLS,
        ),
    )
}
