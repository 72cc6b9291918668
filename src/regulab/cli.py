"""Command line interface.

Exit codes: 0 the requested check passed (or the artifact was written),
2 bad input (malformed files, invalid arguments), 3 the check failed
with a witness, 4 the computation finished without a certificate (a
budget stop or an uncertified decomposition).  Stochastic subcommands
take an explicit --seed so runs are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from . import io
from .core import InputError, global_density
from .decomposition import strong_decompose
from .models import (
    ProbMatrixSpec,
    concentration_test,
    gen_gnpij,
    make_counterexample,
    make_star,
)
from .partition import build_regular_partition
from .quasirandom import check_quasirandom
from .regularity import check_pair, check_partition
from .demos import concentration_demo, counterexample_demo, star_demo

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAILED = 3
EXIT_UNCERTIFIED = 4


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = io.dump_report(report, timestamp=not args.no_timestamp)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_pairs_csv(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else ["i", "j"])
        writer.writeheader()
        writer.writerows(rows)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated list of integers, got {text!r}") from exc


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generation timestamp (byte-stable output)",
    )


def _add_check_options(p: argparse.ArgumentParser, default_restarts: int = 64) -> None:
    p.add_argument(
        "--mode", choices=("auto", "exhaustive", "search"), default="auto",
        help="exhaustive enumeration, witness search, or size-based choice",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the witness search")
    p.add_argument("--restarts", type=int, default=default_restarts)


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.model == "constant":
        if args.p is None:
            raise InputError("--p is required for the constant model")
        G = gen_gnpij(args.n, ProbMatrixSpec.constant(args.p), args.seed)
        extra = {"model": {"kind": "constant", "p": args.p, "seed": args.seed}}
    elif args.model == "uniform":
        spec = ProbMatrixSpec.uniform(args.low, args.high)
        G = gen_gnpij(args.n, spec, args.seed)
        extra = {
            "model": {
                "kind": "uniform", "low": args.low, "high": args.high,
                "seed": args.seed,
            }
        }
    elif args.model == "star":
        G = make_star(args.n)
        extra = {"model": {"kind": "star"}}
    else:
        ce = make_counterexample(args.n, args.seed)
        G = ce.reciprocal_graph()
        extra = {
            "model": {
                "kind": "counterexample",
                "seed": args.seed,
                "p_random": ce.p_random,
                "parts": {k: list(v) for k, v in ce.parts.items()},
            }
        }
    if args.output:
        io.save_graph(G, args.output, extra=extra)
    else:
        payload = io.graph_to_dict(G)
        payload.update(extra)
        sys.stdout.write(io.json_text(payload) + "\n")
    return EXIT_OK


def _cmd_check_qr(args: argparse.Namespace) -> int:
    G = io.load_graph(args.graph)
    verdict = check_quasirandom(
        G, args.beta, args.D, mode=args.mode, seed=args.seed, restarts=args.restarts
    )
    report = {
        "command": "check-qr",
        "graph": args.graph,
        "global_density": global_density(G),
        "verdict": verdict.to_dict(),
    }
    _emit(report, args)
    return EXIT_OK if verdict.passed else EXIT_FAILED


def _cmd_check_pair(args: argparse.Namespace) -> int:
    P, A, B = io.load_pair(args.pair)
    if args.A is not None:
        A = _int_list(args.A)
    if args.B is not None:
        B = _int_list(args.B)
    if A is None or B is None:
        raise InputError("sides A and B must come from the pair file or --A/--B")
    verdict = check_pair(
        P, A, B, args.eps, mode=args.mode, seed=args.seed, restarts=args.restarts
    )
    report = {
        "command": "check-pair",
        "pair": args.pair,
        "A": list(A),
        "B": list(B),
        "verdict": verdict.to_dict(),
    }
    _emit(report, args)
    return EXIT_OK if verdict.passed else EXIT_FAILED


def _cmd_decompose(args: argparse.Namespace) -> int:
    P, _, _ = io.load_pair(args.pair)
    decomposition = strong_decompose(
        P.graph,
        P.indicator(),
        eps=args.eps,
        J=lambda m: args.c * m * m,
        M_max=args.M_max,
        mode=args.mode,
        seed=args.seed,
        restarts=args.restarts,
    )
    report = {
        "command": "decompose",
        "pair": args.pair,
        "c": args.c,
        "decomposition": decomposition.to_dict(),
    }
    _emit(report, args)
    return EXIT_OK if decomposition.certified else EXIT_UNCERTIFIED


def _cmd_partition(args: argparse.Namespace) -> int:
    P, _, _ = io.load_pair(args.pair)
    result = build_regular_partition(
        P,
        args.eps,
        args.L,
        seed=args.seed,
        mode=args.mode,
        restarts=args.restarts,
        M_max=args.M_max,
        eta=args.eta,
        j_factor=args.j_factor,
        max_atoms=args.max_atoms,
    )
    report = {"command": "partition", "pair": args.pair, "result": result.to_dict()}
    report["partition"] = io.partition_to_dict(
        list(result.w0), [list(c) for c in result.clusters]
    )
    _emit(report, args)
    if args.csv:
        _write_pairs_csv(args.csv, [p.to_dict() for p in result.pairs])
    if not result.passed:
        return EXIT_FAILED
    return EXIT_OK if result.decomposition.certified else EXIT_UNCERTIFIED


def _cmd_verify(args: argparse.Namespace) -> int:
    P, _, _ = io.load_pair(args.pair)
    w0, clusters = io.load_partition(args.partition, P.n)
    report_obj = check_partition(
        P, w0, clusters, args.eps,
        mode=args.mode, seed=args.seed, restarts=args.restarts,
    )
    report = {
        "command": "verify",
        "pair": args.pair,
        "partition": args.partition,
        "report": report_obj.to_dict(),
    }
    _emit(report, args)
    if args.csv:
        _write_pairs_csv(args.csv, report_obj.pair_verdicts)
    return EXIT_OK if report_obj.passed else EXIT_FAILED


def _cmd_concentration(args: argparse.Namespace) -> int:
    G = io.load_graph(args.graph)
    result = concentration_test(
        G, args.beta, seed=args.seed, n_samples=args.samples
    )
    report = {
        "command": "concentration",
        "graph": args.graph,
        "report": result.to_dict(),
    }
    _emit(report, args)
    return EXIT_OK if result.passed else EXIT_FAILED


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name == "star":
        report = star_demo(args.n or 8)
    elif args.name == "counterexample":
        report = counterexample_demo(args.n or 400, args.seed)
    else:
        report = concentration_demo(args.n or 1000, args.seed)
    _emit(report, args)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regulab",
        description="Regularity toolkit for weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a model graph as JSON")
    p.add_argument(
        "--model", required=True,
        choices=("constant", "uniform", "star", "counterexample"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, help="edge probability (constant model)")
    p.add_argument("--low", type=float, default=0.1, help="uniform model lower bound")
    p.add_argument("--high", type=float, default=0.9, help="uniform model upper bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the graph file here instead of stdout")
    p.add_argument(
        "--no-timestamp", action="store_true",
        help="no effect: graph files carry no timestamp and are always byte-stable",
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check-qr", help="quasirandomness of a weighted graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--D", type=float, default=None, help="check the density ratio sandwich instead")
    _add_check_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_check_qr)

    p = sub.add_parser("check-pair", help="regularity of one pair of vertex sets")
    p.add_argument("--pair", required=True, help="pair file (graph + f_edges [+ A, B])")
    p.add_argument("--A", help="comma-separated vertex list, overrides the file")
    p.add_argument("--B", help="comma-separated vertex list, overrides the file")
    p.add_argument("--eps", type=float, required=True)
    _add_check_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_check_pair)

    p = sub.add_parser("decompose", help="structured + pseudorandom + small split of 1_F")
    p.add_argument("--pair", required=True)
    p.add_argument("--eps", type=float, required=True, help="target bound for ||f_err||")
    p.add_argument(
        "--c", type=float, default=10.0,
        help="correlation denominator J(m) = c m^2 (default 10)",
    )
    p.add_argument("--M-max", type=int, default=64, dest="M_max")
    _add_check_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("partition", help="build a candidate regular partition")
    p.add_argument("--pair", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--L", type=int, required=True, help="baseline cluster count")
    p.add_argument("--M-max", type=int, default=64, dest="M_max")
    p.add_argument("--eta", type=float, default=None, help="pair energy budget (default eps^6/100)")
    p.add_argument("--j-factor", type=float, default=100.0, dest="j_factor")
    p.add_argument("--max-atoms", type=int, default=None, dest="max_atoms")
    p.add_argument("--csv", help="also write the per-pair verdict table as CSV")
    _add_check_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verify", help="check a stored partition against a pair file")
    p.add_argument("--pair", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--csv", help="also write the per-pair verdict table as CSV")
    _add_check_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("concentration", help="sampled pair-weight concentration")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("demo", help="run a bundled worked example")
    p.add_argument("--name", required=True, choices=("star", "counterexample", "concentration"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
