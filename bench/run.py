"""regulab benchmark: drive the CLI in-process on seeded workloads.

    python3 bench/run.py --workload partition-fine --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40

One run is one process.  It imports regulab from ``src/`` of the
checkout it sits in, generates the workload's input files from
``--seed``, then repeats passes over the workload's CLI calls through
``regulab.cli.main(argv)`` until the passes have taken ``--seconds``,
checks every report independently (``checks.py``) and prints the
metrics.  After each untraced pass the set-up is timed again, for at
least SETUP_SLICE_S, into a directory of its own; ``setup_s`` is the
median of all set-ups, which thus sample the same stretch of time as
the passes.  With ``--trace 1`` it first times untraced passes for
``--seconds``, then wraps the layers (``spans.py``) and times traced
passes for as long again, and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the environment, every metric by name with its unit,
and the pass-time distribution.  Files go to ``.bench_run/`` in the
checkout: inputs and reports in a scratch directory removed at exit,
the result and (traced) spans under ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
REFERENCE = HERE / "reference_seed0.json"
DEFAULT_SEED = 0
SETUP_SLICE_S = 1.0

# regulab checks partition pairs on a thread pool when this is above 1;
# every workload runs with one thread of control, whatever the caller set.
os.environ["REGULAB_THREADS"] = "1"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

class BenchError(Exception):
    """The benchmark cannot run here (for example, no regulab sources)."""


def import_regulab():
    """Import regulab afresh from the checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "regulab" or m.startswith("regulab.")]:
        del sys.modules[name]
    if not (SRC / "regulab" / "__init__.py").is_file():
        raise BenchError(f"no regulab sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("regulab")
    importlib.import_module("regulab.cli")
    if Path(package.__file__).resolve().parent != SRC / "regulab":
        raise BenchError(f"regulab imported from {package.__file__}, not {SRC}")
    return package


def set_up(workload, seed: int, work: Path):
    """Import regulab afresh and write the inputs into ``work``; return the
    package and the seconds that took."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    rl = import_regulab()
    workload.generate(rl, work, seed)
    return rl, time.perf_counter() - t0


def resample_setup(workload, seed: int, work: Path) -> list[float]:
    """Time set-ups into ``work`` for at least SETUP_SLICE_S and return their
    seconds.  The regulab modules the passes run on are put back after, so
    the passes and the tracer keep seeing one copy of the package."""
    kept = {name: m for name, m in sys.modules.items()
            if name == "regulab" or name.startswith("regulab.")}
    samples: list[float] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < SETUP_SLICE_S:
        samples.append(set_up(workload, seed, work)[1])
    sys.modules.update(kept)
    shutil.rmtree(work, ignore_errors=True)
    return samples


def run_pass(rl, workload, work: Path, tracer: Tracer | None) -> list[dict]:
    """One pass over the workload's CLI calls; one record per call.

    Only the ``main(argv)`` calls are timed; copying the partition block
    for ``verify`` happens between them.
    """
    records = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for call in workload.calls:
            report = Path(call.report)
            report.unlink(missing_ok=True)
            if call.command == "verify":
                part = json.loads(Path("partition.json").read_text())["partition"]
                Path("clusters.json").write_text(json.dumps(part))
            rec = {"exit": None, "error": None}
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rec["exit"] = rl.cli.main(list(call.argv))
                else:
                    rec["exit"] = tracer.span(f"cli.{call.command}", rl.cli.main, list(call.argv))
            except (Exception, SystemExit) as exc:  # a crash fails the call, not the run
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["seconds"] = time.perf_counter() - t0
            rec["digest"] = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
            records.append(rec)
    finally:
        os.chdir(cwd)
    return records


def timed_passes(rl, workload, work: Path, seconds: float, tracer: Tracer | None,
                 between=None) -> list:
    """Repeat passes until they have taken ``seconds`` in all, calling
    ``between()`` after each one; its time does not count."""
    passes: list[list[dict]] = []
    spent = 0.0
    while not passes or spent < seconds:
        if tracer is not None:
            tracer.run_id = len(passes)
        t0 = time.perf_counter()
        passes.append(run_pass(rl, workload, work, tracer))
        spent += time.perf_counter() - t0
        if between is not None:
            between()
    return passes


def check_one(call, report: dict, exit_code: int, work: Path, cache: dict) -> list[str]:
    source = call.params.get("input", "host.json")
    if source not in cache:
        cache[source] = checks.Instance(work / source)
    if call.command == "verify":
        parts = json.loads((work / "clusters.json").read_text())["clusters"]
        return checks.check_verify(report, cache[source], call.params, exit_code, parts)
    return checks.CHECKERS[call.command](report, cache[source], call.params, exit_code)


def check_outputs(workload, work: Path, passes: list[list[dict]], seed: int, record: bool):
    """Check the reports the last pass left in ``work``.

    Every pass must have written byte-identical reports with the same
    exit codes, so the last pass stands for all.  At the default seed
    the report facts must also match the reference.  Returns per-call
    problems, (certified, total) verdict counts, and run-level problems
    (a tampered report that the checker accepted).
    """
    last = passes[-1]
    problems: list[list[str]] = []
    facts: list[dict] = []
    reports: list[dict | None] = []
    cache: dict[str, checks.Instance] = {}
    for k, call in enumerate(workload.calls):
        rec = last[k]
        found: list[str] = []
        report = None
        if rec["error"] is not None:
            found.append(rec["error"])
        if any(p[k]["digest"] != rec["digest"] or p[k]["exit"] != rec["exit"] for p in passes):
            found.append("report or exit code differs between passes")
        try:
            report = json.loads((work / call.report).read_text())
            found += check_one(call, report, rec["exit"], work, cache)
            facts.append(checks.summary(call.command, report, rec["exit"]))
        except Exception as exc:  # a malformed report fails the call
            found.append(f"report check raised {type(exc).__name__}: {exc}")
            facts.append({"exit": rec["exit"]})
        problems.append(found)
        reports.append(report)
    counts = [checks.certified_counts(r) for r in reports if r is not None]
    verdicts = (sum(c for c, _ in counts), sum(t for _, t in counts))

    if record:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[workload.name] = facts
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    elif seed == DEFAULT_SEED:
        want = json.loads(REFERENCE.read_text())[workload.name]
        for found, mismatches in zip(problems, checks.compare_reference(facts, want)):
            found += [f"reference: {m}" for m in mismatches]

    run_problems: list[str] = []
    for k, (call, report) in enumerate(zip(workload.calls, reports)):
        if report is None or problems[k]:
            continue
        checks.tamper(call.command, report)
        try:
            rejected = bool(check_one(call, report, last[k]["exit"], work, cache))
        except Exception:  # crashing on bad input also rejects it
            rejected = True
        if not rejected:
            run_problems.append(f"{call.report}: the checker accepted a tampered report")
    return problems, verdicts, run_problems


def pass_seconds(passes: list[list[dict]]) -> list[float]:
    return [sum(rec["seconds"] for rec in p) for p in passes]


def tail_percentile(samples: list[float]) -> str:
    """The highest of a few percentiles that has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}={ordered[min(n - 1, int(n * p / 100))]:.4f}"
    return f"no percentile has 10 samples beyond it (n={n})"


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads_var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if os.environ.get(v)), None)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[threads_var]) if threads_var else nproc,
        "blas_threads_from": threads_var or "default (one per core)",
        "nproc": nproc,
        "regulab_threads": int(os.environ["REGULAB_THREADS"]),
        "seed": seed,
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    setup_work = OUT / f"setup-{workload.name}-{os.getpid()}"
    results = OUT / "results"
    try:
        rl, first_setup = set_up(workload, args.seed, work)
        setup_samples = [first_setup]
        untraced = timed_passes(
            rl, workload, work, args.seconds, None,
            between=lambda: setup_samples.extend(resample_setup(workload, args.seed, setup_work)))
        setup_s = median(setup_samples)
        passes = untraced
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            passes = untraced + timed_passes(rl, workload, work, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        t0 = time.perf_counter()
        problems, (n_certified, n_verdicts), run_problems = check_outputs(
            workload, work, passes, args.seed, args.record_reference)
        check_s = time.perf_counter() - t0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(setup_work, ignore_errors=True)

    n_calls = len(workload.calls)
    attempted = len(passes) * n_calls
    failed = len(passes) * sum(1 for p in problems if p)
    samples = pass_seconds(untraced)
    pipeline_s = median(samples)

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    for call, found in zip(workload.calls, problems):
        for problem in found:
            print(f"FAILED {' '.join(call.argv)}: {problem}")
    for problem in run_problems:
        print(f"FAILED run: {problem}")
    print(f"checked {len(passes)} passes x {n_calls} calls in {check_s:.1f} s")
    print(f"pipeline_s        {pipeline_s:.4f} s   median of {len(samples)} passes; "
          f"{tail_percentile(samples)}")
    print(f"setup_s           {setup_s:.4f} s   median of {len(setup_samples)} set-ups")
    print(f"peak_rss_mb       {peak_rss_mb:.1f} MB")
    print(f"failed_frac       {failed / attempted:.4f}   {failed} of {attempted} CLI calls")
    print(f"ok_frac           {1 - failed / attempted:.4f}")
    print(f"certified_frac    {n_certified / max(n_verdicts, 1):.6f}   "
          f"{n_certified} of {n_verdicts} verdicts")

    if tracer is None:
        metrics = {
            "pipeline_s": pipeline_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1 - failed / attempted,
            "certified_frac": n_certified / max(n_verdicts, 1),
        }
    else:
        metrics = tracer.pass_metrics(pipeline_s)
        traced = len(passes) - len(untraced)
        print(f"traced passes {traced}; per pass: span, calls, total s, self s")
        for name, calls, total, own in tracer.layer_table():
            print(f"  {name:38s} {calls:8d} {total:10.4f} {own:10.4f}")
        print(f"self times sum to {metrics['trace.self_total_s']:.4f} s per traced pass; "
              f"untraced pipeline_s {pipeline_s:.4f} s; overhead {metrics['trace.overhead_s']:.4f} s")
        for name in PER_LAYER:
            print(f"{name:32s} {metrics[name]:.6g} {_unit(name)}")

    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": _unit(name)} for name in metrics},
    }
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {**result, "env": env, "pass_seconds": samples, "setup_seconds": setup_samples,
         "problems": problems, "run_problems": run_problems}, indent=2) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name.endswith("per_restart"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        status = status or (0 if result["correct"] else 1)
        rows.append((name, result))
    if not args.trace:
        print(f"\n{'workload':18s} {'pipeline_s':>10s} {'setup_s':>8s} {'peak_rss_mb':>11s} "
              f"{'failed_frac':>11s} {'certified_frac':>14s}")
        for name, r in rows:
            m = r["metrics"]
            print(f"{name:18s} {m['pipeline_s']['value']:10.4f} {m['setup_s']['value']:8.4f} "
                  f"{m['peak_rss_mb']['value']:11.1f} {r['failed'] / r['attempted']:11.4f} "
                  f"{m['certified_frac']['value']:14.6f}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's facts as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_reference and (args.seed != DEFAULT_SEED or args.workload == "all"):
        parser.error(f"--record-reference needs one workload at --seed {DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
