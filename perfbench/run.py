"""Benchmark for commgrowth: seeded job lists through `growth` and the library.

One client in one process and one thread sends each job only after the
previous one has finished (closed loop).  CLI jobs call
``commgrowth.cli.main(argv)`` with stdout and stderr captured; library jobs
call public functions.  Every output is checked against ``oracles``.

    python3 perfbench/run.py --workload balls --seed 1 --seconds 30 --trace 0

``--seconds`` sets the number of passes (``pass_count``), so a run sends the
same jobs however fast the host is, and two runs of one seed attempt, and
fail, exactly the same jobs.  With ``--trace 0`` the last line of stdout is a
JSON object carrying the end-to-end metrics, job times scaled to the
reference host speed (``probe``); with ``--trace 1`` it carries the
per-layer metrics of a traced run, whose outputs must match those of an
untraced run of the same job lists byte for byte.  ``--workload all`` runs the three workloads in
turn, each in its own process, and reports their metrics side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracles
import probe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SPAWNS = 16
# seconds one pass takes at the reference speed (2 shared cores of a
# cloud host, CPython 3.11), which turn --seconds into a pass count
PASS_SECONDS = {"balls": 2.3, "series": 3.3, "checks": 1.2}
END_TO_END = {"wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def import_package():
    """Import commgrowth from this checkout's src/ and nowhere else."""
    package_dir = SRC / "commgrowth"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: {package_dir} is missing; run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(SRC))
    import commgrowth
    from commgrowth import arith, cli, commgraph, errors  # noqa: F401
    if Path(commgrowth.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported commgrowth from {commgrowth.__file__}, "
                         f"not from {package_dir}")
    return commgrowth


@dataclass
class Record:
    job: object
    latency: float
    failure: tuple[str, str] | None
    digest: str
    stdout_chars: int


@dataclass
class Run:
    records: list[Record] = field(default_factory=list)
    passes: int = 0
    probes: list[float] = field(default_factory=list)   # seconds, one per job

    @property
    def failures(self):
        return [r for r in self.records if r.failure]


def execute(job, package) -> tuple[float, tuple[str, str] | None, str, int]:
    """Run one job; return latency, failure (kind, reason) or None, stdout
    digest and stdout length.  Kind "crash" is an exception escaping the
    program, "wrong" a wrong exit status or a wrong output."""
    errors = package.errors
    out, err = io.StringIO(), io.StringIO()
    value, crash = None, None
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if job.argv is not None:
                status = package.cli.main(job.argv)
            else:
                value = job.call()
                status = 0
        except SystemExit as exc:          # argparse rejecting the arguments
            status = exc.code
        except (errors.DomainError, errors.ResourceLimitError) as exc:
            if job.argv is not None:
                crash = f"{type(exc).__name__}: {exc}"
            status = 2 if isinstance(exc, errors.DomainError) else 3
        except Exception as exc:
            crash = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    text = out.getvalue()
    output = text if job.argv is not None else ("" if value is None else repr(value))
    digest = hashlib.sha256(output.encode()).hexdigest()
    if crash is not None:
        return latency, ("crash", crash[:160]), digest, len(text)
    if status != job.expect:
        return latency, ("wrong", f"exit {status}, expected {job.expect}"), digest, len(text)
    try:
        problem = job.check(text if job.argv is not None else value)
    except Exception as exc:
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    return latency, (("wrong", problem) if problem else None), digest, len(text)


def pass_count(workload: str, seconds: float) -> int:
    """Passes that take about `seconds` at the reference speed, in whole
    multiples of workloads.STRATA.  The count, and so the job list, depends
    only on the arguments, never on how fast the host runs."""
    strata = workloads.STRATA
    return max(strata, strata * round(seconds / (strata * PASS_SECONDS[workload])))


def run_passes(workload: str, seed: int, package, passes: int, tracer=None,
               before_pass=None, probes=False) -> Run:
    """Run `passes` passes; with `probes`, time a host-speed probe before
    every job."""
    run = Run(passes=passes)
    for i in range(passes):
        if before_pass is not None:
            before_pass(i)
        for job in workloads.make_pass(workload, seed, i, package):
            if probes:
                run.probes.append(probe.timed(workload))
            if tracer is not None:
                tracer.job = len(run.records)
            latency, failure, digest, chars = execute(job, package)
            run.records.append(Record(job, latency, failure, digest, chars))
    return run


def job_list_wall(run: Run) -> float:
    """Wall time of one job list holding one job from every slot: the sum
    of each slot's median latency in the run."""
    by_slot = defaultdict(list)
    for r in run.records:
        by_slot[r.job.slot].append(r.latency)
    return sum(statistics.median(v) for v in by_slot.values())


def spawn_setup(times: list[float]) -> bool:
    """Time one fresh `python -m commgrowth --version` into `times`; True
    when it printed the version."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    done = subprocess.run([sys.executable, "-m", "commgrowth", "--version"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    times.append(perf_counter() - start)
    return done.returncode == 0 and done.stdout.startswith("growth ")


def describe_failures(run: Run) -> list[str]:
    lines, seen = [], set()
    for r in run.failures:
        key = (r.job.label, r.failure)
        if key not in seen:
            seen.add(key)
            lines.append(f"  failed [{r.failure[0]}] {r.job.label}: {r.failure[1]}")
    return lines[:20] + ([f"  ... {len(lines) - 20} more"] if len(lines) > 20 else [])


def ball_repeats(run: Run) -> tuple[int, int]:
    seen, repeats, total = set(), 0, 0
    for r in run.records:
        for key in r.job.balls:
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats, total


def result_line(correct: bool, run: Run, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def print_report(workload: str, run: Run, metrics: dict, units: dict) -> None:
    print(f"workload {workload}: {len(run.records)} jobs in {run.passes} "
          f"passes, closed loop, 1 client")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]!r} {unit}")
    failed = len(run.failures)
    print(f"  latency samples {len(run.records)}")
    print(f"  error_rate {failed / len(run.records)!r} ({failed} of {len(run.records)})")
    repeats, total = ball_repeats(run)
    if total:
        print(f"  ball requests repeating an earlier (family, dim, n): {repeats} of {total}")
    for line in describe_failures(run):
        print(line)


def end_to_end(args, package) -> int:
    # the spawns are spread over the run, between passes, so that setup_s
    # sees the same host as the jobs
    passes = pass_count(args.workload, args.seconds)
    spawns_before = Counter(j * passes // SETUP_SPAWNS for j in range(SETUP_SPAWNS))
    setup_times, setup_ok = [], []

    def spawns(i):
        for _ in range(spawns_before[i]):
            setup_ok.append(spawn_setup(setup_times))

    run = run_passes(args.workload, args.seed, package, passes, before_pass=spawns,
                     probes=True)
    setup_ok = all(setup_ok)
    latencies = sorted(r.latency for r in run.records)
    measured = {
        "wall_s": job_list_wall(run),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    # times at the reference host speed; see probe.py
    probe_ms = statistics.median(run.probes) * 1e3
    speed = probe_ms / probe.REFERENCE_MS[args.workload]
    metrics = {name: value / speed for name, value in measured.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = [r for r in run.failures if r.failure[0] == "wrong"]
    print_report(args.workload, run, metrics, END_TO_END)
    print(f"  probe {probe_ms!r} ms against {probe.REFERENCE_MS[args.workload]} ms at the "
          f"reference speed; as measured: " + ", ".join(
              f"{name} {value!r} {END_TO_END[name]}" for name, value in measured.items()))
    if not setup_ok:
        print("  python -m commgrowth --version failed")
    print(result_line(not wrong and setup_ok, run, metrics, END_TO_END))
    return 0


def reference(args, package) -> int:
    """Untraced passes for a traced run to compare against."""
    run = run_passes(args.workload, args.seed, package,
                     pass_count(args.workload, args.seconds))
    print(json.dumps({"passes": run.passes, "wall_s": job_list_wall(run),
                      "digests": [r.digest for r in run.records]}))
    return 0


def traced(args, package) -> int:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds / 2), "--trace", "0",
         "--reference"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("error: the untraced reference run failed")
    ref = json.loads(done.stdout.splitlines()[-1])
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        run = run_passes(args.workload, args.seed, package, ref["passes"],
                         tracer=tracer)
    finally:
        tracer.uninstall()
    digests = [r.digest for r in run.records]
    same = digests == ref["digests"]
    overhead = job_list_wall(run) / ref["wall_s"] - 1
    parahoric_jobs = [j for j, r in enumerate(run.records) if r.job.kind == "parahoric"]
    stdout_chars = sum(r.stdout_chars for r in run.records if r.job.argv is not None)
    metrics = tracer.metrics(run.passes, parahoric_jobs, stdout_chars, overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    print_report(args.workload + " (traced)", run, metrics, units)
    print(f"  stdout digests {'equal' if same else 'DIFFER'} to the untraced run "
          f"({len(digests)} jobs)")
    wrong = [r for r in run.failures if r.failure[0] == "wrong"]
    print(result_line(same and not wrong, run, metrics, units))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=400)
        sys.stdout.write("".join(done.stdout.splitlines(True)[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: workload {name} failed")
        result = json.loads(done.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    package = import_package()
    oracles.self_test()
    if args.workload == "all":
        return run_all(args)
    if args.workload == "series":
        workloads.series_oracle()
    if args.reference:
        return reference(args, package)
    return traced(args, package) if args.trace else end_to_end(args, package)


if __name__ == "__main__":
    sys.exit(main())
