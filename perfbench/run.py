#!/usr/bin/env python3
"""risem benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload linear-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is the risem package under src/
of the same checkout, called in-process through risem.cli.main([...]) on
scenario files this script writes from the seed. Jobs run one after another
in whole rounds (one job per slot of the workload, in a seeded order); the
round count is fixed per workload and scales with --seconds (see
workloads.ROUNDS). Every job's output is checked against the independent
reference in oracle.py, outside the timed region.

Before and after every job and every set-up measurement, also outside the
timed region, a fixed probe (calib.py) measures the machine's speed. Each
time the run reports is divided by the geometric mean of the two speed
factors around it, so the metrics are seconds at the reference machine's
speed and do not drift with the shared machine's load; the run also prints
the raw wall-clock figures and the factors.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (see tracer.py) plus the
tracing overhead. The last line of standard output is the result object.
"""
from __future__ import annotations

import os
import sys

# Thread caps must be set before NumPy (and its BLAS) is first imported.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
# set-up measurements before the first round, then one after every round, so
# that their median covers the same stretch of time as the jobs
SETUP_PROBES_FIRST = 3
PROBE_TIMEOUT_S = 60
# stop starting rounds past this wall time, so a run always ends within 180 s
WALL_LIMIT_S = 140


def _import_cli():
    """Import risem.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import risem.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"risem imported from {cli.__file__}, not from {SRC}")
    return cli


def _run_quiet(cli, argv):
    """Call cli.main(argv) with stdout/stderr captured; returns (rc, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:           # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2, out.getvalue(), err.getvalue()
    except Exception as exc:            # noqa: BLE001 - a raising job counts as failed
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def run_job(cli, job, rng):
    """Time one job from the main() call until it returns (its output file is
    closed by then), then check and delete its output; returns (seconds, Verdict)."""
    import check
    start = time.perf_counter()
    rc, stdout, err = _run_quiet(cli, job.argv)
    elapsed = time.perf_counter() - start
    if rc == 0:
        verdict = check.check_job(job, rng, stdout)
    else:
        verdict = check.Verdict(False, float("inf"), 0, 0,
                                f"{job.slot}: exit {rc} {err.strip()[:200]}")
    if os.path.isdir(job.out):
        shutil.rmtree(job.out)
    elif os.path.exists(job.out):
        os.remove(job.out)
    return elapsed, verdict


def setup_probe(workdir: str) -> int:
    """Child process: import the CLI, run the warm-up jobs, say 'ready'."""
    os.chdir(workdir)
    cli = _import_cli()
    with open("warm/jobs.json", encoding="utf-8") as fh:
        jobs = json.load(fh)
    for argv in jobs:
        rc, _, err = _run_quiet(cli, argv)
        if rc != 0:
            print(f"warm-up job {argv} failed: {err}", file=sys.stderr)
            return 1
    # CLOCK_MONOTONIC, which time.monotonic reads on Linux, is system-wide, so
    # the parent can subtract its own reading taken before the process started
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


def measure_setup(workdir: str) -> float:
    """Wall time from the start of a fresh process to its 'ready'."""
    start = time.monotonic()
    # run() kills the child and waits for it if the timeout expires
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           workdir], stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    word, _, ready = proc.stdout.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return float(ready) - start


class SpeedClock:
    """Brackets timed work with speed probes (calib.py).

    at_reference(seconds) takes a reading after the work and divides its
    wall time by the geometric mean of that reading and the one before it.
    """

    def __init__(self):
        import calib
        self.probe = calib.Probe()
        for _ in range(5):          # warm the probe's own first-call costs
            self.probe.sample()
        self.readings = [self.probe.sample()]
        self.parts = [self.probe.last]

    def at_reference(self, seconds: float) -> tuple[float, float]:
        """(speed factor, seconds at reference speed) of work just finished."""
        self.readings.append(self.probe.sample())
        self.parts.append(self.probe.last)
        factor = math.sqrt(self.readings[-2] * self.readings[-1])
        return factor, seconds / factor


def machine_record() -> dict:
    import numpy as np
    from importlib import metadata
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": NPROC, "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas, "machine": platform.machine(),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"unknown ({ref})"


def round_throughput(records, key="ref_seconds") -> float:
    """Median over rounds of rows written per second of job time.

    Every round runs the same slots, so each round's throughput estimates the
    same quantity; the median keeps a burst of load from other tenants of the
    machine, which slows one round, out of the result."""
    rows, secs = {}, {}
    for r in records:
        rows[r["round"]] = rows.get(r["round"], 0) + r["rows"]
        secs[r["round"]] = secs.get(r["round"], 0.0) + r[key]
    return statistics.median(rows[k] / secs[k] for k in rows)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="risem benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "risem", "cli.py")):
        print(f"error: no program at {SRC}/risem; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.setup_probe)

    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    wall_start = time.perf_counter()
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)

    t0 = time.perf_counter()
    variants = workloads.generate(args.workload, args.seed, workdir)
    warm = workloads.warmup_inputs(args.workload)
    with open("warm/jobs.json", "w", encoding="utf-8") as fh:
        json.dump(warm, fh)
    generate_s = time.perf_counter() - t0

    clock = SpeedClock()
    setup_raw, setup_times = [], []

    def set_up():
        setup_raw.append(measure_setup(workdir))
        setup_times.append(clock.at_reference(setup_raw[-1])[1])

    for _ in range(SETUP_PROBES_FIRST):
        set_up()

    cli = _import_cli()
    for job_argv in warm:
        rc, _, err = _run_quiet(cli, job_argv)
        if rc != 0:
            print(f"error: warm-up job {job_argv} failed: {err}", file=sys.stderr)
            return 1

    import numpy as np
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer() if args.trace else None
    records = []        # one dict per job
    failures = []
    rounds = workloads.rounds_for(args.workload, args.seconds, 2 if tracer else 1)
    round_index = 0
    timed = 0.0
    while round_index < rounds:
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            print(f"warning: wall-time guard hit after {round_index} of {rounds} rounds")
            break
        jobs = variants[round_index % workloads.VARIANTS]
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        for pos in workloads.round_order(args.seed, args.workload, round_index, len(jobs)):
            job = jobs[pos]
            job_id = len(records)
            if traced:
                tracer.job = job_id
            elapsed, verdict = run_job(cli, job, np.random.default_rng([args.seed, round_index, pos]))
            timed += elapsed
            if traced:
                tracer.job = -1
            # the reading after this job's check is the one before the next job
            speed, ref_seconds = clock.at_reference(elapsed)
            if not verdict.ok:
                failures.append(verdict.note)
            records.append({"slot": job.slot, "round": round_index, "traced": traced,
                            "seconds": elapsed, "speed": speed, "ref_seconds": ref_seconds,
                            "rows": verdict.rows, "bytes": verdict.bytes,
                            "ok": verdict.ok, "deviation": verdict.deviation,
                            "where": verdict.note})
        if traced:
            tracer.uninstall()
        set_up()
        round_index += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(records)
    failed = len(failures)
    machine = machine_record()
    # failed jobs are counted in `failed`; their deviation may be infinite
    passed = [r for r in records if r["ok"]] or [{"deviation": 0.0, "slot": "-", "where": ""}]
    worst = max(passed, key=lambda r: r["deviation"])

    untraced = [r for r in records if not r["traced"]]
    times = [r["ref_seconds"] for r in untraced]
    points_per_s = round_throughput(untraced)
    tail_value, tail_pct = tail(times)
    raw_times = [r["seconds"] for r in untraced]

    if tracer is None:
        metrics = {
            "points_per_s": (points_per_s, "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_value, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        spans_by_name = None
    else:
        metrics, spans_by_name = layer_metrics(tracer, records, points_per_s)

    print(json.dumps({"machine": machine}))
    print(f"workload {args.workload} seed {args.seed}: {round_index} rounds, "
          f"{attempted} jobs, {failed} failed, timed {timed:.3f} s, "
          f"generate {generate_s:.3f} s, wall {time.perf_counter() - wall_start:.3f} s")
    print(f"job_tail_s is p{tail_pct:.1f} of {len(times)} timed jobs "
          f"({min(10, len(times) - 1)} above it)")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)}")
    print(f"speed factor: median {statistics.median(clock.readings):.3f}, "
          f"range {min(clock.readings):.3f} to {max(clock.readings):.3f} "
          f"over {len(clock.readings)} probes")
    if raw_times:
        print(f"raw wall clock: points_per_s {round_throughput(untraced, 'seconds'):.1f}, "
              f"job_p50_s {statistics.median(raw_times):.4f}, "
              f"job_tail_s {tail(raw_times)[0]:.4f}, setup_s {statistics.median(setup_raw):.4f}")
    print(f"check: worst deviation {worst['deviation']:.3g} of its limit "
          f"({worst['slot']}: {worst['where']})")
    slots = {}
    for r in untraced:
        slots.setdefault(r["slot"], []).append(r["ref_seconds"])
    for slot, values in slots.items():
        print(f"  {slot:16s} median {statistics.median(values):.4f} s over {len(values)}")
    for note in failures[:20]:
        print(f"FAILED {note}")
    if tracer is not None:
        if tracer.absent:
            print(f"absent spans (wrapped names the program no longer has): "
                  f"{', '.join(tracer.absent)}")
        tracer.write(os.path.join(workdir, "spans.tsv"))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "setup_samples_s": setup_times,
                   "setup_raw_s": setup_raw, "speed_readings": clock.readings,
                   "speed_parts": clock.parts, "jobs": records,
                   "spans_by_name": spans_by_name, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, records, untraced_pps):
    """Per-layer metrics, each per traced job, plus the tracing overhead;
    also the total, self time and calls of every wrapped name."""
    traced_ids = {i: r["speed"] for i, r in enumerate(records) if r["traced"]}
    per_layer, per_name = tracer.summary(traced_ids)
    jobs = len(traced_ids)
    empty = {"total_s": 0.0, "self_s": 0.0, "calls": 0, "count": 0}

    def get(layer, key):
        return per_layer.get(layer, empty)[key] / jobs

    def rate(layer):
        rec = per_layer.get(layer, empty)
        return rec["count"] / rec["total_s"] if rec["total_s"] > 0 else 0.0

    traced = [records[i] for i in sorted(traced_ids)]
    traced_pps = round_throughput(traced)
    reproduce_bytes = sum(r["bytes"] for r in traced if r["slot"].startswith("fig"))
    worst = max((r["deviation"] for r in records if r["ok"]), default=0.0)
    return {
        "scenario.parse_s": (get("scenario.parse", "total_s"), "s"),
        "scenario.sweep_self_s": (get("scenario.sweep", "self_s"), "s"),
        "scenario.serialize_s": (get("scenario.serialize", "total_s"), "s"),
        "scenario.serialize_bytes": (get("scenario.serialize", "count"), "bytes"),
        "config.configure_s": (get("config.configure", "total_s"), "s"),
        "config.reshape_s": (get("config.reshape", "total_s"), "s"),
        "config.reshape_calls": (get("config.reshape", "calls"), "count"),
        "config.mc_s": (get("config.mc", "total_s"), "s"),
        "config.expect_s": (get("config.expect", "total_s"), "s"),
        "linear.eval_s": (get("linear.eval", "total_s"), "s"),
        "linear.eval_calls": (get("linear.eval", "calls"), "count"),
        "linear.terms": (get("linear.eval", "count"), "count"),
        "linear.terms_per_s": (rate("linear.eval"), "1/s"),
        "linear.mimo_s": (get("linear.mimo", "total_s"), "s"),
        "surface.eval_s": (get("surface.eval", "total_s"), "s"),
        "surface.eval_calls": (get("surface.eval", "calls"), "count"),
        "surface.terms_per_s": (rate("surface.eval"), "1/s"),
        "patch.eval_s": (get("patch.eval", "total_s"), "s"),
        "patch.eval_calls": (get("patch.eval", "calls"), "count"),
        "presets.self_s": (get("presets.reproduce", "self_s"), "s"),
        "presets.bytes_written": (reproduce_bytes / jobs, "bytes"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "trace.points_per_s": (traced_pps, "1/s"),
        "trace.overhead_frac": (1.0 - traced_pps / untraced_pps, "frac"),
        "trace.absent_spans": (len(tracer.absent), "count"),
        "check.worst_dev": (worst, "frac"),
    }, per_name


if __name__ == "__main__":
    sys.exit(main())
