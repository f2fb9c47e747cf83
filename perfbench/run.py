"""The qlidstone benchmark: one seeded closed-loop workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload identity-suite --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters), median and tail job latency, throughput, error rate and peak
resident memory.  Times are scaled to a reference host speed, measured by
probes between the jobs and between the set-up interpreters (see
``hostspeed.py``); the raw figures are printed beside them and kept in the
run record.  ``--trace 1`` runs the same workload with the per-layer
tracer installed and prints the per-layer metrics, plus the tracing overhead
measured by replaying the first half of the traced jobs untraced in a fresh
process.  Every
job's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is run from ``src/`` of the checkout with ``QLIDSTONE_THREADS=1``,
one client and one process.  Run records (inputs and latency of every job,
digests, machine load) go to ``.perfbench/runs/``.  ``--job N`` re-runs job N
of a seed's schedule alone.  ``perfbench/selftest.py`` checks the benchmark
itself at a tiny size.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from hostspeed import probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity-suite", "expansion", "cli-session")
SETUP_RUNS = 5            # fresh interpreters timed for set-up, besides the one that runs the jobs
TAIL_BEYOND = 10          # samples that must lie beyond the reported tail percentile
PROCESS_TIMEOUT = 150.0   # seconds any one child process may take


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["QLIDSTONE_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, tmp, mode, extra=()):
    """Start a worker and return (process, seconds until it printed ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", tempfile.mkdtemp(dir=tmp), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    proc.watchdog = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    proc.watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, ready


def finish(proc):
    """Wait for a worker; the watchdog kills it after PROCESS_TIMEOUT seconds."""
    proc.wait()
    proc.watchdog.cancel()
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def run_worker(args, tmp, mode, extra=()):
    """Run a worker to the end; return (ready seconds, its result document)."""
    result = Path(tempfile.mkdtemp(dir=tmp)) / "result.json"
    proc, ready = start_worker(args, tmp, mode, [*extra, "--result", str(result)])
    finish(proc)
    return ready, json.loads(result.read_text())


def setup_samples(args, tmp):
    """Set-up seconds of fresh interpreters, and the host probes taken before and after each.

    The first interpreter, which may compile bytecode, is dropped; the probe
    after it is the one before the first kept sample.
    """
    samples, probes = [], []
    for k in range(SETUP_RUNS + 1):
        proc, ready = start_worker(args, tmp, "setup")
        finish(proc)
        if k:
            samples.append(ready)
        probes.append(probe())
    return samples, probes


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    A run too short for that percentile to lie above the median reports its maximum.
    """
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < len(xs) // 2:
        k = len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def end_to_end(args, tmp, record):
    samples, setup_probes = setup_samples(args, tmp)
    ready, res = run_worker(args, tmp, "loop", ["--seconds", str(args.seconds),
                                                "--inject-fault", str(args.inject_fault)])
    samples.append(ready)
    setup_probes.append(res["probes_s"][0])  # the worker's first probe follows its set-up
    setup = [x * scale(b, a) for x, b, a in zip(samples, setup_probes, setup_probes[1:])]
    jobs = res["jobs"]
    raw = [j["latency_s"] for j in jobs]
    lat = [j["latency_s"] * j["scale"] for j in jobs]
    failed = sum(j["error"] is not None for j in jobs)
    tail_value, tail_pct, beyond = tail(lat)
    probes = res["probes_s"]
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters; "
                                                   f"raw {statistics.median(samples):.6g} s"),
        "latency_p50_s": (statistics.median(lat), "s", f"{len(lat)} jobs; raw {statistics.median(raw):.6g} s"),
        "latency_tail_s": (tail_value, "s", f"p{tail_pct:.1f} of {len(lat)} jobs, {beyond} beyond; "
                                            f"raw {tail(raw)[0]:.6g} s"),
        "throughput_jobs_per_s": (len(jobs) / sum(lat), "jobs/s",
                                  f"{len(jobs)} jobs in {sum(lat):.3f} scaled s; raw {len(jobs) / sum(raw):.6g} "
                                  f"jobs/s, {len(probes)} probes {min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f} "
                                  f"ms/unit, {res['wall_s']:.3f} s wall"),
        "error_rate": (failed / len(jobs), "ratio", f"{failed} of {len(jobs)} jobs failed"),
        "peak_rss_mb": (res["peak_rss_prefix_mb"], "MB", f"after the first {res['prefix_jobs']} jobs "
                                                       f"({res['peak_rss_end_mb']:.1f} MB at the end)"),
    }
    record.update(setup_samples_s=samples, setup_probes_s=setup_probes, run=res, tail_percentile=tail_pct)
    return jobs, metrics, res


PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def note(name):
    """The prediction for a per-layer metric, from predictions.json."""
    p = PREDICTIONS["overrides"].get(name) or PREDICTIONS["layers"][name.split(".")[0]]
    text = f"should move {p['moves']} on {', '.join(p['on'])}" if p["moves"] else p["note"]
    if p["unchanged_on"]:
        text += f"; unchanged on {', '.join(p['unchanged_on'])}"
    return text


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def traced(args, tmp, record):
    spans = ROOT / ".perfbench" / "runs" / f"{args.workload}-seed{args.seed}-spans.json.gz"
    _, res = run_worker(args, tmp, "loop", ["--seconds", str(args.seconds), "--trace",
                                            "--spans", str(spans), "--inject-fault", str(args.inject_fault)])
    jobs = res["jobs"]
    # replay untraced, in a fresh process, the jobs of the first half of the traced run
    lat = [j["latency_s"] for j in jobs]
    count = max(1, sum(t <= args.seconds / 2 for t in itertools.accumulate(lat)))
    _, replay = run_worker(args, tmp, "replay", ["--first", "0", "--count", str(count)])
    traced_s = sum(lat[:count])
    untraced_s = sum(j["latency_s"] for j in replay["jobs"])
    metrics = {name: (value, unit_of(name), note(name)) for name, value in res.pop("trace").items()}
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio",
                                       f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s "
                                       f"for the first {count} jobs")
    record.update(run=res, replay=replay, spans_file=str(spans.relative_to(ROOT)))
    return jobs + replay["jobs"], metrics, res


def replay_one(args, tmp):
    _, res = run_worker(args, tmp, "replay", ["--first", str(args.job), "--count", "1"])
    print(json.dumps(res["jobs"][0], indent=2))
    return 0 if res["jobs"][0]["error"] is None else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--job", type=int, default=None, help="re-run job N of the schedule alone and exit")
    ap.add_argument("--inject-fault", type=int, default=-1, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "qlidstone" / "__init__.py").is_file():
        print(f"error: no qlidstone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    (work / "runs").mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work / "tmp")
    try:
        if args.job is not None:
            return replay_one(args, tmp)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "QLIDSTONE_THREADS": "1", "clients": 1, "loop": "closed",
            "loadavg_start": os.getloadavg(),
        }
        measure = traced if args.trace else end_to_end
        jobs, metrics, res = measure(args, tmp, record)
        record["loadavg_end"] = os.getloadavg()
        record["metrics"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()}
        path = work / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [j for j in jobs if j["error"] is not None]
    print(f"{args.workload}: seed {args.seed}, {len(jobs)} jobs, closed loop, 1 client, "
          f"QLIDSTONE_THREADS=1, python {record['python']}, nproc {record['nproc']}, "
          f"load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    for name, (value, unit, text) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<7} {text}")
    print(f"  output sha256, first {res['prefix_jobs']} jobs: {res['digest_prefix']}")
    print(f"  output sha256, all {len(res['jobs'])} jobs: {res['digest_all']}")
    if failed:
        first = failed[0]
        print(f"  FIRST FAILURE job {first['index']}: {first['error']}; inputs {json.dumps(first['inputs'])}")
    print(f"  record: {path.relative_to(ROOT)}")
    reported = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items() if k != "error_rate"}
    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
