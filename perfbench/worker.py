"""One benchmark process: import qlidstone, generate the inputs, run the jobs.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It prints
``ready`` on stdout once qlidstone is imported and the inputs are generated
(the parent times that as set-up), then, unless ``--mode setup``:

* ``loop``:   issues jobs in a closed loop until ``--seconds`` have passed;
* ``replay``: runs ``--count`` jobs starting at ``--first``.

In ``loop`` mode the worker also probes the host's speed (``hostspeed.py``)
before the first job and after every ``PROBE_EVERY_S`` seconds of jobs; each
job's ``scale`` comes from the probes on either side of it, so
``latency_s * scale`` is its latency on the reference host.

With ``--trace`` the per-layer tracer is installed before the first job.  The
result (per-job records, wall time, peak memory, trace metrics) is written as
JSON to ``--result``.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import qlidstone
from hostspeed import probe, scale

HERE = Path(__file__).resolve().parent
PROBE_EVERY_S = 0.5  # seconds of jobs between two host-speed probes


def corrupt(out: bytes) -> bytes:
    """A wrong output for the fault-injection self-test."""
    return b"corrupted " + out[: len(out) // 2]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--mode", choices=("setup", "loop", "replay"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--inject-fault", type=int, default=-1)
    ap.add_argument("--result", default=None)
    args = ap.parse_args()

    expected = HERE.parent / "src" / "qlidstone"
    if Path(qlidstone.__file__).resolve().parent != expected:
        sys.exit(f"qlidstone imported from {qlidstone.__file__}, not from {expected}")
    import workloads  # after the check above: it imports qlidstone modules

    wl = workloads.make(args.workload, args.seed, args.tmp)
    print("ready", flush=True)
    if args.mode == "setup":
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    rss_prefix = None
    prefix_digest = hashlib.sha256()
    all_digest = hashlib.sha256()
    n_sched = len(wl.jobs)
    probes = []
    since_probe = 0.0
    start = time.perf_counter()
    if args.mode == "loop":
        probes.append(probe())
    i = args.first
    while True:
        if args.mode == "loop" and time.perf_counter() - start >= args.seconds:
            break
        if args.mode == "replay" and i >= args.first + args.count:
            break
        job = wl.jobs[i % n_sched]
        if tracer is not None:
            tracer.job = i
        error = None
        out = b""
        t0 = time.perf_counter()
        try:
            out = wl.run(job)
            if i == args.inject_fault:
                out = corrupt(out)
            error = wl.check(job, out)
        except Exception as exc:  # a failing job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        digest = hashlib.sha256(out).hexdigest()
        all_digest.update(digest.encode())
        if i - args.first < wl.prefix:
            prefix_digest.update(digest.encode())
        records.append({"index": i, "inputs": job, "latency_s": t1 - t0, "window": len(probes) - 1,
                        "error": error, "sha256": digest, "repeat": i >= n_sched})
        i += 1
        if i - args.first == wl.prefix:
            rss_prefix = peak_rss_mb()
        since_probe += t1 - t0
        if args.mode == "loop" and since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
    if probes and records and records[-1]["window"] == len(probes) - 1:
        probes.append(probe())
    wall = time.perf_counter() - start
    for r in records:
        w = r.pop("window")
        r["scale"] = scale(probes[w], probes[w + 1]) if probes else 1.0

    result = {
        "wall_s": wall,
        "probes_s": probes,
        "jobs": records,
        "schedule_length": n_sched,
        "prefix_jobs": min(wl.prefix, len(records)),
        "peak_rss_prefix_mb": rss_prefix if rss_prefix is not None else peak_rss_mb(),
        "peak_rss_end_mb": peak_rss_mb(),
        "digest_prefix": prefix_digest.hexdigest(),
        "digest_all": all_digest.hexdigest(),
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
