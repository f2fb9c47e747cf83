"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json:

* a one-second run with ``--trace 0`` and one with ``--trace 1`` pass their
  checks and emit exactly the end-to-end and per-layer metric names of
  BENCHMARK.json, with their units;
* a run whose first job's output is corrupted reports that job as failed;
* the first job's real output passes its check and a well-formed output with
  a wrong result does not.

It also checks that predictions.json covers every per-layer metric.  Exits 0
when everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace), *extra],
                         capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return out.returncode, None, out.stdout + out.stderr
    return out.returncode, json.loads(lines[-1]), out.stdout


def wrong_result(name, job, out):
    """A well-formed output of ``job`` whose result is wrong."""
    if name == "identity-suite":
        return out.replace(b'"pass": true', b'"pass": false', 1)
    if name == "expansion":
        doc = json.loads(out)
        if job["kind"] == "refine":
            doc["max_data"] = 1.0
        else:
            doc["report"]["residual"] = 1.0
        return json.dumps(doc).encode()
    if job["kind"].startswith("guichard"):
        return out.replace(b'"verified": true', b'"verified": false').replace(b"verified: True", b"verified: False")
    if job["format"] == "json":  # a table job: drop its last row
        doc = json.loads(out)
        doc["rows"].pop()
        return json.dumps(doc).encode()
    lines = out.decode().splitlines(keepends=True)
    if job["format"] == "csv":
        return "".join(lines[:-1]).encode()
    drop = lines.index("rows:\n") + 1
    return "".join(lines[:drop] + lines[drop + 1:]).encode()


def check_checks(names):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tempfile
    import workloads

    work = ROOT / ".perfbench" / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name in names:
            wl = workloads.make(name, 7, tmp)
            if name == "cli-session":
                picks = [next(j for j in wl.jobs if j["rows"] is not None and j["format"] == f)
                         for f in ("json", "csv", "text")]
                picks.append(next(j for j in wl.jobs if j["kind"].startswith("guichard")))
            elif name == "expansion":
                picks = [wl.jobs[0], next(j for j in wl.jobs if j["kind"] == "refine")]
            else:
                picks = [wl.jobs[0]]
            for job in picks:
                out = wl.run(job)
                label = f"{name}: {job['kind']} job ({job.get('format', 'json')})"
                expect(wl.check(job, out) is None, f"{label} passes its check")
                try:
                    caught = wl.check(job, wrong_result(name, job, out)) is not None
                except (ValueError, KeyError, IndexError, TypeError):
                    caught = True
                expect(caught, f"{label} with a wrong result fails its check")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            rc, doc, text = bench(name, trace)
            expect(doc is not None, f"{name} --trace {trace}: exit {rc} with a result line")
            if doc is None:
                print(text)
                continue
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(got == want, f"{name} --trace {trace}: emits every {key} metric with its unit"
                                + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                                                          f"extra {sorted(set(got) - set(want))})"))
            expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
                   f"{name} --trace {trace}: all {doc['attempted']} jobs correct")
    for name in names:
        rc, doc, text = bench(name, 0, "--inject-fault", "0")
        expect(doc is not None and not doc["correct"] and doc["failed"] >= 1
               and "FIRST FAILURE job 0:" in text, f"{name}: an injected wrong output counts as a failure")
    predictions = json.loads((HERE / "predictions.json").read_text())
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in predictions["overrides"] and m["name"].split(".")[0] not in predictions["layers"]]
    expect(not missing, f"predictions.json covers every per-layer metric {missing or ''}")
    check_checks(names)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
