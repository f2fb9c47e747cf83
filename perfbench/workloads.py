"""Seeded job schedules for the three workloads, with per-job execution and checks.

A workload is a fixed, seeded list of jobs.  The closed loop in ``worker.py``
issues them one after another from a single client; if a run gets through
the whole list it starts again from the top (the inputs then repeat and the
program's caches are warm, which the run record notes).

Jobs come in blocks with a fixed mix of job classes, so the mix of cheap and
expensive jobs in a run is the same for every seed and the seed only moves
the concrete inputs (``s``, ``w``, orders, kinds, formats); inputs with a
few possible values are dealt from decks (``Workload.deal``), so each value
comes up equally often over a run whatever the seed.  Where job costs
span an order of magnitude (identity-suite, expansion) a block is laid out
from its median job outwards, alternating cheaper and dearer ones, so a run
that stops inside a block still has as many jobs below its median as above
and the median latency does not jump with the number of jobs a run completes.

Each job returns the bytes it emitted; ``check`` parses those bytes and
returns ``None`` when they are correct or a one-line reason when not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

from qlidstone import cli, lidstone, qspecial
from qlidstone.qcore import QContext
from qlidstone.qpolys import registry_names
from qlidstone.symlaurent import SymPoly

def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Workload:
    """A seeded job list plus how to run and check one job.

    ``prefix`` is the number of leading jobs over which the output digest and
    the peak resident memory are read, so both stay independent of how many
    jobs a run gets through.
    """

    name = ""
    prefix = 1

    def __init__(self, seed: int, tmp: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tmp = tmp
        self.decks = {}
        self.jobs = self.schedule()

    def deal(self, key, values):
        """The next value of the deck ``key``: each of ``values`` once, in seeded order, then again."""
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def schedule(self) -> list:
        raise NotImplementedError

    def run(self, job: dict) -> bytes:
        raise NotImplementedError

    def check(self, job: dict, out: bytes):
        raise NotImplementedError

    def run_cli(self, argv: list) -> bytes:
        """Run one request through ``cli.main`` and return the bytes it wrote."""
        path = os.path.join(self.tmp, "out")
        try:
            rc = cli.main(argv + ["--output", path])
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            rc = exc.code
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        with open(path, "rb") as fh:
            out = fh.read()
        os.remove(path)
        return out


# -- identity-suite -------------------------------------------------------------


class IdentitySuite(Workload):
    """Cold exact algebra: ``identities --all`` at a distinct ``s`` per job.

    ``s`` runs through every reduced p/q with 4 <= p < q and 16 <= q <= 31
    (numerator of 3 to 5 bits, denominator of 5), so the coefficient height
    band is fixed and no job finds the families of an earlier one in the
    caches.  Each block has one job at each order 10..16.
    """

    name = "identity-suite"
    prefix = 7
    ORDERS = (13, 10, 16, 11, 15, 12, 14)  # 10..16, median first, then alternating

    def schedule(self):
        pool = [Fraction(p, q) for q in range(16, 32) for p in range(4, q) if math.gcd(p, q) == 1]
        self.rng.shuffle(pool)
        jobs = []
        while len(jobs) < len(pool):
            for n in self.ORDERS[: len(pool) - len(jobs)]:
                s = _rat(pool[len(jobs)])
                argv = ["identities", "--all", "--s", s, "--order", str(n)]
                jobs.append({"kind": "identities", "s": s, "order": n, "argv": argv})
        return jobs

    def run(self, job):
        return self.run_cli(job["argv"])

    def check(self, job, out):
        doc = json.loads(out)
        results = doc["results"]
        if len(results) != len(registry_names()):
            return f"{len(results)} results, expected {len(registry_names())}"
        failed = [r["name"] for r in results if r["pass"] is not True]
        if failed or doc["pass"] is not True:
            return f"identities failed: {failed}"
        return None


# -- expansion ------------------------------------------------------------------


class Expansion(Workload):
    """Boundary data, exact zero refinement and float residuals, as library calls.

    Each block holds nine expansion jobs with K in 8..14 (K = 12 and K = 14
    twice), each of kind (a) bernoulli of a cosine or sine stream or (b) euler
    of the even q-exponential, dealt from a deck like ``w``, and one
    refinement job (c), the two zero kinds taking turns.  Kinds (a) and (b)
    use a distinct ``s`` in [1/4, 3/4] per job (denominators of 5 bits) and
    ``w`` in [1/10, 2/5]; the denominator of ``s`` sets most of a job's cost,
    so the jobs of each K take it from a deck of their own.  Kind (c) refines
    the first zero at ``s = n/(n+1)``, n in 16..24, and expands the 40-term
    stream there at K = 3.  Refinement jobs are the dearest.  With about 50
    jobs in a 30 s run, the doubled K = 12 and K = 14 jobs put the median and
    the 11th-largest latency (the tail percentile) inside a group of like
    jobs rather than on the edge between two.
    """

    name = "expansion"
    prefix = 10
    S_POOL = tuple(Fraction(p, q) for q in range(16, 32) for p in range(q)
                   if math.gcd(p, q) == 1 and Fraction(1, 4) <= Fraction(p, q) <= Fraction(3, 4))
    W_POOL = tuple(sorted({Fraction(k, 40) for k in range(4, 17)}))
    STREAMS = (("bernoulli", "C"), ("bernoulli", "S"), ("euler", "E_even"))
    ZEROS = (("Sq_eta", "S", "bernoulli"), ("Cq_eta", "C", "euler"))
    BLOCK = (12, 8, None, 12, 9, 14, 10, 14, 11, 13)  # K of each job; None is a refinement job

    def schedule(self):
        rng = self.rng
        by_q = {}  # the unused s of the pool, by denominator
        for s in self.S_POOL:
            by_q.setdefault(s.denominator, []).append(s)
        for group in by_q.values():
            rng.shuffle(group)
        left = len(self.S_POOL)
        jobs = []
        turn = rng.randrange(2)
        ns = []
        while left >= len(self.BLOCK) - 1:
            for K in self.BLOCK:
                if K is None:
                    zero, stream, engine = self.ZEROS[turn]
                    turn = 1 - turn
                    if not ns:  # each n once before any repeats: a repeated s finds its caches warm
                        ns = rng.sample(range(16, 25), 9)
                    n = ns.pop()
                    jobs.append({"kind": "refine", "zero": zero, "stream": stream, "engine": engine,
                                 "s": f"{n}/{n + 1}", "steps": 60, "n_terms": 40, "K": 3})
                else:
                    q = self.deal(("q", K), tuple(by_q))
                    while not by_q[q]:  # every s with that denominator is used
                        q = self.deal(("q", K), tuple(by_q))
                    left -= 1
                    engine, stream = self.deal("stream", self.STREAMS)
                    jobs.append({"kind": engine, "stream": stream, "s": _rat(by_q[q].pop()),
                                 "w": _rat(self.deal("w", self.W_POOL)), "K": K})
        return jobs

    def run(self, job):
        ctx = QContext(Fraction(job["s"]))
        if job["kind"] == "refine":
            w = qspecial.refine_zero_exact(ctx, job["zero"], steps=job["steps"])
            f = lidstone.trig_rho_stream(ctx, job["stream"], w, job["n_terms"])
            engine = getattr(lidstone, f"{job['engine']}_expansion")
            report = engine(ctx, f, job["K"])
            data = report.data_at_zero + report.data_at_eta
            payload = {
                "job": job,
                "w": w,
                "max_data": max(abs(float(v)) for v in data),
                # the residual against the zero polynomial is the sup of |f| on the grid
                "function_norm": lidstone.residual_on_grid(ctx, f, SymPoly.zero(), lidstone.DEFAULT_GRID),
                "report": report,
            }
        else:
            f = lidstone.trig_rho_stream(ctx, job["stream"], Fraction(job["w"]), 2 * job["K"] + 2)
            engine = getattr(lidstone, f"{job['kind']}_expansion")
            payload = {"job": job, "report": engine(ctx, f, job["K"])}
        # The exact data of the refinement jobs reach ~13 kbit, past CPython's
        # default 4300-digit limit on int -> str; lift it for this rendering only.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return cli.render_report(payload, "json").encode()
        finally:
            sys.set_int_max_str_digits(limit)

    def check(self, job, out):
        doc = json.loads(out)
        report = doc["report"]
        if report["K"] != job["K"]:
            return f"report K {report['K']} != {job['K']}"
        if job["kind"] == "refine":
            if not doc["max_data"] < 1e-9:
                return f"max boundary datum {doc['max_data']} >= 1e-9"
            if not doc["function_norm"] > 1e-2:
                return f"function norm {doc['function_norm']} <= 1e-2"
            if "warning" not in report["status"]:
                return f"status without warning: {report['status']!r}"
            return None
        if not report["residual"] < 1e-10:
            return f"grid residual {report['residual']} >= 1e-10"
        return None


# -- cli-session ----------------------------------------------------------------


class CliSession(Workload):
    """A warm session of small mixed requests through ``cli.main``.

    ``s`` comes from four values only, so later requests hit the caches that
    earlier ones filled.  Each block holds one request of every class.  Every
    parameter is dealt from a shuffled deck that holds each of its values
    once, so over a run each value comes up equally often whatever the seed;
    the seed orders the decks and writes the coefficients of the stream and
    guichard files, a few files for every length.
    """

    name = "cli-session"
    prefix = 27
    S_VALUES = ("1/2", "3/5", "2/3", "2/5")
    Q_FLOATS = ("0.1", "0.25", "0.4", "0.5")
    ALL_FORMATS = ("json", "csv", "text")
    NO_CSV = ("json", "text")
    CLASSES = ("numbers", "polys", "lidstone-basis", "identities", "zeros",
               "expand-poly", "expand-stream", "guichard", "guichard-growth")
    STREAM_LENGTHS = range(10, 17)
    COEFF_LENGTHS = range(4, 10)
    FILES_PER_LENGTH = 3
    BLOCKS = 600

    def schedule(self):
        rng = self.rng
        streams = [self._write(f"stream{n}-{i}.json", self._stream_coeffs(rng, n))
                   for n in self.STREAM_LENGTHS for i in range(self.FILES_PER_LENGTH)]
        coeffs = [self._write(f"coeffs{n}-{i}.json", self._guichard_coeffs(rng, n))
                  for n in self.COEFF_LENGTHS for i in range(self.FILES_PER_LENGTH)]
        deal = self.deal
        names = registry_names()
        jobs = []
        for _ in range(self.BLOCKS):
            block = []
            for cls in self.CLASSES:
                s = deal((cls, "s"), self.S_VALUES)
                fmt = deal((cls, "fmt"), self.NO_CSV)
                rows = None
                if cls == "numbers":
                    n = deal("numbers-order", range(6, 13))
                    fmt = deal("numbers-fmt", self.ALL_FORMATS)
                    argv = ["numbers", "--kind", deal("numbers-kind", ("beta", "suslov-b", "suslov-e", "im")),
                            "--s", s, "--order", str(n)]
                    rows = n + 1
                elif cls == "polys":
                    n = deal("polys-order", range(4, 11))
                    fmt = deal("polys-fmt", self.ALL_FORMATS)
                    family = deal("polys-family", ("suslov-b", "beta", "suslov-e", "tilde-e", "rho", "hermite",
                                                   "monomial"))
                    argv = ["polys", "--family", family, "--s", s, "--order", str(n)]
                    rows = n + 1
                elif cls == "lidstone-basis":
                    k = deal("basis-K", range(2, 7))
                    fmt = deal("basis-fmt", self.ALL_FORMATS)
                    argv = ["lidstone-basis", "--kind", deal("basis-kind", ("A", "B", "M", "Mtilde")),
                            "--K", str(k), "--s", s]
                    rows = k + 1
                elif cls == "identities":
                    argv = ["identities", "--name", deal("identity-name", names), "--s", s,
                            "--order", str(deal("identity-order", range(6, 11)))]
                elif cls == "zeros":
                    argv = ["zeros", "--kind", deal("zeros-kind", ("sq-eta", "cq-eta", "sinq")),
                            "--qfloat", deal("zeros-q", self.Q_FLOATS)]
                elif cls == "expand-poly":
                    n = deal("poly-n", range(2, 9))
                    if deal("poly-fn", ("mono", "phi")) == "mono":
                        fn = f"mono:{n}"
                    else:
                        fn = f"phi:{n}:{deal('poly-a', ('1/2', '1/3', '2/3'))}"
                    k = (n + 1) // 2
                    argv = ["expand", "--kind", deal("poly-kind", ("bernoulli", "euler")), "--fn", fn,
                            "--K", str(k), "--s", s]
                    rows = k + 1
                elif cls == "expand-stream":
                    k = deal("stream-K", range(2, 6))
                    fmt = deal("stream-fmt", self.ALL_FORMATS)
                    argv = ["expand", "--kind", deal("stream-kind", ("bernoulli", "euler")),
                            "--fn", "stream:@" + deal("stream-file", streams), "--K", str(k), "--s", s]
                    rows = k + 1
                else:
                    argv = ["guichard", "--preset", deal((cls, "preset"), ("ones", "alsalam-half")),
                            "--p", str(deal((cls, "p"), range(2, 6))), "--coeffs", deal((cls, "file"), coeffs)]
                    if cls == "guichard-growth":
                        argv += ["--growth-order", str(deal("growth-order", range(10, 21)))]
                block.append({"kind": cls, "argv": argv + ["--format", fmt], "format": fmt, "rows": rows})
            rng.shuffle(block)
            jobs.extend(block)
        return jobs

    def _write(self, name, values) -> str:
        path = os.path.join(self.tmp, name)
        with open(path, "w") as fh:
            json.dump(values, fh)
        return path

    @staticmethod
    def _stream_coeffs(rng, n):
        # rho coefficients with geometric decay, so the stream is entire
        return [_rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9) * 3 ** k)) for k in range(n)]

    @staticmethod
    def _guichard_coeffs(rng, n):
        return [_rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n)]

    def run(self, job):
        return self.run_cli(job["argv"])

    def check(self, job, out):
        command = job["argv"][0]
        text = out.decode()
        fmt = job["format"]
        if fmt == "csv":
            table = list(csv.reader(io.StringIO(text)))
            header, body = table[0], table[1:]
            if header[0] not in ("n", "k"):
                return f"unexpected csv header {header}"
            if len(body) != job["rows"] or any(len(r) != len(header) for r in body):
                return f"csv has {len(body)} rows, expected {job['rows']} of width {len(header)}"
            return None
        if fmt == "text":
            lines = text.splitlines()
            if not lines or lines[0] != "schema_version: 1" or f"command: {command}" not in lines:
                return "text output lacks its header lines"
            if job["kind"].startswith("guichard") and "verified: True" not in lines:
                return "guichard not verified"
            if job["kind"] == "expand-poly" and "residual: exact-zero" not in lines:
                return "polynomial expansion residual is not exact-zero"
            if job["kind"] == "identities" and "pass: True" not in lines:
                return "identity failed"
            if job["rows"] is not None:
                cols, cells = _text_list(lines, "columns:", "  - "), _text_list(lines, "rows:", "    - ")
                if cells != job["rows"] * cols:
                    return f"text table has {cells} cells, expected {job['rows']} rows of {cols}"
            return None
        doc = json.loads(text)
        if doc["command"] != command:
            return f"command {doc['command']!r} != {command!r}"
        if job["rows"] is not None and len(doc["rows"]) != job["rows"]:
            return f"{len(doc['rows'])} rows, expected {job['rows']}"
        if job["kind"].startswith("guichard") and doc["verified"] is not True:
            return "guichard not verified"
        if job["kind"] == "expand-poly" and doc["residual"] != "exact-zero":
            return f"polynomial expansion residual {doc['residual']!r}"
        if job["kind"] == "identities" and doc["pass"] is not True:
            return "identity failed"
        if job["kind"] == "zeros" and not doc["report"]["value"] > 0:
            return f"zero {doc['report']['value']} is not positive"
        return None


def _text_list(lines: list, key: str, item: str) -> int:
    """Number of ``item``-indented lines under the top-level ``key`` line of a text report."""
    count = 0
    for line in lines[lines.index(key) + 1:]:
        if not line.startswith(item):
            break
        count += 1
    return count


def make(name: str, seed: int, tmp: str) -> Workload:
    cls = {w.name: w for w in (IdentitySuite, Expansion, CliSession)}[name]
    return cls(seed, tmp)
