"""The two workloads: their job lists, seeded orders and per-job checks.

* ``strata-heavy``: library calls with symbolic d, each pass in a fresh
  interpreter (``child.py``), so no process-wide memo can make later passes
  cheap.  It is the ring kernel's workload: big products in ``cohring`` and
  the only heavy use of ``divide_exact`` (the node-pair jobs).
* ``queries-mix``: a seeded stream of in-process ``cli.main`` calls, warm.
  Most are small queries, where per-query ``cli`` overhead (argparse,
  formatting) dominates and ``CohClass.from_json`` validates classes that
  come from outside.  The stream also holds the table sweep: twenty
  ``table`` calls, many short products over three generators with
  big-integer coefficients, so ``coeffring`` and the table orchestration in
  ``cli`` weigh more.  Every table runs at d = 40 and again at d = 41, so
  half of the table cells repeat an earlier cell's stratum: the property a
  per-cell memo would exploit, which ``strata-heavy`` lacks.

The seed sets the job order of ``strata-heavy`` (``BalancedOrders``) and the
draw and order of ``queries-mix``.  Draws are stratified: each category has
a fixed count per stream and cycles through its pool in a seeded order, so
two seeds give streams of nearly the same cost and differ in which queries
repeat.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

import checks

WORKLOADS = ("strata-heavy", "queries-mix")

# -- strata-heavy ----------------------------------------------------------------

# (job name, constructor, singularity kind, multiplicities)
STRATA_JOBS = (
    ("kbranch:1,1,1,1,1", "kbranch", "kbranch", (1, 1, 1, 1, 1)),
    ("kbranch:3,1,1,1,1", "kbranch", "kbranch", (3, 1, 1, 1, 1)),
    ("kbranch:2,2,1,1", "kbranch", "kbranch", (2, 2, 1, 1)),
    ("kbranch:1,1,1,1,1+omp:2", "node_pair", "kbranch", (1, 1, 1, 1, 1)),
    ("kbranch:2,2,1+omp:2", "node_pair", "kbranch", (2, 2, 1)),
    ("cusp:9+omp:2", "node_pair", "cusp", (9,)),
)
# no published form covers this node pair: its degree is pinned in pins.json
PINNED_STRATA_JOBS = ("kbranch:2,2,1+omp:2",)
# the last job of every pass extracts the degrees of the six strata
GYSIN_JOB = "gysin_degree"


class BalancedOrders:
    """Job orders for successive passes: the rows of a Williams square over
    ``n`` jobs, relabelled by a seeded permutation.  Over ``n`` passes (``2n``
    for odd ``n``) every job runs once in every position and follows every
    other job once, so what a job pays for its place in the pass (cold
    caches, a heap grown by earlier jobs) weighs the same in every run and
    a run's medians do not hinge on the orders a seed happened to draw."""

    def __init__(self, n: int, rng: random.Random):
        labels = list(range(n))
        rng.shuffle(labels)
        first, lo, hi = [0], 1, n - 1
        while len(first) < n:
            if len(first) % 2:
                first, lo = first + [lo], lo + 1
            else:
                first, hi = first + [hi], hi - 1
        rows = [[(x + i) % n for x in first] for i in range(n)]
        if n % 2:
            rows += [row[::-1] for row in rows]
        self.rows = [[labels[x] for x in row] for row in rows]
        self.passes = 0

    def next(self) -> list[int]:
        row = self.rows[self.passes % len(self.rows)]
        self.passes += 1
        return list(row)


def check_strata_pass(refs: checks.References, degrees: dict) -> dict[str, str]:
    """Check the six degrees of a pass; returns job name -> failure message."""
    failures = {}
    for name, _, _, _ in STRATA_JOBS:
        x, _, y = name.partition("+")
        try:
            got = degrees[name]
            checks.check_degree_value(got["degree"], got["aut"], refs.expected(x, y or None))
        except (checks.CheckError, KeyError) as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    return failures


# -- the table sweep (part of queries-mix) -----------------------------------------

TABLE_DEGREES = (40, 41)


def table_jobs() -> list[tuple[list[str], str, list, int]]:
    """(argv, family, cells, d) for every table job."""
    jobs = []
    for d in TABLE_DEGREES:
        for q in range(1, 8):
            cells = [(p, q) for p in range(1, 15) if q <= p]
            jobs.append((["table", "--family", "two-omp", "--p-range", "1..14",
                          "--q-range", f"{q}..{q}", "--d", str(d)], "two-omp", cells, d))
        for family, lo, hi in (("cusp-node", 2, 9), ("cusp", 2, 16), ("omp", 1, 12)):
            cells = [(p, None) for p in range(lo, hi + 1)]
            jobs.append((["table", "--family", family, "--p-range", f"{lo}..{hi}",
                          "--d", str(d)], family, cells, d))
    return jobs


def table_argvs() -> list[list[str]]:
    return [argv for argv, _, _, _ in table_jobs()]


# -- queries-mix -------------------------------------------------------------------

CHEAP_SINGLES = tuple(f"omp:{m}" for m in range(2, 8)) + tuple(f"cusp:{p}" for p in range(2, 8)) \
    + ("diagram:0,3,2,0", "diagram:0,4,2,0", "diagram:0,4,3,0", "diagram:0,5,4,0",
       "diagram:0,6,5,0")
KBRANCH_SINGLES = tuple("kbranch:" + m for m in
                        ("1,1", "2,1", "2,2", "3,1", "1,1,1", "3,2", "4,1", "2,1,1"))
OMP_PAIRS = tuple((f"omp:{a}", f"omp:{b}") for a in range(2, 8) for b in range(2, min(a, 4) + 1))
NODE_PAIRS = tuple((f"cusp:{p}", "omp:2") for p in range(2, 8)) \
    + tuple((f"kbranch:{m}", "omp:2") for m in ("1,1", "1,1,1", "2,1", "3,1"))
CLASS_SPECS = tuple((f"omp:{m}", None) for m in range(2, 7)) \
    + tuple((f"kbranch:{m}", None) for m in ("1,1", "2,1", "1,1,1", "3,1")) \
    + (("omp:3", "omp:2"), ("omp:4", "omp:2"), ("omp:5", "omp:3"), ("omp:4", "omp:4"),
       ("cusp:3", "omp:2"), ("kbranch:2,1", "omp:2"), ("kbranch:1,1", "omp:2"))
COLLISIONS = tuple((a, b) for a in range(2, 9) for b in range(2, a + 1))
SUITES = ("ring", "corollary", "appendix", "recursion", "interpolation")
NUMERIC_D = (12, 25)  # above every pool entry's validity bound

# category -> draws per stream; verify is one draw in twenty
STREAM_COUNTS = {"verify": 15, "collide": 40, "class": 40, "cheap": 70,
                 "kbranch": 35, "omp-pair": 45, "node-pair": 55}


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    kind: str          # degree, class, collide or verify
    x: str = ""
    y: str | None = None
    fmt: str = "text"
    d: int | None = None


def class_argvs() -> list[list[str]]:
    return [list(class_query(x, y).argv) for x, y in CLASS_SPECS]


def _with_pair(argv, x, y):
    argv += ["--x", x]
    if y is not None:
        argv += ["--y", y]
    return argv


def class_query(x, y) -> Query:
    return Query(tuple(_with_pair(["class"], x, y) + ["--format", "json"]), "class", x, y, "json")


def _degree_query(rng: random.Random, x: str, y: str | None) -> Query:
    if y is not None and rng.random() < 0.5:
        x, y = y, x
    fmts = ("text", "json") if x.startswith("diagram") else ("text", "json", "csv")
    fmt = rng.choice(fmts)
    d = rng.choice((None,) + NUMERIC_D)
    argv = _with_pair(["degree"], x, y)
    if d is not None:
        argv += ["--d", str(d)]
    argv += ["--format", fmt]
    return Query(tuple(argv), "degree", x, y, fmt, d)


def _cycled(rng: random.Random, pool, count):
    """``count`` draws that go through ``pool`` in seeded orders, cycle after cycle."""
    out = []
    while len(out) < count:
        cycle = list(pool)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


def query_stream(rng: random.Random) -> list[Query]:
    stream = []
    for suite in _cycled(rng, SUITES, STREAM_COUNTS["verify"]):
        stream.append(Query(("verify", "--suite", suite), "verify"))
    for a, b in _cycled(rng, COLLISIONS, STREAM_COUNTS["collide"]):
        if rng.random() < 0.5:
            a, b = b, a
        fmt = rng.choice(("text", "json"))
        stream.append(Query(("collide", "--x", f"omp:{a}", "--y", f"omp:{b}", "--format", fmt),
                            "collide", f"omp:{a}", f"omp:{b}", fmt))
    for x, y in _cycled(rng, CLASS_SPECS, STREAM_COUNTS["class"]):
        stream.append(class_query(x, y))
    for category, pool in (("cheap", [(s, None) for s in CHEAP_SINGLES]),
                           ("kbranch", [(s, None) for s in KBRANCH_SINGLES]),
                           ("omp-pair", OMP_PAIRS), ("node-pair", NODE_PAIRS)):
        for x, y in _cycled(rng, pool, STREAM_COUNTS[category]):
            stream.append(_degree_query(rng, x, y))
    return stream


def repeat_share(argvs) -> float:
    """Share of calls whose exact argument list came earlier in the stream."""
    seen, repeats = set(), 0
    for argv in argvs:
        key = tuple(argv)
        repeats += key in seen
        seen.add(key)
    return repeats / len(argvs)


# -- in-process jobs ---------------------------------------------------------------


@dataclass
class Job:
    """One in-process job: ``cli.main(argv)`` and, for ``class`` jobs,
    ``CohClass.from_json`` of the output are timed; ``check`` is not."""

    name: str
    argv: list[str]
    check: Callable[[str, object], None]  # (stdout, from_json result); raises on a mismatch
    from_json: bool = False


def _table_job(refs, argv, family, cells, d, pinned) -> Job:
    return Job(" ".join(argv), argv,
               lambda out, _: checks.check_table_output(refs, family, cells, d, out, pinned))


def _query_job(refs, q: Query, digests) -> Job:
    argv = list(q.argv)
    if q.kind == "degree":
        want = refs.expected(q.x, q.y)
        check = lambda out, _: checks.check_degree_output(q.fmt, q.d, out, want)
    elif q.kind == "class":
        want, pinned = refs.expected(q.x, q.y), digests[" ".join(argv)]
        check = lambda out, cls: checks.check_class_output(out, cls, want, pinned)
    elif q.kind == "collide":
        check = lambda out, _: checks.check_collide_output(q.fmt, int(q.x[4:]), int(q.y[4:]), out)
    else:
        check = lambda out, _: checks.check_verify_output(out)
    return Job(" ".join(argv), argv, check, from_json=q.kind == "class")


def queries_mix_jobs(rng: random.Random, refs: checks.References, pins: dict) -> list[Job]:
    """The query stream and the table sweep, in one seeded order."""
    digests = pins["digests"]
    jobs = [_query_job(refs, q, digests) for q in query_stream(rng)]
    jobs += [_table_job(refs, argv, family, cells, d, digests[" ".join(argv)])
             for argv, family, cells, d in table_jobs()]
    rng.shuffle(jobs)
    return jobs


def run_job(cli, cohring, job: Job):
    """Run one job; returns (seconds, exit code, stdout, from_json result)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.main(job.argv, out, err)
    text = out.getvalue()
    extra = cohring.CohClass.from_json(json.loads(text)) if job.from_json and code == 0 else None
    return time.perf_counter() - start, code, text, extra
