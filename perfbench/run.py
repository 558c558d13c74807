"""Benchmark of bistrata: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload strata-heavy|queries-mix \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the unpatched program and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics
from a separate traced section (and the tracer's overhead against untraced
passes of the same run).  Every job's output is checked (``checks.py``).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exit code
2 without a result means the checkout has no ``src/bistrata`` to measure.

Load comes from one process with one worker thread; ``STRATA_THREADS`` is
removed from the environment so that the default path is measured.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracer_module
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("bistrata", "bistrata.cli", "bistrata.verify", "bistrata.degrees",
           "bistrata.strata", "bistrata.divisors", "bistrata.collide",
           "bistrata.cohring", "bistrata.coeffring")
SETUP_LAUNCHES = 15
IMPORTTIME_LAUNCHES = 5
TRACED_PASSES = 2
MIN_BEYOND_TAIL = 10  # samples the run must have beyond job_ms_p95
DEADLINE_S = 150  # every run ends well inside the 180 s a run may take


def log(*parts):
    print(*parts, flush=True)


def median(values):
    return statistics.median(values)


def upper_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STRATA_THREADS", None)
    return env


# -- run record ------------------------------------------------------------------------


def calibration_s() -> float:
    """A fixed pure-Python loop, timed: a diagnostic of machine speed only."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bistrata").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# -- set-up time ---------------------------------------------------------------------

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import bistrata.cli\n"
    "print(time.perf_counter() - start)\n"
)


def setup_times(launches: int) -> list[float]:
    """Seconds to ``import bistrata.cli`` in fresh interpreters, after one
    unmeasured launch."""
    out = []
    for i in range(launches + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        if i:
            out.append(float(done.stdout.strip()))
    return out


def import_times(launches: int) -> dict[str, float]:
    """Median self import time of each module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    cumulative = []
    for _ in range(launches):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE, str(SRC)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            name = parts[2]
            if name in samples:
                samples[name].append(int(parts[0]) / 1e6)
                if name == "bistrata.cli":  # everything ``import bistrata.cli`` pulls in
                    cumulative.append(int(parts[1]) / 1e6)
    out = {f"import.{m}.self_s": median(v) for m, v in samples.items()}
    out["import.bistrata.cli.cumulative_s"] = median(cumulative)
    return out


# -- workloads ---------------------------------------------------------------------------


class Run:
    """One benchmark run of one workload; counts attempted and failed jobs."""

    def __init__(self, args):
        from bistrata import cli, cohring, degrees

        self.args = args
        self.workload = args.workload
        self.rng = random.Random(f"{args.workload}/{args.seed}")
        self.cli, self.cohring = cli, cohring
        self.pins = checks.load_pins()
        self.refs = checks.References(degrees, self.pins)
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self.extra: dict = {}
        self.child_rss_kb = 0  # peak RSS of any strata-heavy pass child
        self.jobs = []
        self.repeat_frac = 0.0
        self.orders = None
        if self.workload == "queries-mix":
            self.jobs = workloads.queries_mix_jobs(self.rng, self.refs, self.pins)
            self.repeat_frac = workloads.repeat_share([job.argv for job in self.jobs])
        else:
            self.orders = workloads.BalancedOrders(len(workloads.STRATA_JOBS), self.rng)

    def fail(self, job: str, message: str):
        self.failures.append(f"{job}: {message}")

    # A pass returns (pass seconds, per-job seconds, tracer totals or None),
    # or None when a strata-heavy child failed.

    def strata_pass(self, order, trace: bool):
        names = [workloads.STRATA_JOBS[i][0] for i in order] + [workloads.GYSIN_JOB]
        self.attempted += len(names)
        cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
               "--order", ",".join(map(str, order)), "--trace", str(int(trace))]
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            for name in names:
                self.fail(name, f"child exited {done.returncode}: {done.stderr[-300:]}")
            return None
        report = json.loads(done.stdout.splitlines()[-1])
        for name, message in workloads.check_strata_pass(self.refs, report["degrees"]).items():
            self.fail(name, message)
        self.child_rss_kb = max(self.child_rss_kb, report["peak_rss_kb"])
        if trace:
            self.problems.extend(report["problems"])
            self.spans.extend(report["spans"])
        return report["pass_s"], list(report["job_s"].values()), report.get("totals")

    def in_process_pass(self, jobs, tracer=None):
        results = []
        start = time.perf_counter()
        for job in jobs:
            try:
                if tracer is None:
                    results.append((job,) + workloads.run_job(self.cli, self.cohring, job))
                else:
                    with tracer.job(job.name):
                        results.append((job,) + workloads.run_job(self.cli, self.cohring, job))
            except Exception as exc:  # a job that raises counts as failed
                results.append((job, 0.0, None, "", exc))
        pass_s = time.perf_counter() - start
        self.attempted += len(jobs)
        for job, _, code, out, extra in results:
            if isinstance(extra, Exception):
                self.fail(job.name, f"raised {type(extra).__name__}: {extra}")
            elif code != 0:
                self.fail(job.name, f"exit code {code}")
            else:
                try:
                    job.check(out, extra)
                except Exception as exc:  # output that cannot be parsed fails the job too
                    self.fail(job.name, f"{type(exc).__name__}: {exc}")
        return pass_s, [r[1] for r in results], tracer.totals() if tracer else None

    def one_pass(self, tracer=None, strata_order=None):
        if self.workload == "strata-heavy":
            order = strata_order or self.orders.next()
            return self.strata_pass(order, trace=strata_order is not None)
        return self.in_process_pass(self.jobs, tracer)

    def gate(self, tracer=None):
        """End-of-run check in this process: ``verify --suite ring`` and a
        ``class --format json`` round trip through ``from_json``."""
        argv = ["class", "--x", "omp:3", "--format", "json"]
        pinned = self.pins["digests"][" ".join(argv)]
        jobs = [workloads.Job("gate: verify --suite ring", ["verify", "--suite", "ring"],
                              lambda out, _: checks.check_verify_output(out)),
                workloads.Job("gate: class omp:3", argv,
                              lambda out, cls: checks.check_class_output(
                                  out, cls, self.refs.single("omp:3"), pinned),
                              from_json=True)]
        return self.in_process_pass(jobs, tracer)[2]

    # -- the two kinds of run -----------------------------------------------------------

    def traced(self, fn):
        """Call ``fn(tracer)`` with a freshly installed tracer."""
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            return fn(tracer)
        finally:
            tracer.uninstall()
            self.spans.extend(tracer.spans)

    def measure(self) -> dict:
        """End-to-end metrics of the unpatched program."""
        started = time.perf_counter()
        setup = setup_times(SETUP_LAUNCHES)
        if self.workload != "strata-heavy":
            self.one_pass()  # warm-up, checked but not timed
        passes, latencies, beyond = [], [], 0
        t0 = time.perf_counter()
        while time.perf_counter() - started < DEADLINE_S:
            got = self.one_pass()
            if got is None:
                break
            passes.append(got[0])
            latencies.extend(got[1])
            if len(latencies) >= 2:
                cut = p95(latencies)
                beyond = sum(x > cut for x in latencies)
            if time.perf_counter() - t0 >= self.args.seconds and len(passes) >= 3 \
                    and beyond >= MIN_BEYOND_TAIL:
                break
        self.gate()
        if not passes:
            raise RuntimeError("no pass completed")
        rss_kb = self.child_rss_kb if self.workload == "strata-heavy" \
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.extra = {"passes": len(passes), "pass_times_s": [round(p, 4) for p in passes],
                      "job_samples": len(latencies), "samples_beyond_p95": beyond}
        return {
            "setup_s": (median(setup), "s"),
            "pass_s": (upper_quartile(passes), "s"),
            "job_ms_p50": (median(latencies) * 1e3, "ms"),
            "job_ms_p95": (p95(latencies) * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    def trace(self) -> dict:
        """Per-layer metrics: untraced passes, then a traced section of fixed work."""
        imports = import_times(IMPORTTIME_LAUNCHES)
        if self.workload != "strata-heavy":
            self.one_pass()  # warm-up
        untraced = []
        t0 = time.perf_counter()
        while len(untraced) < 2 or time.perf_counter() - t0 < self.args.seconds / 3:
            got = self.one_pass()
            if got is None:
                raise RuntimeError("an untraced pass failed")
            untraced.append(got[0])

        self.problems.extend(tracer_module.self_test())

        # strata-heavy passes trace themselves in their child; the same
        # order twice, so that the two passes do the same work
        order = self.orders.next() if self.workload == "strata-heavy" else None
        traced, parts = [], []
        for _ in range(TRACED_PASSES):
            got = self.one_pass(strata_order=order) if order else self.traced(self.one_pass)
            if got is None:
                raise RuntimeError("a traced pass failed")
            traced.append(got[0])
            parts.append(got[2])
        parts.append(self.traced(self.gate))

        first, second = (tracer_module.exact_counters(p) for p in parts[:2])
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            self.problems.append(f"work counters differ between two traced passes: {diff[:8]}")
        left = tracer_module.patched_names()
        if left:
            self.problems.append(f"uninstall left wrappers: {left[:5]}")

        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{self.workload}-seed{self.args.seed}.jsonl", "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.extra = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                      "spans": len(self.spans)}
        totals = tracer_module.merge_totals(parts)
        return layer_metrics(totals, imports, median(untraced), median(traced))


def layer_metrics(totals, imports, untraced_s, traced_s) -> dict:
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in imports:
            out[name] = (imports[name], unit)
        elif name.endswith(".self_frac"):
            layer = name[:-len(".self_frac")]
            out[name] = (totals.get(f"{layer}.self_s", 0.0) / totals["trace.job_s"], unit)
        elif name == "cohring.mul.nonzero_frac":
            out[name] = (totals["cohring.mul.nonzero"] / totals["cohring.mul.calls"], unit)
        elif name == "trace.overhead_frac":
            out[name] = (traced_s / untraced_s - 1, unit)
        elif name == "trace.untraced_pass_s":
            out[name] = (untraced_s, unit)
        else:
            out[name] = (totals.get(name, 0), unit)
    return out


def _layer_rows():
    rows = [
        ("cohring.mul.calls", "count", "lower"), ("cohring.mul.self_s", "s", "lower"),
        ("cohring.mul.term_pairs", "count", "lower"), ("cohring.mul.terms_out", "count", "lower"),
        ("cohring.mul.nonzero_frac", "ratio", "higher"),
        ("cohring.init.calls", "count", "lower"), ("cohring.init.terms", "count", "lower"),
        ("cohring.init.self_s", "s", "lower"),
        ("cohring.add.calls", "count", "lower"), ("cohring.add.self_s", "s", "lower"),
        ("cohring.pow.calls", "count", "lower"), ("cohring.pow.self_s", "s", "lower"),
        ("cohring.product_of.calls", "count", "lower"),
        ("cohring.product_of.factors", "count", "lower"),
        ("cohring.product_of.self_s", "s", "lower"),
        ("cohring.divide_exact.calls", "count", "lower"),
        ("cohring.divide_exact.self_s", "s", "lower"),
        ("cohring.from_json.calls", "count", "lower"),
        ("cohring.from_json.self_s", "s", "lower"),
        ("cohring.max_terms", "count", "lower"),
        ("coeffring.mul.calls", "count", "lower"), ("coeffring.mul.self_s", "s", "lower"),
        ("coeffring.mul.coeff_products", "count", "lower"),
        ("coeffring.add.calls", "count", "lower"), ("coeffring.add.self_s", "s", "lower"),
        ("coeffring.init.calls", "count", "lower"), ("coeffring.init.self_s", "s", "lower"),
        ("coeffring.max_bits", "bits", "lower"), ("coeffring.max_degree", "count", "lower"),
        ("cli.build_parser_s", "s", "lower"), ("degrees.gysin_degree.calls", "count", "lower"),
    ]
    for layer in ("cli", "verify", "degrees", "strata", "divisors", "collide",
                  "cohring", "coeffring"):
        rows += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.self_frac", "ratio", "lower")]
    rows += [("bench.self_frac", "ratio", "lower"),
             ("trace.overhead_frac", "ratio", "lower"), ("trace.spans", "count", "lower"),
             ("trace.untraced_pass_s", "s", "lower")]
    rows += [(f"import.{m}.self_s", "s", "lower") for m in MODULES]
    rows += [("import.bistrata.cli.cumulative_s", "s", "lower")]
    return rows


PER_LAYER = _layer_rows()


def declared_metrics(trace: int) -> dict[str, str] | None:
    """Metric names and units that BENCHMARK.json promises for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bistrata" / "__init__.py").is_file():
        print(f"perfbench: no bistrata sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    started = time.perf_counter()
    # The bytecode cache of the program and of the benchmark is written once,
    # as installing a package does; no child interpreter compiles a module.
    for directory in (SRC / "bistrata", BENCH):
        compileall.compile_dir(directory, quiet=1)
    threads_was_set = os.environ.pop("STRATA_THREADS", None) is not None
    sys.path.insert(0, str(SRC))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(), "source_sha256": source_digest(),
        "strata_threads_unset": True, "strata_threads_was_set": threads_was_set,
        "loadavg_start": os.getloadavg(), "calibration_s_start": calibration_s(),
    }
    run = Run(args)
    metrics = run.trace() if args.trace else run.measure()
    record.update(run.extra)
    record["repeat_frac"] = run.repeat_frac
    record["loadavg_end"] = os.getloadavg()
    record["calibration_s_end"] = calibration_s()
    declared = declared_metrics(args.trace)
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if declared is not None and declared != reported:
        run.problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(declared.items()) ^ set(reported.items()))[:6]}")
    failed = len(run.failures)
    record["fail_frac"] = failed / run.attempted
    record["wall_s"] = time.perf_counter() - started

    log(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    log("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    if "samples_beyond_p95" in record:
        log(f"job_ms_p95 rests on {record['samples_beyond_p95']} of {record['job_samples']} "
            "samples beyond it")
    log(f"fail_frac = {record['fail_frac']:.6g} ratio ({failed} of {run.attempted} jobs failed)")
    for message in run.failures[:10] + run.problems:
        log("FAILED " + message)
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
