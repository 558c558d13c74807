"""One strata-heavy pass in a fresh interpreter.

Usage: child.py --src DIR --order 3,0,5,1,4,2 --trace 0|1

Builds the six strata of ``workloads.STRATA_JOBS`` in the given order, then
extracts their degrees in one ``gysin_degree`` job, and prints one JSON
object: per-job seconds, the pass wall time, the degrees, the peak RSS
of this process, and with
``--trace 1`` the tracer totals, spans and self-check problems.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--order", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from bistrata import collide, degrees, strata

    import tracer as tracing
    import workloads

    order = [int(i) for i in args.order.split(",")]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    def run(job_id, fn):
        if tracer is None:
            return fn()
        with tracer.job(job_id):
            return fn()

    def build(constructor, kind, mults):
        if constructor == "kbranch":
            return strata.kbranch_stratum(*mults)
        spec = getattr(collide.SingularitySpec, kind)(*mults)
        return strata.node_pair_stratum(spec)

    seconds, built = {}, {}
    start = time.perf_counter()
    for index in order:
        name, constructor, kind, mults = workloads.STRATA_JOBS[index]
        t0 = time.perf_counter()
        built[name] = run(name, lambda: build(constructor, kind, mults))
        seconds[name] = time.perf_counter() - t0
    t0 = time.perf_counter()
    results = run(workloads.GYSIN_JOB,
                  lambda: {name: degrees.gysin_degree(s) for name, s in built.items()})
    seconds[workloads.GYSIN_JOB] = time.perf_counter() - t0
    pass_s = time.perf_counter() - start

    report = {
        "pass_s": pass_s,
        "job_s": seconds,
        "degrees": {name: {"degree": list(r.degree.coeffs), "aut": r.aut_applied}
                    for name, r in results.items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        report["totals"] = tracer.totals()
        report["spans"] = tracer.spans
        left = tracing.patched_names()
        report["problems"] = [f"uninstall left wrappers: {left[:5]}"] if left else []
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
