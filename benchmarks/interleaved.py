"""Two source trees timed side by side in one process, round by round.

    python benchmarks/interleaved.py PARENT_SRC CHANGE_SRC [--rounds N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts, for
example an unpacked ``git archive`` of the parent commit and this tree's
``src``.  Each tree's ``bistrata`` package is copied into a temporary
directory under a name of its own (``bistrata_parent``, ``bistrata_change``).
The package imports itself relatively, so both copies load into this one
interpreter and share its heap, its caches and the host's speed of the
moment.  Separate processes, as the ladder (``test_layers.py``) and
``perfbench/`` run them, spread more from run to run than a change of a few
percent.

The rows are the warm ``verify`` suites, each run once untimed first (which
fills the degree memo and the other process-wide memos), the ladder's
``ParamPoly`` rows on the ladder's operands and on the 7000 products of a
``verify --suite ring`` call (``ParamPoly mul, ring triples``, one sample
per call of all 7000) and on the 2000 summand pairs of its distributivity
check, added and subtracted (``ParamPoly add, ring triples``, ``ParamPoly
sub, ring triples``), the six stratum builds of
perfbench's strata-heavy pass and ``two_omp_stratum(6, 3)`` (each a fresh
build: the builders keep no memo, so these rows time the divisor classes,
the recipes and, for the two-point product, the ring's products), fresh
degrees of the product strata (``omp:2..11``, ``cusp:2..16``, the
queries-mix diagrams and the 77 two-omp cells of ``table --p-range 1..14
--q-range 1..7``, each read past the degree memo, through the function it
wraps), and warm ``cli.main`` calls into ``io.StringIO`` (a ``degree`` call
in each of its three formats, a ``collide``, a json ``class`` of node pair
kbranch 1,1 and a ``table``), also run once
untimed first, whose time is mostly the command line's own per-call cost.
Every round times each row once on each side, and the side that goes first
alternates from round to round.
A sample is the mean time per call over a number of calls fixed per row
before the first round, so that one sample takes about 20 ms.  For each row
the script prints each side's median and quartiles, the ratio of the
medians (change over parent) and the number of rounds the change wins.
"""

from __future__ import annotations

import argparse
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

SIDES = ("parent", "change")
SUITES = ("ring", "corollary", "appendix", "recursion", "interpolation")
SAMPLE_S = 0.02
DEGREE = ["degree", "--x", "cusp:5", "--y", "omp:2", "--d", "12"]
# the builds of perfbench's strata-heavy pass: (row, builder, singularity kind, multiplicities)
BUILDS = (
    ("build kbranch:1,1,1,1,1", "kbranch", "kbranch", (1, 1, 1, 1, 1)),
    ("build kbranch:3,1,1,1,1", "kbranch", "kbranch", (3, 1, 1, 1, 1)),
    ("build kbranch:2,2,1,1", "kbranch", "kbranch", (2, 2, 1, 1)),
    ("build kbranch:1,1,1,1,1+omp:2", "node_pair", "kbranch", (1, 1, 1, 1, 1)),
    ("build kbranch:2,2,1+omp:2", "node_pair", "kbranch", (2, 2, 1)),
    ("build cusp:9+omp:2", "node_pair", "cusp", (9,)),
)
# fresh degrees of product strata: (row, type pairs as ``cli.parse_type_spec`` spells them)
FRESH = (
    ("fresh degree omp:2..11", [(f"omp:{m}", None) for m in range(2, 12)]),
    ("fresh degree cusp:2..16", [(f"cusp:{p}", None) for p in range(2, 17)]),
    ("fresh degree 5 diagrams",
     [(f"diagram:{d}", None) for d in ("0,3,2,0", "0,4,2,0", "0,4,3,0", "0,5,4,0", "0,6,5,0")]),
    ("fresh degree two-omp 77 cells",
     [(f"omp:{p + 1}", f"omp:{q + 1}") for q in range(1, 8) for p in range(q, 15)]),
)
CLI_CALLS = {
    "cli degree text": DEGREE,
    "cli degree json": DEGREE + ["--format", "json"],
    "cli degree csv": DEGREE + ["--format", "csv"],
    "cli collide": ["collide", "--x", "omp:4", "--y", "omp:3"],
    "cli class json": ["class", "--x", "kbranch:1,1", "--y", "omp:2", "--format", "json"],
    "cli table": ["table", "--family", "two-omp", "--p-range", "1..14", "--q-range", "3..3",
                  "--d", "40"],
}


def load(src: Path, side: str, into: Path):
    """Import the ``bistrata`` package of ``src`` as ``bistrata_<side>``."""
    name = f"bistrata_{side}"
    shutil.copytree(src / "bistrata", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("verify", "coeffring", "cli", "strata", "collide", "degrees"))


def build(strata, collide, builder: str, kind: str, mults: tuple[int, ...]):
    """One fresh stratum, built as perfbench's strata-heavy child builds it."""
    if builder == "kbranch":
        return strata.kbranch_stratum(*mults)
    return strata.node_pair_stratum(getattr(collide.SingularitySpec, kind)(*mults))


def fresh_degrees(cli, strata, degrees, specs):
    """A call that reads the degree of every type pair in specs past the
    degree memo: the memoised function's own body, on each pair put in
    dispatch order once, outside the call."""
    fresh = degrees._memoised_degree.__wrapped__
    pairs = [strata._dispatch_order(cli.parse_type_spec(x),
                                    cli.parse_type_spec(y) if y else None) for x, y in specs]
    return lambda: [fresh(*pair) for pair in pairs]


def rows(verify, coeffring, cli, strata, collide, degrees) -> dict[str, object]:
    """Row name -> zero-argument call, for one side."""
    out = {}
    for suite in SUITES:
        verify.run_suite(suite)  # warm: fills the memos
        out[f"verify {suite}"] = lambda _suite=suite: verify.run_suite(_suite)
    poly = coeffring.ParamPoly
    a = poly((-66, 81, 12, -36, 9))
    b = poly((123456789, -987654321, 55555))
    out["ParamPoly mul"] = lambda: a * b
    out["ParamPoly add"] = lambda: a + b
    # the 7000 products of one ``verify --suite ring`` call, operands built once
    pairs = []
    for x, y, z in verify._ring_triples(1000, 20260809):
        pairs += [(x, y), (x * y, z), (y, z), (x, y * z), (y, x), (x, y + z), (x, z)]
    out["ParamPoly mul, ring triples"] = lambda: [u * v for u, v in pairs]
    # the 2000 summand pairs of its distributivity check, b + c and ab + a * c
    summands = []
    for x, y, z in verify._ring_triples(1000, 20260809):
        summands += [(y, z), (x * y, x * z)]
    out["ParamPoly add, ring triples"] = lambda: [u + v for u, v in summands]
    out["ParamPoly sub, ring triples"] = lambda: [u - v for u, v in summands]
    for name, *job in BUILDS:
        out[name] = lambda _job=job: build(strata, collide, *_job)
    out["build two_omp_stratum(6, 3)"] = lambda: strata.two_omp_stratum(6, 3)
    for name, specs in FRESH:
        out[name] = fresh_degrees(cli, strata, degrees, specs)
    for name, argv in CLI_CALLS.items():
        call = lambda _argv=argv: cli.main(_argv, io.StringIO(), io.StringIO())
        if call() != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")
        out[name] = call
    return out


def calls_per_sample(fn) -> int:
    number = 1
    while timeit.Timer(fn).timeit(number) < SAMPLE_S and number < 1 << 20:
        number *= 2
    return number


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            table = {side: rows(*load(src, side, Path(tmp)))
                     for side, src in zip(SIDES, (args.parent_src, args.change_src))}
        finally:
            sys.path.remove(tmp)
    names = list(table["parent"])
    number = {name: calls_per_sample(table["parent"][name]) for name in names}
    samples = {(side, name): [] for side in SIDES for name in names}
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                t = timeit.Timer(table[side][name]).timeit(number[name])
                samples[side, name].append(t / number[name])
    print(f"{args.rounds} rounds; times per call; median [lower, upper quartile]")
    for name in names:
        parent, change = samples["parent", name], samples["change", name]
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        unit, scale = ("ms", 1e3) if p2 >= 1e-4 else ("us", 1e6)
        print(f"{name:30s} parent {p2 * scale:9.3f} [{p1 * scale:.3f}, {p3 * scale:.3f}] {unit}"
              f"  change {c2 * scale:9.3f} [{c1 * scale:.3f}, {c3 * scale:.3f}] {unit}"
              f"  ratio {c2 / p2:.3f}  change wins {wins}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
