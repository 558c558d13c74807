"""Command line front end.

Verbs:
  degree   degree of the stratum of one or two singularity types
  class    the lifted stratum class itself, as JSON or text
  table    numeric degree tables over parameter ranges, CSV by default
  verify   run the identity suites and print PASS/FAIL lines
  collide  merge two ordinary points: diagram and residual multiplicity

Type specs are "kind:ints", e.g. omp:4 (ordinary point of multiplicity 4),
cusp:3, kbranch:2,1, diagram:0,4,2,1,3,0 (vertex pairs).  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from .coeffring import _DECIMAL
from .collide import NewtonDiagram, SingularitySpec, collide_omp, is_linear, residual_multiplicity
from .degrees import DegreeResult, stratum_degree
from .strata import stratum_for
from .verify import SUITES, run_suite


class SpecError(ValueError):
    """A malformed type spec string (usage error, exit code 2)."""


def _decimal(text: str) -> int:
    """An optionally signed ASCII decimal integer; anything else, the empty
    string included, raises ValueError.  ``int`` alone would also take
    underscores, surrounding whitespace and non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"invalid decimal integer {text!r}")
    return int(text)


# argparse names the type in its message: "argument --d: invalid int value: 'x'"
_decimal.__name__ = "int"


def parse_type_spec(text: str) -> SingularitySpec:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise SpecError(f"type spec {text!r} needs 'kind:ints'")
    try:
        # a bare "kind:" reaches the arity check of its kind below
        numbers = [_decimal(tok) for tok in rest.split(",")] if rest else []
    except ValueError:
        raise SpecError(f"type spec {text!r} carries non-integer parameters")
    try:
        if kind == "omp":
            if len(numbers) != 1:
                raise SpecError("omp takes exactly one multiplicity, e.g. omp:4")
            return SingularitySpec.omp(numbers[0])
        if kind == "cusp":
            if len(numbers) != 1:
                raise SpecError("cusp takes exactly one multiplicity, e.g. cusp:3")
            return SingularitySpec.cusp(numbers[0])
        if kind == "kbranch":
            return SingularitySpec.kbranch(*numbers)
        if kind == "diagram":
            if len(numbers) < 4 or len(numbers) % 2:
                raise SpecError("diagram takes vertex pairs, e.g. diagram:0,4,2,1,3,0")
            pairs = list(zip(numbers[0::2], numbers[1::2]))
            return SingularitySpec.from_diagram(NewtonDiagram.from_points(pairs))
    except ValueError as exc:
        raise SpecError(f"bad type spec {text!r}: {exc}")
    raise SpecError(f"unknown singularity kind {kind!r} in {text!r}")


def parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SpecError(f"range {text!r} needs the form a..b")
    try:
        a, b = _decimal(lo), _decimal(hi)
    except ValueError:
        raise SpecError(f"range {text!r} carries non-integer bounds")
    if a > b:
        raise SpecError(f"empty range {text!r}")
    return a, b


def _below_validity(result: DegreeResult, d0: int | None, err, cell: str = "") -> bool:
    """Whether a numeric d0 is below the validity bound; if so, warn on err."""
    below = d0 is not None and d0 < result.valid_from_d
    if below:
        print(f"warning: {cell}d={d0} is below the validity bound "
              f"d >= {result.valid_from_d}; the value is formal", file=err)
    return below


def _family_label(args) -> str:
    label = args.x
    if args.y:
        label += "+" + args.y
    return label


def cmd_degree(args, out, err) -> int:
    sx = parse_type_spec(args.x)
    sy = parse_type_spec(args.y) if args.y else None
    result = stratum_degree(sx, sy)
    d_numeric = args.d
    below = _below_validity(result, d_numeric, err)
    if args.format == "json":
        payload = {"family": _family_label(args)}
        payload.update(result.to_json())
        payload["d"] = d_numeric if d_numeric is not None else "symbolic"
        if d_numeric is not None:
            payload["value"] = result.value_at(d_numeric)
            payload["below_validity"] = below
        print(json.dumps(payload, indent=2), file=out)
    elif args.format == "csv":
        value = result.value_at(d_numeric) if d_numeric is not None else str(result)
        d_col = d_numeric if d_numeric is not None else "symbolic"
        # a diagram label carries commas: the csv module quotes it
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("family", "p", "q", "d", "degree"))
        writer.writerow((_family_label(args), "", "", d_col, value))
    else:
        print(f"degree: {result}", file=out)
        if d_numeric is not None:
            print(f"value at d={d_numeric}: {result.value_at(d_numeric)}", file=out)
        print(f"valid for d >= {result.valid_from_d}   (route: {result.route})", file=out)
    return 0


def cmd_class(args, out, err) -> int:
    sx = parse_type_spec(args.x)
    sy = parse_type_spec(args.y) if args.y else None
    # the bare stratum, without the tangent incidence that degree multiplies in
    stratum = stratum_for(sx, sy)
    if args.format == "json":
        payload = stratum.cls.to_json()
        payload["aut"] = stratum.aut_order
        payload["valid_from_d"] = stratum.valid_from_d
        payload["route"] = stratum.route
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"class ({_family_label(args)}), total degree "
              f"{stratum.cls.total_degree}, aut {stratum.aut_order}:", file=out)
        print(str(stratum.cls), file=out)
    return 0


# Each table family: its least p, whether it reads q (then q <= p), and the
# type pair of the cell (p, q).
TABLE_FAMILIES = {
    "two-omp": (1, True, lambda p, q: (SingularitySpec.omp(p + 1), SingularitySpec.omp(q + 1))),
    "omp": (1, False, lambda p, q: (SingularitySpec.omp(p + 1), None)),
    "cusp": (2, False, lambda p, q: (SingularitySpec.cusp(p), None)),
    "cusp-node": (2, False, lambda p, q: (SingularitySpec.cusp(p), SingularitySpec.omp(2))),
}


def _table_rows(args, err) -> list[tuple[str, int, object, int, int]]:
    """Rows in (p, q) order; a cell below its validity bound warns on err.

    A --q-range given to a family that does not read q, or ranges that hold
    no cell, raise SpecError: the table would ignore them without a word.
    """
    least_p, reads_q, pair_of = TABLE_FAMILIES[args.family]
    if args.q_range and not reads_q:
        raise SpecError(f"family {args.family} takes no --q-range")
    p_lo, p_hi = parse_range(args.p_range)
    q_lo, q_hi = parse_range(args.q_range) if args.q_range else (1, 1)
    cells = [(p, q) for p in range(max(p_lo, least_p), p_hi + 1)
             for q in (range(q_lo, min(p, q_hi) + 1) if reads_q else ("",))]
    if not cells:
        bounds = f"p >= {least_p}" + (" and q <= p" if reads_q else "")
        raise SpecError(f"the ranges hold no cell of family {args.family} ({bounds})")
    rows = []
    for p, q in cells:
        result = stratum_degree(*pair_of(p, q))
        cell = f"{args.family} p={p}" + (f" q={q}" if reads_q else "")
        _below_validity(result, args.d, err, cell + ": ")
        rows.append((args.family, p, q, args.d, result.value_at(args.d)))
    return rows


def cmd_table(args, out, err) -> int:
    rows = _table_rows(args, err)
    if args.format == "json":
        payload = [{"family": f, "p": p, "q": q if q != "" else None,
                    "d": d, "degree": v} for f, p, q, d, v in rows]
        print(json.dumps(payload, indent=2), file=out)
    else:
        print("family,p,q,d,degree", file=out)
        for f, p, q, d, v in rows:
            print(f"{f},{p},{q},{d},{v}", file=out)
    return 0


def cmd_verify(args, out, err) -> int:
    checks = run_suite(args.suite)
    failures = 0
    for name, ok, detail in checks:
        if ok:
            print(f"PASS {name}", file=out)
        else:
            failures += 1
            suffix = f" ({detail})" if detail else ""
            print(f"FAIL {name}{suffix}", file=out)
    print(f"{len(checks) - failures}/{len(checks)} identities hold", file=out)
    return 1 if failures else 0


def cmd_collide(args, out, err) -> int:
    sx = parse_type_spec(args.x)
    sy = parse_type_spec(args.y)
    if sx.kind != "omp" or sy.kind != "omp":
        raise ValueError("collision results are available for ordinary points only")
    m_hi, m_lo = sorted((sx.mults[0], sy.mults[0]), reverse=True)
    p, q = m_hi - 1, m_lo - 1
    diagram = collide_omp(p, q)
    payload = {
        "vertices": [[a, b] for a, b in diagram.vertices],
        "multiplicity": diagram.multiplicity,
        "residual_multiplicity": residual_multiplicity(p, q),
        "linear": is_linear(diagram),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"collision of omp:{m_hi} and omp:{m_lo}", file=out)
        print(f"  vertices: {payload['vertices']}", file=out)
        print(f"  multiplicity: {payload['multiplicity']}", file=out)
        print(f"  residual multiplicity: {payload['residual_multiplicity']}", file=out)
        print(f"  linear: {payload['linear']}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bistrata",
        description="Exact degrees and cohomology classes of equisingular "
                    "strata of plane curves with one or two singular points.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p_degree = sub.add_parser("degree", help="degree of a stratum")
    p_degree.add_argument("--x", required=True, metavar="SPEC")
    p_degree.add_argument("--y", metavar="SPEC")
    group = p_degree.add_mutually_exclusive_group()
    group.add_argument("--d", type=_decimal, help="numeric curve degree")
    group.add_argument("--symbolic-d", action="store_true",
                       help="keep d symbolic (default)")
    add_common(p_degree)

    p_class = sub.add_parser("class", help="lifted stratum class")
    p_class.add_argument("--x", required=True, metavar="SPEC")
    p_class.add_argument("--y", metavar="SPEC")
    add_common(p_class, formats=("text", "json"))

    p_table = sub.add_parser("table", help="numeric degree tables")
    p_table.add_argument("--family", required=True, choices=tuple(TABLE_FAMILIES))
    p_table.add_argument("--p-range", required=True, metavar="A..B")
    p_table.add_argument("--q-range", metavar="A..B")
    p_table.add_argument("--d", type=_decimal, required=True,
                         help="numeric curve degree (table sizes depend on it)")
    add_common(p_table, formats=("csv", "json"))

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    add_common(p_verify, formats=("text",))

    p_collide = sub.add_parser("collide", help="merge two ordinary points")
    p_collide.add_argument("--x", required=True, metavar="SPEC")
    p_collide.add_argument("--y", required=True, metavar="SPEC")
    add_common(p_collide, formats=("text", "json"))
    return parser


COMMANDS = {
    "degree": cmd_degree,
    "class": cmd_class,
    "table": cmd_table,
    "verify": cmd_verify,
    "collide": cmd_collide,
}

# The parser every main call shares, built on first use.  argparse keeps no
# per-call state on it: each parse_args sets defaults on a fresh namespace.
_parser: argparse.ArgumentParser | None = None


def _shared_parser() -> argparse.ArgumentParser:
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    """Run one command; may be called repeatedly in one process.

    Everything, argparse usage errors and --help included, is written to
    the given streams (default: sys.stdout and sys.stderr at call time).
    While arguments are parsed sys.stdout and sys.stderr are swapped for
    them, so threads calling main at once may cross argparse messages.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _shared_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None):
            buffer = io.StringIO()
            code = COMMANDS[args.verb](args, buffer, err)
            with open(args.out, "w") as handle:
                handle.write(buffer.getvalue())
            return code
        return COMMANDS[args.verb](args, out, err)
    except SpecError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
