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

``VERBS`` declares every verb's options once.  ``main`` reads a call in
canonical form (each option spelled in full, at most once, its value the
next token) straight from that table; ``build_parser`` builds the argparse
parser from the same table, and argparse is imported only for what the
table does not accept: ``--help``, abbreviations, ``--opt=value``, repeated
options, values that start with "-", and every usage error, whose messages
argparse prints.
"""

from __future__ import annotations

import contextlib
import io
import sys
from types import SimpleNamespace

from .coeffring import _DECIMAL
from .collide import NewtonDiagram, SingularitySpec, collide_omp, is_linear, residual_multiplicity
from .degrees import DegreeResult, stratum_degree
from .strata import StratumClass, stratum_for
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


def _print_json(payload, out) -> None:
    """Print payload as indented JSON; ``json`` loads on the first call."""
    import json
    print(json.dumps(payload, indent=2), file=out)


def _class_json(stratum: StratumClass) -> str:
    """The ``class --format json`` payload exactly as
    ``json.dumps(payload, indent=2)`` prints it, for its one fixed schema:
    the fields of ``CohClass.to_json``, then ``aut``, ``valid_from_d`` and
    ``route``.

    ``indent`` turns ``json``'s C encoder off, and the pure-Python one costs
    more than the rest of a warm ``class`` call.  Here each value is an
    f-string; only the generator names and the route can need escaping, and
    they go through the encoder's own ``encode_basestring_ascii``.  Every
    other value is an int or a decimal string.
    """
    from json.encoder import encode_basestring_ascii as quote
    cls = stratum.cls
    names = [quote(name) for name in cls.ambient.names]
    variables = [f'{{\n      "name": {name},\n      "trunc": {trunc}\n    }}'
                 for name, trunc in zip(names, cls.ambient.truncations)]
    terms = []
    for exp, coeff in cls._sorted_terms():
        exps = ",\n        ".join([f"{names[i]}: {e}" for i, e in enumerate(exp) if e])
        exps = f"{{\n        {exps}\n      }}" if exps else "{}"
        # a class stores no zero coefficient, so the array is never empty
        digits = '",\n        "'.join(map(str, coeff.coeffs))
        terms.append(f'{{\n      "exps": {exps},\n      "coeff": [\n        "{digits}"\n      ]\n    }}')
    return (f'{{\n  "variables": {_json_array(variables)},\n'
            f'  "total_degree": {cls.total_degree},\n'
            f'  "terms": {_json_array(terms)},\n'
            f'  "aut": {stratum.aut_order},\n'
            f'  "valid_from_d": {stratum.valid_from_d},\n'
            f'  "route": {quote(stratum.route)}\n}}')


def _degree_json(label: str, result: DegreeResult, d0: int | None, below: bool) -> str:
    """The ``degree --format json`` payload exactly as
    ``json.dumps(payload, indent=2)`` prints it, written as ``_class_json``
    writes its own: the family label, the fields of ``DegreeResult.to_json``,
    then ``d`` and, at a numeric d, ``value`` and ``below_validity``.  The
    label and the route go through ``encode_basestring_ascii``; every other
    value is an int, a decimal string or a fixed word.
    """
    from json.encoder import encode_basestring_ascii as quote
    degree = _json_array([f'"{c}"' for c in result.degree.coeffs])
    text = (f'{{\n  "family": {quote(label)},\n  "degree": {degree},\n'
            f'  "aut_applied": {result.aut_applied},\n'
            f'  "valid_from_d": {result.valid_from_d},\n'
            f'  "route": {quote(result.route)},\n')
    if d0 is None:
        return text + '  "d": "symbolic"\n}'
    return text + (f'  "d": {d0},\n  "value": {result.value_at(d0)},\n'
                   f'  "below_validity": {"true" if below else "false"}\n}}')


def _json_array(items: list[str]) -> str:
    """A top-level field's array of printed items, laid out as ``indent=2`` does."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


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
        print(_degree_json(_family_label(args), result, d_numeric, below), file=out)
    elif args.format == "csv":
        value = result.value_at(d_numeric) if d_numeric is not None else str(result)
        d_col = d_numeric if d_numeric is not None else "symbolic"
        # a diagram label carries commas: the csv module quotes it
        import csv
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
        print(_class_json(stratum), file=out)
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
        _print_json(payload, out)
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
        _print_json(payload, out)
    else:
        print(f"collision of omp:{m_hi} and omp:{m_lo}", file=out)
        print(f"  vertices: {payload['vertices']}", file=out)
        print(f"  multiplicity: {payload['multiplicity']}", file=out)
        print(f"  residual multiplicity: {payload['residual_multiplicity']}", file=out)
        print(f"  linear: {payload['linear']}", file=out)
    return 0


def _format_options(formats: tuple[str, ...]) -> dict[str, dict]:
    return {"--format": {"choices": formats, "default": formats[0]},
            "--out": {"metavar": "FILE", "help": "write output to FILE"}}


# verb -> (help, options, flags of its mutually exclusive group).  Each
# option maps its flag to the keyword arguments of argparse's add_argument,
# in the order --help lists them; the canonical reader interprets action
# ("store_true" takes no value), type, choices, required and default.
VERBS = {
    "degree": ("degree of a stratum", {
        "--x": {"required": True, "metavar": "SPEC"},
        "--y": {"metavar": "SPEC"},
        "--d": {"type": _decimal, "help": "numeric curve degree"},
        "--symbolic-d": {"action": "store_true", "default": False,
                         "help": "keep d symbolic (default)"},
        **_format_options(("text", "json", "csv"))}, ("--d", "--symbolic-d")),
    "class": ("lifted stratum class", {
        "--x": {"required": True, "metavar": "SPEC"},
        "--y": {"metavar": "SPEC"},
        **_format_options(("text", "json"))}, ()),
    "table": ("numeric degree tables", {
        "--family": {"required": True, "choices": tuple(TABLE_FAMILIES)},
        "--p-range": {"required": True, "metavar": "A..B"},
        "--q-range": {"metavar": "A..B"},
        "--d": {"type": _decimal, "required": True,
                "help": "numeric curve degree (table sizes depend on it)"},
        **_format_options(("csv", "json"))}, ()),
    "verify": ("run identity suites", {
        "--suite": {"default": "all", "choices": (*SUITES, "all")},
        **_format_options(("text",))}, ()),
    "collide": ("merge two ordinary points", {
        "--x": {"required": True, "metavar": "SPEC"},
        "--y": {"required": True, "metavar": "SPEC"},
        **_format_options(("text", "json"))}, ()),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse parser for ``VERBS``; ``argparse`` loads on the first call."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="bistrata",
        description="Exact degrees and cohomology classes of equisingular "
                    "strata of plane curves with one or two singular points.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, options, exclusive) in VERBS.items():
        p_verb = sub.add_parser(verb, help=help_text)
        group = p_verb.add_mutually_exclusive_group() if exclusive else None
        for flag, kwargs in options.items():
            (group if flag in exclusive else p_verb).add_argument(flag, **kwargs)
    return parser


def _parse_canonical(argv) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for a call in canonical
    form, read from ``VERBS`` without argparse; None for any other argv.

    Canonical: a verb, then options of that verb, each spelled in full and
    given at most once, each value option followed by its value.  A value
    that starts with "-" is declined, since argparse reads it by its
    negative-number rule, and so is everything argparse would refuse: a
    value its type or choices reject, a missing required option, both flags
    of the exclusive group.
    """
    if not argv or argv[0] not in VERBS:
        return None
    _, options, exclusive = VERBS[argv[0]]
    given = {}
    i, n = 1, len(argv)
    while i < n:
        flag = argv[i]
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        convert = spec.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return None
        given[flag] = value
        i += 2
    if sum(flag in given for flag in exclusive) > 1:
        return None
    values = {"verb": argv[0]}
    for flag, spec in options.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default")
        values[flag[2:].replace("-", "_")] = value
    return values


COMMANDS = {
    "degree": cmd_degree,
    "class": cmd_class,
    "table": cmd_table,
    "verify": cmd_verify,
    "collide": cmd_collide,
}

# The parser every fallback shares, built on first use.  argparse keeps no
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
    A call in canonical form is read from ``VERBS`` directly.  Any other
    call falls back to argparse, which loads on the first fallback; while
    it parses, sys.stdout and sys.stderr are swapped for the given streams,
    so threads that fall back at once may cross argparse messages.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if argv is None:
        argv = sys.argv[1:]
    values = _parse_canonical(argv)
    if values is not None:
        args = SimpleNamespace(**values)
    else:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = _shared_parser().parse_args(argv)
        except SystemExit as exc:  # argparse usage errors carry code 2
            return int(exc.code or 0)
    try:
        if getattr(args, "out", None):
            buffer = io.StringIO()
            code = COMMANDS[args.verb](args, buffer, err)
            try:
                with open(args.out, "w") as handle:
                    handle.write(buffer.getvalue())
            except OSError as exc:  # as argparse treats a file argument it cannot open
                print(f"usage error: cannot write --out {args.out}: {exc.strerror or exc}",
                      file=err)
                return 2
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
