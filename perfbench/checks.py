"""Output checks for the benchmark: values, not bytes.

Every job's output is compared with a reference that does not come from the
route that produced it:

* classical values, transcribed here: A1 = 3(d-1)^2, A2 = 12(d-1)(d-2),
  A3 = 50d^2 - 192d + 168, D4 = 15(d-2)^2 and E6 = 21(d-3)(4d-9)
  (Kazarian, Multisingularities, cobordisms, and enumerative geometry,
  2003), and the two-node count (3/2)(d-1)(d-2)(3d^2-3d-11)
  (Kleiman-Piene, Enumerating singular curves on surfaces, 1999);
* the program's catalog of published closed forms (``bistrata.degrees``
  ``reference_*``), which transcribes formulas rather than multiplying
  classes;
* values pinned in ``pins.json``: sha256 digests of ``table`` CSV and of
  ``class --format json`` for the omp, kbranch and pair families (output
  that must stay byte-identical), and the raw degree of the one strata-heavy
  job no published form covers.

Parsers accept the output formats loosely (extra JSON keys, extra CSV
columns, a quoted or unquoted CSV label), so that adding fields or fixing
CSV quoting does not count as a failure.  Run this file with ``--write-pins``
to record ``pins.json`` from the current program.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class CheckError(AssertionError):
    """A job's output disagrees with its reference."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# -- integer polynomials in d, ascending coefficient tuples ------------------------


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(*polys):
    out = (1,)
    for b in polys:
        acc = [0] * (len(out) + len(b) - 1) if out and b else []
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                acc[i + j] += x * y
        out = _trim(acc)
    return out


def pscale(c, poly):
    return _trim(c * x for x in poly)


def peval(poly, d):
    acc = 0
    for c in reversed(poly):
        acc = acc * d + c
    return acc


def lin(a):
    """The polynomial d + a."""
    return (a, 1)


# Classical single-point and two-node counts (raw, before dividing by aut).
KAZARIAN = {
    "A1": pmul((3,), lin(-1), lin(-1)),
    "A2": pmul((12,), lin(-1), lin(-2)),
    "A3": (168, -192, 50),
    "D4": pmul((15,), lin(-2), lin(-2)),
    "E6": pmul((21,), lin(-3), (-9, 4)),
}
# (3/2)(d-1)(d-2)(3d^2-3d-11) nodal pairs; the raw degree carries aut 2.
KLEIMAN_PIENE_TWO_NODES = pmul((3,), lin(-1), lin(-2), (-11, -3, 3))

_TERM = re.compile(r"^(-?)(\d*)\*?(d(?:\^(\d+))?)?$")


def parse_poly(text: str) -> tuple[tuple[int, ...], int]:
    """Parse a printed degree such as ``(3*d^2 - 6*d + 3)/2`` into (coeffs, aut)."""
    text = text.strip()
    aut = 1
    match = re.fullmatch(r"\((.*)\)/(\d+)", text)
    if match:
        text, aut = match.group(1), int(match.group(2))
    by_power: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term.replace(" ", ""))
        if not m or not (m.group(2) or m.group(3)):
            raise CheckError(f"cannot parse polynomial term {term!r} in {text!r}")
        sign = -1 if m.group(1) else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        power = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        by_power[power] = by_power.get(power, 0) + sign * coeff
    top = max(by_power, default=-1)
    return _trim(by_power.get(i, 0) for i in range(top + 1)), aut


def csv_records(text: str) -> list[dict[str, str]]:
    """Rows of a CSV text keyed by header.

    A row with more fields than the header comes from an unquoted label
    holding commas: its label is the surplus joined back, the rest align
    from the right.
    """
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 2, f"CSV has no data rows: {text[:80]!r}")
    header, out = rows[0], []
    for row in rows[1:]:
        if len(row) > len(header):
            extra = len(row) - len(header)
            row = [",".join(row[:extra + 1])] + row[extra + 1:]
        require(len(row) == len(header), f"CSV row {row} does not fit header {header}")
        out.append(dict(zip(header, row)))
    return out


def coeffs(poly) -> tuple[int, ...]:
    """Coefficients of a ``bistrata`` ParamPoly."""
    return _trim(poly.coeffs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# -- expected degrees ------------------------------------------------------------


def aut_of(mults) -> int:
    aut = 1
    for value in set(mults):
        aut *= math.factorial(list(mults).count(value))
    return aut


class References:
    """Expected raw degrees and symmetry orders, memoised per spec."""

    def __init__(self, bistrata_degrees, pins: dict):
        self.deg = bistrata_degrees
        self.pins = pins
        self.memo: dict = {}

    def node(self):
        return self.deg.reference_omp(1)

    def single(self, spec: str) -> tuple[tuple[int, ...], int]:
        key = (spec, None)
        if key not in self.memo:
            self.memo[key] = self._single(spec)
        return self.memo[key]

    def _single(self, spec):
        kind, _, rest = spec.partition(":")
        nums = tuple(int(t) for t in rest.split(","))
        ref = self.deg
        if kind == "omp":
            m = nums[0]
            named = {2: "A1", 3: "D4"}.get(m)
            return (KAZARIAN[named] if named else coeffs(ref.reference_omp(m - 1))), 1
        if kind == "cusp":
            p = nums[0]
            return (KAZARIAN["A2"] if p == 2 else coeffs(ref.reference_kbranch((p,)))), 1
        if kind == "kbranch":
            aut = aut_of(nums)
            return pscale(aut, coeffs(ref.reference_kbranch(nums))), aut
        if kind == "diagram":
            named = {(0, 3, 2, 0): "A2", (0, 4, 2, 0): "A3", (0, 4, 3, 0): "E6"}.get(nums)
            if named:
                return KAZARIAN[named], 1
            # the cusp diagram (0, p+1), (p, 0) is the cusp of multiplicity p
            if len(nums) == 4 and nums[0] == 0 and nums[3] == 0 and nums[1] == nums[2] + 1:
                return coeffs(ref.reference_kbranch((nums[2],))), 1
        raise CheckError(f"no reference degree for {spec}")

    def pair(self, x: str, y: str) -> tuple[tuple[int, ...], int]:
        key = tuple(sorted((x, y)))
        if key not in self.memo:
            self.memo[key] = self._pair(x, y)
        return self.memo[key]

    def _pair(self, x, y):
        ref = self.deg
        if x.startswith("omp:") and y.startswith("omp:"):
            hi, lo = sorted((int(x[4:]), int(y[4:])), reverse=True)
            p, q = hi - 1, lo - 1
            if (p, q) == (1, 1):
                return KLEIMAN_PIENE_TWO_NODES, 2
            return coeffs(ref.reference_two_omp(p, q)), 2 if p == q else 1
        if x == "omp:2":
            x, y = y, x
        require(y == "omp:2", f"no reference for the pair {x}, {y}")
        kind, _, rest = x.partition(":")
        nums = tuple(int(t) for t in rest.split(","))
        node = self.node()
        if kind == "cusp":
            p = nums[0]
            want = ref.reference_kbranch((p,)) * node + ref.reference_pair_correction("cusp-node", p)
            return coeffs(want), 1
        if kind == "kbranch" and set(nums) == {1}:
            k = len(nums)
            aut = math.factorial(k) * (2 if k == 2 else 1)
            return pscale(math.factorial(k), coeffs(ref.reference_two_omp(k - 1, 1))), aut
        if kind == "kbranch" and len(nums) == 2 and nums[1] == 1:
            p = nums[0]
            want = (ref.reference_kbranch((p, 1)) * node
                    + ref.reference_pair_correction("cusp-branch-node", p))
            return coeffs(want), 1
        pinned = self.pins["values"].get(f"{x}+{y}")
        require(pinned is not None, f"no reference for the pair {x}, {y}")
        return tuple(pinned["degree"]), pinned["aut"]

    def expected(self, x: str, y: str | None):
        return self.single(x) if y is None else self.pair(x, y)


# -- per-job checks ------------------------------------------------------------


def check_degree_value(got_coeffs, got_aut, want):
    raw, aut = want
    require(tuple(got_coeffs) == raw, f"degree {got_coeffs} != reference {raw}")
    require(got_aut == aut, f"symmetry order {got_aut} != {aut}")


def check_degree_output(fmt: str, d: int | None, out: str, want):
    raw, aut = want
    value = None if d is None else peval(raw, d) // aut
    if d is not None:
        require(peval(raw, d) % aut == 0, f"reference value at d={d} not divisible by {aut}")
    if fmt == "json":
        payload = json.loads(out)
        check_degree_value([int(c) for c in payload["degree"]], payload["aut_applied"], want)
        if d is not None:
            require(payload["value"] == value, f"value {payload['value']} != {value}")
    elif fmt == "csv":
        (row,) = csv_records(out)
        if d is None:
            check_degree_value(*parse_poly(row["degree"]), want)
        else:
            require(int(row["degree"]) == value, f"value {row['degree']} != {value}")
            require(int(row["d"]) == d, f"d column {row['d']} != {d}")
    else:
        lines = {k.strip(): v for k, _, v in
                 (line.partition(":") for line in out.splitlines() if ":" in line)}
        check_degree_value(*parse_poly(lines["degree"]), want)
        if d is not None:
            require(int(lines[f"value at d={d}"]) == value, f"value != {value}")


def check_class_output(out: str, cls, want, pinned_digest: str | None):
    """``cls`` is ``CohClass.from_json`` of the output, made inside the job."""
    payload = json.loads(out)
    body = {k: payload[k] for k in ("variables", "total_degree", "terms")}
    require(cls.to_json() == body, "class JSON does not round-trip through from_json")
    raw, aut = want
    top = cls.coefficient(cls.ambient.top_exponent())
    require(_trim(top.coeffs) == raw, f"top coefficient {top.coeffs} != reference {raw}")
    require(payload["aut"] == aut, f"aut {payload['aut']} != {aut}")
    if pinned_digest is not None:
        require(digest(out) == pinned_digest, "class JSON bytes differ from the pinned digest")


def expected_collision(a: int, b: int) -> dict:
    hi, lo = max(a, b), min(a, b)
    p, q = hi - 1, lo - 1
    if p == q:
        vertices = [[0, 2 * p + 2], [p + 1, 0]]
    else:
        vertices = [[0, p + q + 2], [q + 1, p - q], [p + 1, 0]]
    return {"vertices": vertices, "multiplicity": p + 1,
            "residual_multiplicity": q + 1, "linear": True}


def check_collide_output(fmt: str, a: int, b: int, out: str):
    want = expected_collision(a, b)
    if fmt == "json":
        got = json.loads(out)
    else:
        fields = {k.strip(): v.strip() for k, _, v in
                  (line.partition(":") for line in out.splitlines()[1:])}
        got = {"vertices": json.loads(fields["vertices"]),
               "multiplicity": int(fields["multiplicity"]),
               "residual_multiplicity": int(fields["residual multiplicity"]),
               "linear": fields["linear"] == "True"}
    for key, value in want.items():
        require(got.get(key) == value, f"collide {key}: {got.get(key)} != {value}")


def check_verify_output(out: str):
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    require(not failed, f"verify failures: {failed[:3]}")
    require(any(line.startswith("PASS") for line in lines), "verify printed no PASS line")


def check_table_output(refs: References, family: str, cells, d: int, out: str,
                       pinned_digest: str | None):
    """Values of every cell with a published form; the bytes against the pin."""
    rows = csv_records(out)
    got = {}
    for row in rows:
        require(row["family"] == family and int(row["d"]) == d, f"unexpected row {row}")
        q = int(row["q"]) if row["q"] else None
        got[(int(row["p"]), q)] = int(row["degree"])
    require(sorted(got, key=str) == sorted(cells, key=str),
            f"table cells {sorted(got, key=str)} != {sorted(cells, key=str)}")
    deg = refs.deg
    for (p, q), value in got.items():
        if family == "two-omp":
            if q > 3:
                continue
            want = peval(coeffs(deg.reference_two_omp(p, q)), d) // (2 if p == q else 1)
        elif family == "omp":
            want = peval(refs.single(f"omp:{p + 1}")[0], d)
        elif family == "cusp":
            want = peval(refs.single(f"cusp:{p}")[0], d)
        else:
            want = peval(refs.pair(f"cusp:{p}", "omp:2")[0], d)
        require(value == want, f"{family} cell ({p}, {q}) at d={d}: {value} != {want}")
    if pinned_digest is not None:
        require(digest(out) == pinned_digest, "table CSV bytes differ from the pinned digest")


def write_pins():
    """Record the byte digests and pinned values of the current program."""
    import workloads
    from bistrata import cli, collide, degrees, strata

    pins = {"digests": {}, "values": {}}
    for argv in workloads.table_argvs() + workloads.class_argvs():
        out = io.StringIO()
        require(cli.main(argv, out, io.StringIO()) == 0, f"{argv} failed")
        pins["digests"][" ".join(argv)] = digest(out.getvalue())
    for name, _, kind, mults in workloads.STRATA_JOBS:
        if name in workloads.PINNED_STRATA_JOBS:
            spec = getattr(collide.SingularitySpec, kind)(*mults)
            result = degrees.gysin_degree(strata.node_pair_stratum(spec))
            pins["values"][name] = {"degree": list(result.degree.coeffs),
                                    "aut": result.aut_applied}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pins"]:
        sys.exit("usage: checks.py --write-pins")
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    write_pins()
