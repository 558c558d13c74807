import ast
import contextlib
import csv
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from bistrata import cli, degrees, strata
from bistrata.cli import build_parser, main, parse_range, parse_type_spec, SpecError
from bistrata.coeffring import ParamPoly, binomial
from bistrata.collide import NewtonDiagram, SingularitySpec, collide_omp, cusp_diagram


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_type_specs():
    assert parse_type_spec("omp:4") == SingularitySpec.omp(4)
    assert parse_type_spec("cusp:3") == SingularitySpec.cusp(3)
    assert parse_type_spec("kbranch:2,1") == SingularitySpec.kbranch(2, 1)
    nd_spec = parse_type_spec("diagram:0,4,2,1,3,0")
    assert nd_spec.diagram.vertices == ((0, 4), (2, 1), (3, 0))
    for bad in ("omp", "omp:x", "omp:1", "what:3", "diagram:1,2,3"):
        with pytest.raises(SpecError):
            parse_type_spec(bad)
    # only ASCII decimal integers, no empty token: int() alone would read
    # the first four as omp:10, omp:3, omp:3 and omp:3
    for bad in ("omp:1_0", "omp:\u0663", "omp: 3", "omp:3,", "kbranch:1,,2", "kbranch:,2",
                "diagram:0,4,,2,0"):
        with pytest.raises(SpecError, match="non-integer parameters"):
            parse_type_spec(bad)


@pytest.mark.parametrize("spec", [
    SingularitySpec.omp(4),
    SingularitySpec.cusp(3),
    SingularitySpec.kbranch(2, 1, 1),
    SingularitySpec.from_diagram(NewtonDiagram.from_points([(0, 4), (2, 1), (3, 0)])),
    SingularitySpec.from_diagram(NewtonDiagram.from_points([(0, 4), (2, 0)])),
    SingularitySpec.from_diagram(collide_omp(3, 1)),
])
def test_describe_parses_back(spec):
    assert parse_type_spec(spec.describe()) == spec


def test_parse_range():
    assert parse_range("1..5") == (1, 5)
    with pytest.raises(SpecError):
        parse_range("5..1")
    with pytest.raises(SpecError):
        parse_range("1-5")
    assert parse_range("-2..+3") == (-2, 3)
    for bad in ("1_0..12", "1..1_2", " 1..3", "1..3 ", "\u0661..3", "..3", "1.."):
        with pytest.raises(SpecError, match="non-integer bounds"):
            parse_range(bad)


def test_degree_two_nodes_json():
    code, out, err = run_cli("degree", "--x", "omp:2", "--y", "omp:2",
                             "--symbolic-d", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # raw coefficient list of 9(d-1)^4 - 42(d-1)^2 + 33(d-1), divided by 2
    assert payload["degree"] == ["-66", "81", "12", "-36", "9"]
    assert payload["aut_applied"] == 2
    assert payload["d"] == "symbolic"


def test_degree_numeric_with_value():
    # d=3 sits below the validity bound p+q+2=4, yet the classical count
    # of binodal cubics still comes out; the payload records the caveat
    code, out, err = run_cli("degree", "--x", "omp:2", "--y", "omp:2",
                             "--d", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["value"] == 21
    assert payload["below_validity"] is True
    assert "below the validity bound" in err
    code, out, _ = run_cli("degree", "--x", "omp:2", "--y", "omp:2",
                           "--d", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["value"] == 225
    assert payload["below_validity"] is False


def _degree_payload(label, result, d0, below):
    # the payload as ``degree --format json`` built it for ``json.dumps``
    payload = {"family": label, **result.to_json(), "d": "symbolic" if d0 is None else d0}
    if d0 is not None:
        payload.update(value=result.value_at(d0), below_validity=below)
    return payload


@given(st.one_of(st.text(), st.sampled_from(('a"b', "back\\slash", "d\u00e9g", "\u2603\x07"))),
       st.lists(st.integers(), max_size=6), st.integers(1, 6), st.integers(-5, 99),
       st.one_of(st.text(), st.just("r\u00f6ute")), st.one_of(st.none(), st.integers()),
       st.booleans())
def test_degree_json_writer_equals_json_dumps(label, coeffs, aut, valid, route, d0, below):
    # aut divides every coefficient, so value_at is defined at every d0
    result = degrees.DegreeResult(ParamPoly([aut * c for c in coeffs]), aut, valid, route)
    assert cli._degree_json(label, result, d0, below) == \
        json.dumps(_degree_payload(label, result, d0, below), indent=2)


@pytest.mark.parametrize("x, y", [("omp:2", "omp:2"), ("cusp:5", "omp:2"),
                                  ("diagram:0,4,2,1,3,0", None), ("kbranch:2,1", None)])
@pytest.mark.parametrize("d_args", [(), ("--d", "3"), ("--d", "40")])
def test_degree_json_prints_the_json_dumps_bytes(x, y, d_args):
    # symbolic d, and a numeric d below and above the validity bound
    code, out, _ = run_cli("degree", "--x", x, *(("--y", y) if y else ()), *d_args,
                           "--format", "json")
    result = degrees.stratum_degree(parse_type_spec(x), parse_type_spec(y) if y else None)
    d0 = int(d_args[1]) if d_args else None
    below = d0 is not None and d0 < result.valid_from_d
    label = x + ("+" + y if y else "")
    assert code == 0
    assert out == json.dumps(_degree_payload(label, result, d0, below), indent=2) + "\n"


@pytest.mark.parametrize("spec", ["diagram:0,4,2,0", "kbranch:2,1"])
@pytest.mark.parametrize("d_args", [("--symbolic-d",), ("--d", "10")])
def test_degree_csv_quotes_label_with_commas(spec, d_args):
    code, out, _ = run_cli("degree", "--x", spec, *d_args, "--format", "csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header == ["family", "p", "q", "d", "degree"]
    assert len(row) == 5
    assert row[0] == spec


def test_degree_below_validity_warns_but_succeeds():
    code, out, err = run_cli("degree", "--x", "omp:4", "--d", "2")
    assert code == 0
    assert "below the validity bound" in err


def test_table_warns_once_per_cell_below_validity():
    code, out, err = run_cli("table", "--family", "two-omp", "--p-range", "1..6", "--d", "4")
    assert code == 0
    # the formal values, negative ones included, are printed as before
    assert out == ("family,p,q,d,degree\ntwo-omp,1,1,4,225\ntwo-omp,2,1,4,324\n"
                   "two-omp,3,1,4,-300\ntwo-omp,4,1,4,0\ntwo-omp,5,1,4,-19530\n"
                   "two-omp,6,1,4,-185640\n")
    assert err.splitlines() == [
        f"warning: two-omp p={p} q=1: d=4 is below the validity bound d >= {p + 3}; "
        "the value is formal" for p in range(2, 7)]
    code, _, err = run_cli("table", "--family", "omp", "--p-range", "1..3", "--d", "3")
    assert code == 0
    assert err == "warning: omp p=3: d=3 is below the validity bound d >= 4; the value is formal\n"
    code, _, err = run_cli("table", "--family", "two-omp", "--p-range", "1..6", "--d", "40")
    assert code == 0 and err == ""


def test_collide_output():
    code, out, _ = run_cli("collide", "--x", "omp:4", "--y", "omp:2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [[0, 6], [2, 2], [4, 0]]
    assert payload["multiplicity"] == 4
    assert payload["residual_multiplicity"] == 2
    # the order of the two types does not matter
    code2, out2, _ = run_cli("collide", "--x", "omp:2", "--y", "omp:4",
                             "--format", "json")
    assert out2 == out


def test_collide_rejects_non_ordinary_types():
    code, _, err = run_cli("collide", "--x", "cusp:3", "--y", "omp:2")
    assert code == 1
    assert "ordinary points" in err


def test_class_json_schema():
    code, out, _ = run_cli("class", "--x", "omp:2", "--format", "json")
    payload = json.loads(out)
    assert payload["variables"] == [{"name": "X", "trunc": 3}]
    assert payload["total_degree"] == 3
    assert payload["aut"] == 1


def test_table_sorted_and_deterministic(tmp_path):
    args = ("table", "--family", "two-omp", "--p-range", "1..4",
            "--q-range", "1..3", "--d", "10")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [line.split(",") for line in out1.strip().splitlines()[1:]]
    keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)
    assert all(int(r[2]) <= int(r[1]) for r in rows)  # q <= p cells only


def test_table_writes_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli("table", "--family", "omp", "--p-range", "1..3",
                           "--d", "6", "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("family,p,q,d,degree\n")
    assert "omp,1,,6,75" in content  # 3(d-1)^2 at d=6


@pytest.mark.parametrize("argv, message", [
    # every q exceeds every p, so no cell keeps q <= p: a bare header, exit 0
    (("--family", "two-omp", "--p-range", "1..2", "--q-range", "3..4"), "no cell"),
    (("--family", "cusp", "--p-range", "1..1"), "no cell"),
    # a one-parameter family would ignore the range without a word
    (("--family", "omp", "--p-range", "1..3", "--q-range", "5..9"), "takes no --q-range"),
    (("--family", "cusp-node", "--p-range", "2..3", "--q-range", "1..1"), "takes no --q-range"),
])
def test_table_refuses_ranges_it_would_ignore(tmp_path, argv, message):
    code, out, err = run_cli("table", *argv, "--d", "10")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and message in err
    target = tmp_path / "table.csv"
    assert run_cli("table", *argv, "--d", "10", "--out", str(target))[0] == 2
    assert not target.exists()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, where):
    target = tmp_path / "absent" / "table.csv" if where == "missing" else tmp_path
    code, out, err = run_cli("table", "--family", "omp", "--p-range", "1..3",
                             "--d", "6", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: cannot write --out {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "absent").exists()


def test_verify_suite_exits_zero():
    code, out, _ = run_cli("verify", "--suite", "corollary")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("identities hold")


def test_usage_error_exit_code():
    code, _, _ = run_cli("degree", "--x", "nope:3")
    assert code == 2
    code, _, _ = run_cli("degree")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("degree", "--x", "omp:3", "--d", "4_0"),
    ("degree", "--x", "omp:3", "--d", " 40"),
    ("table", "--family", "omp", "--p-range", "1..3", "--d", "4_0"),
])
def test_numeric_d_takes_only_decimal_digits(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert f"argument --d: invalid int value: {argv[-1]!r}" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_class_reads_kbranch_orders_as_one_type(fmt):
    _, first, _ = run_cli("class", "--x", "kbranch:1,2", "--format", fmt)
    _, second, _ = run_cli("class", "--x", "kbranch:2,1", "--format", fmt)
    if fmt == "text":  # the header names the spec as given
        assert first.splitlines()[0] == "class (kbranch:1,2), total degree 11, aut 1:"
        first, second = first.split("\n", 1)[1], second.split("\n", 1)[1]
    assert first == second


def _class_argv(x, y):
    return ["class", "--x", x] + (["--y", y] if y else []) + ["--format", "json"]


def test_class_text_memo_prints_what_the_writer_prints(perfbench):
    # every class the benchmark asks for, in both orders of a pair: the call
    # that writes the memo entry and the call that reads it print the
    # unmemoised writer's text of a fresh build
    perfbench("checks")
    workloads = perfbench("workloads")
    cli._memoised_class_json.cache_clear()
    for x, y in workloads.CLASS_SPECS:
        pair = (parse_type_spec(x), parse_type_spec(y) if y else None)
        want = cli._class_json(strata._build_stratum(*strata._dispatch_order(*pair))) + "\n"
        for argv in [_class_argv(x, y)] + ([_class_argv(y, x)] if y else []):
            for _ in range(2):
                assert run_cli(*argv) == (0, want, "")
    assert cli._memoised_class_json.cache_info().currsize == len(workloads.CLASS_SPECS)


def test_class_text_memo_stores_no_refused_pair():
    memo = cli._memoised_class_json
    memo.cache_clear()
    for _ in range(2):
        code, out, err = run_cli(*_class_argv("cusp:3", "cusp:3"))
        assert (code, out) == (1, "") and err.startswith("error: ")
    assert memo.cache_info().currsize == 0


@pytest.mark.parametrize("spellings", [
    ["cusp:3", "kbranch:3", "diagram:0,4,3,0"],
    ["kbranch:2,1", "kbranch:1,2"],
])
@pytest.mark.parametrize("partner", [None, "omp:2"])
def test_class_text_memo_keys_every_spelling_of_a_type_once(spellings, partner):
    memo = cli._memoised_class_json
    memo.cache_clear()
    printed = set()
    for x in spellings:
        for argv in [_class_argv(x, partner)] + ([_class_argv(partner, x)] if partner else []):
            code, out, _ = run_cli(*argv)
            assert code == 0
            printed.add(out)
    assert len(printed) == 1 and memo.cache_info().currsize == 1


def test_class_text_memo_is_bounded_as_the_stratum_memo():
    maxsize = cli._memoised_class_json.cache_info().maxsize
    assert maxsize == strata._memoised_stratum.cache_info().maxsize == 32


def _modules_before_and_added_by_import():
    # -S: no site hook runs, so the watched modules are absent before the import
    # and the difference can see them arrive
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import bistrata.cli; print(sorted(before)); print(sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    before, added = (set(ast.literal_eval(line)) for line in done.stdout.splitlines())
    assert "bistrata.cli" in added
    return before, added


def test_import_loads_neither_dataclasses_nor_inspect():
    before, added = _modules_before_and_added_by_import()
    watched = {"dataclasses", "inspect", "typing"}
    assert not watched & before
    assert not watched & added


# What ``import bistrata.cli`` loads under -S: the package and its nine
# modules, and these modules of the standard library.  A module outside this
# set is import time every CLI process pays.
PACKAGE_MODULES = {"bistrata"} | {f"bistrata.{name}" for name in (
    "_value", "cli", "coeffring", "cohring", "collide", "degrees", "divisors", "strata",
    "verify")}
STDLIB_MODULES = {
    "__future__", "_bisect", "_collections", "_collections_abc", "_functools", "_operator",
    "_random", "_sha512", "_sre", "_stat", "bisect", "collections",
    "collections.abc", "contextlib", "copyreg", "enum", "functools", "genericpath",
    "itertools", "keyword", "math", "operator", "os", "os.path", "posixpath",
    "random", "re", "re._casefix", "re._compiler", "re._constants", "re._parser", "reprlib",
    "stat", "types", "warnings"}


def test_import_loads_the_package_and_no_new_standard_module():
    before, added = _modules_before_and_added_by_import()
    assert {name for name in added if name.split(".")[0] == "bistrata"} == PACKAGE_MODULES
    assert {name for name in added if name.split(".")[0] != "bistrata"} <= STDLIB_MODULES


def test_import_loads_no_module_that_only_some_outputs_use():
    # fractions (with decimal and numbers) only for a non-convex diagram's
    # message, json and csv only for the formats that print them, argparse
    # (with gettext) only for --help and calls outside the canonical form
    before, added = _modules_before_and_added_by_import()
    watched = {"fractions", "decimal", "numbers", "json", "csv", "argparse", "gettext"}
    assert not watched & before
    assert not watched & added


@pytest.mark.parametrize("argv", [
    ("degree", "--x", "omp:3", "--d", "5", "--format", "json"),
    ("degree", "--x", "diagram:0,4,2,0", "--format", "csv"),
    ("class", "--x", "omp:2", "--format", "json"),
    ("collide", "--x", "omp:4", "--y", "omp:2", "--format", "json"),
    ("table", "--family", "omp", "--p-range", "1..3", "--d", "6", "--format", "json"),
])
def test_formats_load_their_modules_in_a_fresh_process(argv):
    done = subprocess.run([sys.executable, "-m", "bistrata.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stderr) == (0, "")
    assert (0, done.stdout, "") == run_cli(*argv)
    if "csv" in argv:  # the diagram label carries commas
        assert '\n"diagram:0,4,2,0",,,symbolic,' in done.stdout


def test_usage_errors_go_to_the_given_stream(capsys):
    code, out, err = run_cli("degree")
    assert code == 2
    assert out == ""
    assert "usage: bistrata degree" in err
    assert "required" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stream(capsys):
    code, out, err = run_cli("--help")
    assert code == 0
    assert "usage: bistrata" in out
    assert err == ""
    assert capsys.readouterr() == ("", "")


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


MIXED_CALLS = [
    ("degree", "--x", "omp:3"),
    ("degree", "--x", "omp:2", "--y", "omp:2", "--d", "5"),
    ("degree", "--x", "cusp:3", "--d", "7", "--format", "csv"),
    ("degree", "--x", "cusp:3", "--symbolic-d", "--format", "json"),
    ("degree", "--x", "kbranch:2,1", "--y", "omp:2", "--format", "json"),
    ("class", "--x", "omp:2", "--format", "json"),
    ("table", "--family", "omp", "--p-range", "1..3", "--d", "6", "--out", "{tmp}"),
    ("collide", "--x", "omp:4", "--y", "omp:2"),
    ("verify", "--suite", "ring"),
    ("degree", "--x", "nope:3"),
    ("degree", "--x", "omp:3", "--symbolic-d", "--d", "4"),
    ("degree", "--x", "omp:3", "--d", "2"),
    ("table", "--family", "omp", "--p-range", "1..3", "--d", "3"),
]


def test_repeated_calls_are_independent(tmp_path, monkeypatch):
    target = tmp_path / "table.csv"

    def call(argv):
        got = run_cli(*(str(target) if a == "{tmp}" else a for a in argv))
        if target.exists():
            got += (target.read_text(),)
            target.unlink()
        return got

    forward = [call(argv) for argv in MIXED_CALLS]
    backward = [call(argv) for argv in reversed(MIXED_CALLS)][::-1]
    assert forward == backward
    for argv, want in zip(MIXED_CALLS, forward):
        monkeypatch.setattr(cli, "_parser", None)
        assert call(argv) == want
    # a cold build prints what the calls that read the degree and stratum
    # memos printed, warnings included
    for argv, want in zip(MIXED_CALLS, forward):
        degrees._memoised_degree.cache_clear()
        strata._memoised_stratum.cache_clear()
        cli._memoised_class_json.cache_clear()
        assert call(argv) == want
    codes = [got[0] for got in forward]
    assert codes == [0] * 9 + [2, 2, 0, 0]
    assert "not allowed with argument" in forward[10][2]
    assert forward[6][1] == "" and forward[6][3].startswith("family,p,q,d,degree\n")
    assert forward[12][2] == ("warning: omp p=3: d=3 is below the validity bound d >= 4; "
                              "the value is formal\n")


def argparse_reading(parser, argv):
    """``vars(parser.parse_args(argv))``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def check_canonical_reading(parser, argv):
    got = cli._parse_canonical(argv)
    # declined, or exactly what argparse reads; never a call argparse refuses
    assert got is None or got == argparse_reading(parser, argv)
    return got


# every flag, an abbreviation, the --opt=value form and help; values that
# pass, values a type or choices refuse, an empty one, a negative number and
# one that argparse reads as an option, not as a value
OPTION_TOKENS = (*sorted({flag for _, options, _ in cli.VERBS.values() for flag in options}),
                 "--form", "--x=omp:2", "-h", "--help")
VALUE_TOKENS = ("omp:3", "cusp:2", "-3", "", "json", "csv", "text", "bogus", "12", "4_0",
                "omp", "1..3", "ring", "-h")


@st.composite
def argvs(draw):
    """A verb (or not), its options in any order, each left out one time in
    four, with a value its choices or type take or any other; and up to two
    stray options or tokens among them."""
    head = draw(st.sampled_from((*cli.VERBS, "bogus", "--help")))
    chunks = []
    for flag, spec in (cli.VERBS[head][1] if head in cli.VERBS else {}).items():
        if draw(st.integers(0, 3)) == 0:
            continue
        if spec.get("action") == "store_true":
            chunks.append((flag,))
            continue
        good = st.sampled_from(spec.get("choices", ("omp:3", "12")))
        chunks.append((flag, draw(st.one_of(good, st.sampled_from(VALUE_TOKENS)))))
    chunks += draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(OPTION_TOKENS), st.sampled_from(VALUE_TOKENS)),
        st.tuples(st.sampled_from(OPTION_TOKENS + VALUE_TOKENS))), max_size=2))
    return [head] + [token for chunk in draw(st.permutations(chunks)) for token in chunk]


@given(argvs())
@example(["degree", "--x", "-h"])
@example(["degree", "--x", "omp:3", "--d", "-3"])
@example(["degree", "--x", "omp:3", "--x", "omp:2"])
@example(["class", "--x=omp:2", "--form", "json"])
def test_canonical_reading_agrees_with_argparse(argv):
    check_canonical_reading(build_parser(), argv)


def test_benchmark_calls_are_canonical_and_read_as_argparse_reads(perfbench):
    perfbench("checks")
    workloads = perfbench("workloads")
    parser = build_parser()
    streams = [list(query.argv) for seed in range(3)
               for query in workloads.query_stream(random.Random(seed))]
    for argv in streams + workloads.table_argvs():
        assert check_canonical_reading(parser, argv) is not None
    declined = [argv for argv in MIXED_CALLS if check_canonical_reading(parser, argv) is None]
    assert declined == [("degree", "--x", "omp:3", "--symbolic-d", "--d", "4")]


def test_smooth_kbranch_is_a_usage_error():
    # one branch of multiplicity 1 is a smooth point, refused like omp:1
    for argv in (("--x", "kbranch:1"), ("--x", "kbranch:1", "--y", "omp:2")):
        code, out, err = run_cli("degree", *argv)
        assert (code, out) == (2, "")
        assert "total multiplicity >= 2" in err


def test_domain_error_exit_code():
    code, _, err = run_cli("degree", "--x", "cusp:2", "--y", "cusp:2")
    assert code == 1
    assert "unsupported pair" in err


def test_mirrored_diagram_degree_equals_canonical():
    code, mirrored, _ = run_cli("degree", "--x", "diagram:0,2,4,0")
    assert code == 0
    assert mirrored == run_cli("degree", "--x", "diagram:0,4,2,0")[1]
    assert mirrored.startswith("degree: 50*d^2 - 192*d + 168\n")


def test_homogeneous_diagram_routes_to_ordinary_point():
    code, out, _ = run_cli("degree", "--x", "diagram:0,3,3,0", "--format", "json")
    assert code == 0
    want = json.loads(run_cli("degree", "--x", "omp:3", "--format", "json")[1])
    got = json.loads(out)
    assert got.pop("family") == "diagram:0,3,3,0"
    want.pop("family")
    assert got == want


def test_diagram_with_both_axes_tangent_exits_one():
    code, out, err = run_cli("degree", "--x", "diagram:0,3,1,1,3,0")
    assert code == 1
    assert out == ""
    assert "both axes" in err


@pytest.mark.parametrize("spec", ["diagram:0,3,2,0", "diagram:0,4,2,0", "diagram:0,4,3,0",
                                  "diagram:0,5,4,0", "diagram:0,6,5,0"])
def test_canonical_diagrams_keep_their_orientation(spec):
    sx = parse_type_spec(spec)
    canonical = sx.canonical()
    if canonical.kind == "cusp":  # the cusp's normal form reads this very diagram
        assert cusp_diagram(canonical.mults[0]) == sx.diagram
    else:
        assert canonical == sx


@pytest.mark.parametrize("p", range(2, 13))
def test_cusp_spellings_are_one_type(p):
    spellings = (f"cusp:{p}", f"kbranch:{p}", f"diagram:0,{p + 1},{p},0",
                 f"diagram:0,{p},{p + 1},0")
    specs = [parse_type_spec(spelling) for spelling in spellings]
    assert {spec.canonical() for spec in specs} == {SingularitySpec.cusp(p)}
    outputs = {run_cli("class", "--x", spelling, "--format", "json") for spelling in spellings}
    assert len(outputs) == 1
    code, out, _ = outputs.pop()
    assert code == 0 and json.loads(out)["route"] == "diagram product"


@pytest.mark.parametrize("argv", [("class", "--format", "json"), ("degree",)])
def test_cusp_diagram_beside_a_node_is_the_cusp_pair(argv):
    verb, *fmt = argv
    code, out, _ = run_cli(verb, "--x", "diagram:0,3,2,0", "--y", "omp:2", *fmt)
    assert (code, out) == (0, run_cli(verb, "--x", "cusp:2", "--y", "omp:2", *fmt)[1])


def test_smooth_diagram_exits_one():
    # multiplicity 1 is a smooth point, not cusp:1
    for argv in (("--x", "diagram:0,2,1,0"), ("--x", "diagram:0,1,2,0")):
        code, out, err = run_cli("degree", *argv)
        assert (code, out) == (1, "")
        assert "smooth points have no stratum" in err


def test_class_prints_the_bare_stratum():
    # degree multiplies in the tangent incidence; class leaves it out
    code, out, _ = run_cli("class", "--x", "cusp:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_degree"] == binomial(4, 2) + 3
