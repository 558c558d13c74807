"""Smoke tests of the scripts under scripts/, loaded by path."""

import importlib.util
import io
import pathlib

from bistrata.cli import main

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_tables_matches_the_table_command(tmp_path, capsys):
    script = load_script("make_tables")
    assert script.run(["--d", "12", "--out-dir", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(f"{family}_d12.csv" for family, _ in script.FAMILIES)
    assert len(written) == 4
    for family, ranges in script.FAMILIES:
        out = io.StringIO()
        assert main(["table", "--family", family, *ranges, "--d", "12"], out, io.StringIO()) == 0
        assert (tmp_path / f"{family}_d12.csv").read_text() == out.getvalue()
    assert capsys.readouterr().out.count(" rows\n") == 4


def test_recover_closed_forms_matches_the_printed_forms(capsys):
    assert load_script("recover_closed_forms").run() == 0
    assert capsys.readouterr().out.count("matches printed form: True") == 3
