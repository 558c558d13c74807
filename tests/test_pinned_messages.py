"""The messages argparse prints for the CLI, byte for byte, each from a
fresh ``python -m bistrata.cli`` process.

The bytes were recorded while ``bistrata.cli`` still imported argparse and
parsed every call with it.  Now a call in canonical form is read from the
option table, and argparse loads only for the rest; these cases all fall
back to it, and pinning them shows that neither the lazy import nor the
parser built from the table changed a message.  They are argparse's output
under CPython 3.11 at 80 columns: other Python versions lay out help text
differently.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# argv -> (exit code, stdout, stderr)
PINNED = {
    ('--help',): (0, """\
usage: bistrata [-h] {degree,class,table,verify,collide} ...

Exact degrees and cohomology classes of equisingular strata of plane curves
with one or two singular points.

positional arguments:
  {degree,class,table,verify,collide}
    degree              degree of a stratum
    class               lifted stratum class
    table               numeric degree tables
    verify              run identity suites
    collide             merge two ordinary points

options:
  -h, --help            show this help message and exit
""", ""),
    ('degree', '--help'): (0, """\
usage: bistrata degree [-h] --x SPEC [--y SPEC] [--d D | --symbolic-d]
                       [--format {text,json,csv}] [--out FILE]

options:
  -h, --help            show this help message and exit
  --x SPEC
  --y SPEC
  --d D                 numeric curve degree
  --symbolic-d          keep d symbolic (default)
  --format {text,json,csv}
  --out FILE            write output to FILE
""", ""),
    ('class', '--help'): (0, """\
usage: bistrata class [-h] --x SPEC [--y SPEC] [--format {text,json}]
                      [--out FILE]

options:
  -h, --help            show this help message and exit
  --x SPEC
  --y SPEC
  --format {text,json}
  --out FILE            write output to FILE
""", ""),
    ('table', '--help'): (0, """\
usage: bistrata table [-h] --family {two-omp,omp,cusp,cusp-node} --p-range
                      A..B [--q-range A..B] --d D [--format {csv,json}]
                      [--out FILE]

options:
  -h, --help            show this help message and exit
  --family {two-omp,omp,cusp,cusp-node}
  --p-range A..B
  --q-range A..B
  --d D                 numeric curve degree (table sizes depend on it)
  --format {csv,json}
  --out FILE            write output to FILE
""", ""),
    ('verify', '--help'): (0, """\
usage: bistrata verify [-h]
                       [--suite {ring,corollary,appendix,recursion,interpolation,all}]
                       [--format {text}] [--out FILE]

options:
  -h, --help            show this help message and exit
  --suite {ring,corollary,appendix,recursion,interpolation,all}
  --format {text}
  --out FILE            write output to FILE
""", ""),
    ('collide', '--help'): (0, """\
usage: bistrata collide [-h] --x SPEC --y SPEC [--format {text,json}]
                        [--out FILE]

options:
  -h, --help            show this help message and exit
  --x SPEC
  --y SPEC
  --format {text,json}
  --out FILE            write output to FILE
""", ""),
    ('degree',): (2, "", """\
usage: bistrata degree [-h] --x SPEC [--y SPEC] [--d D | --symbolic-d]
                       [--format {text,json,csv}] [--out FILE]
bistrata degree: error: the following arguments are required: --x
"""),
    ('degree', '--x', 'omp:3', '--d', '4_0'): (2, "", """\
usage: bistrata degree [-h] --x SPEC [--y SPEC] [--d D | --symbolic-d]
                       [--format {text,json,csv}] [--out FILE]
bistrata degree: error: argument --d: invalid int value: '4_0'
"""),
    ('degree', '--x', 'omp:3', '--symbolic-d', '--d', '4'): (2, "", """\
usage: bistrata degree [-h] --x SPEC [--y SPEC] [--d D | --symbolic-d]
                       [--format {text,json,csv}] [--out FILE]
bistrata degree: error: argument --d: not allowed with argument --symbolic-d
"""),
    (): (2, "", """\
usage: bistrata [-h] {degree,class,table,verify,collide} ...
bistrata: error: the following arguments are required: verb
"""),
    ('bogus',): (2, "", """\
usage: bistrata [-h] {degree,class,table,verify,collide} ...
bistrata: error: argument verb: invalid choice: 'bogus' (choose from 'degree', 'class', 'table', 'verify', 'collide')
"""),
}


@pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: " ".join(argv) or "no-verb")
def test_argparse_message_in_a_fresh_process(argv):
    done = subprocess.run([sys.executable, "-m", "bistrata.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"})
    assert (done.returncode, done.stdout, done.stderr) == PINNED[argv]
