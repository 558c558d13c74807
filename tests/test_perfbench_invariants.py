"""Invariants the benchmark under perfbench/ relies on, with its modules
loaded by path."""

import io

from bistrata.cli import main


def test_tracer_self_test_holds_after_a_table_sweep(perfbench):
    # The table cell builds two_omp_stratum(6, 3), the stratum the tracer's
    # self-test builds and counts products of; a memoised builder would
    # skip those products in a warm process.
    tracer = perfbench("tracer")
    argv = ["table", "--family", "two-omp", "--p-range", "6..6", "--q-range", "3..3",
            "--d", "40"]
    assert main(argv, io.StringIO(), io.StringIO()) == 0
    assert tracer.self_test() == []
