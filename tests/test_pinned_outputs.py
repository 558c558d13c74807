"""Byte identity of ``class --format json`` on the heavy strata.

The digests were recorded with the term-by-term product kernel, before the
row-convolution kernel and then the Kronecker-substituted one (packed
coefficients, one integer multiply per term pair) replaced it; any change
to a coefficient, an exponent, the term order or the JSON layout changes
them.
"""

import hashlib
import io

import pytest

from bistrata.cli import main

PINNED = {
    ("--x", "kbranch:1,1,1,1,1"):
        "f798cccc2aad5934526ed3ffcf822213ceb72e026661f68e09b02bf5e74fe523",
    ("--x", "kbranch:3,1,1,1,1"):
        "e6ccb25c2a30c409196ccfbf2d5a18f5b3f1a5c02e5f0291294820738a7e79b2",
    ("--x", "kbranch:2,2,1,1"):
        "a28c2315afee66bf1d43367b00cc7e057855604d8787852313e576405d698886",
    ("--x", "kbranch:1,1,1,1,1", "--y", "omp:2"):
        "4a8f0caf12a4e8771fdc05491d1922588c5200bce4d7d16403180bae63ddde97",
    ("--x", "kbranch:2,2,1", "--y", "omp:2"):
        "db62b043bc8d868f6a983eb6499259c4221ea9128eeb92336a1432da91fa1ab0",
    ("--x", "cusp:9", "--y", "omp:2"):
        "1574c50877af8301fcca8fa824a810626928af8740a7dbb1ead3dfb43b1fb7e6",
    ("--x", "omp:13", "--y", "omp:7"):
        "2e9c0c024b60e552ad334081426d5238b0f9f5342fb150bbcf63bb13152af50d",
}


@pytest.mark.parametrize("args", sorted(PINNED), ids=" ".join)
def test_class_json_is_byte_identical(args):
    out, err = io.StringIO(), io.StringIO()
    assert main(["class", *args, "--format", "json"], out, err) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[args]
