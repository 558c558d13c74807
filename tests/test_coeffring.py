import operator
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from bistrata import coeffring
from bistrata.coeffring import ParamPoly, binomial
from bistrata.degrees import _zpoly

polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(ParamPoly)
# up to 12 coefficients: products on both sides of the kernel cap (8)
wide_polys = st.one_of(polys, st.lists(st.integers(), max_size=12).map(ParamPoly))
ints = st.one_of(st.integers(-9, 9), st.integers())


def poly_d_minus(a):
    return ParamPoly((-a, 1))


def test_canonical_form_trims_trailing_zeros():
    assert ParamPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert ParamPoly([0, 0]).is_zero()
    assert ParamPoly().degree() == -1


def test_const_is_canonical():
    for c in (0, 1, -7, 3 ** 90):
        assert ParamPoly.const(c).coeffs == ParamPoly([c]).coeffs
        assert type(ParamPoly.const(c).coeffs) is tuple
    assert ParamPoly.const(0).is_zero()


def test_bool_is_no_coefficient():
    # bool is an int subclass, but a bool coefficient would serialise as
    # "True", which from_json refuses
    a = ParamPoly([1, 2])
    for build in (lambda: ParamPoly([1, True]), lambda: ParamPoly([False]),
                  lambda: ParamPoly.const(True), lambda: ParamPoly.const(False),
                  lambda: ParamPoly._coerce(True)):
        with pytest.raises(TypeError):
            build()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(a, True)
        with pytest.raises(TypeError):
            op(False, a)
    assert a.__eq__(True) is NotImplemented
    assert ParamPoly.const(1) != True  # noqa: E712
    assert ParamPoly.const(1) == 1 and ParamPoly() == 0


def test_binomial_square():
    # (d-1)*(d-1) = d^2 - 2d + 1
    assert poly_d_minus(1) * poly_d_minus(1) == ParamPoly([1, -2, 1])


def test_additive_identity():
    a = ParamPoly([3, 0, 7])
    assert a + ParamPoly() == a


def test_product_evaluation():
    # 3(d-1)^2 * 1 at d=4 is 27
    assert (3 * poly_d_minus(1) ** 2 * ParamPoly.const(1))(4) == 27


def test_eval_corollary_value_by_hand():
    # 9(d-1)^4 - 42(d-1)^2 + 33(d-1) at d=3:
    # 9*16 - 42*4 + 33*2 = 144 - 168 + 66 = 42
    dm1 = poly_d_minus(1)
    poly = 9 * dm1 ** 4 - 42 * dm1 ** 2 + 33 * dm1
    assert poly(3) == 42


def test_eval_zero_and_shifted_square():
    assert ParamPoly()(17) == 0
    assert (poly_d_minus(2) ** 2)(5) == 9


def test_shifted_is_taylor_shift():
    poly = ParamPoly([1, -3, 2])
    shifted = poly.shifted(4)
    for d in range(-3, 4):
        assert shifted(d) == poly(d + 4)


def test_shifted_refuses_a_shift_that_is_not_an_int():
    # a float shift would leave float coefficients, which from_json refuses
    poly = ParamPoly([1, 2])
    for bad in (0.5, 2.0, True, False, "1", None):
        with pytest.raises(TypeError):
            poly.shifted(bad)
        with pytest.raises(TypeError):
            ParamPoly().shifted(bad)
    assert poly.shifted(-3).coeffs == (-5, 2)


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _sweep_operands(n):
    """Coefficient tuples of length n with a nonzero top entry: zero middle
    entries, alternating signs, 100-bit entries, and negative 100-bit ones."""
    big = 2 ** 100
    return [
        (3,) + (0,) * (n - 2) + (-5,) if n > 1 else (-5,),
        tuple((-1) ** i * (i + 2) for i in range(n)),
        tuple(big - 7 * i + 1 for i in range(n)),
        tuple(-big - i if i % 2 else 0 for i in range(n - 1)) + (-big,),
    ]


SWEEP = range(1, coeffring._KERNEL_CAP + 3)


@pytest.mark.parametrize("la", SWEEP)
def test_products_of_every_shape_to_past_the_cap(la):
    # every shape (la, lb), lb <= la, from 1 x 1 to two entries past the cap,
    # in both operand orders: up to the cap each product runs the shape's
    # kernel, past it the double loop
    for lb in range(1, la + 1):
        for a in _sweep_operands(la):
            for b in _sweep_operands(lb):
                want = _schoolbook(a, b)
                for got in (ParamPoly(a) * ParamPoly(b), ParamPoly(b) * ParamPoly(a)):
                    _assert_canonical(got)
                    assert got.coeffs == want
                    n = got.degree()
                    assert all(got(d0) == ParamPoly(a)(d0) * ParamPoly(b)(d0)
                               for d0 in range(-1, n + 1))
        assert ((la, lb) in coeffring._KERNELS) == (la <= coeffring._KERNEL_CAP)


def test_kernels_stay_within_the_cap():
    cap = coeffring._KERNEL_CAP
    before = dict(coeffring._KERNELS)
    wide = ParamPoly(range(1, cap + 2))
    for other in (ParamPoly([2]), ParamPoly([1, 1]), wide, ParamPoly(range(1, 3 * cap))):
        assert (wide * other).coeffs == _schoolbook(wide.coeffs, other.coeffs)
    assert coeffring._KERNELS == before  # a factor longer than the cap adds no kernel
    ParamPoly([1, 2]) * ParamPoly([3])
    assert all(type(key) is tuple and len(key) == 2 and 1 <= key[1] <= key[0] <= cap
               and callable(kernel) for key, kernel in coeffring._KERNELS.items())
    assert (2, 1) in coeffring._KERNELS


def test_no_kernel_is_generated_at_import():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import bistrata.cli; "
             "from bistrata import coeffring; print(len(coeffring._KERNELS))")
    done = subprocess.run([sys.executable, "-c", probe, str(src)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "0\n"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@given(polys)
def test_power_is_repeated_multiplication(a):
    product = ParamPoly.const(1)
    for n in range(13):
        assert a ** n == product
        product = product * a


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (28, 6)])
def test_power_takes_no_wasted_product(monkeypatch, n, products):
    # one squaring per bit below the top one, one product per further set bit
    calls = []
    real = ParamPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    z = ParamPoly((-3, 1))
    monkeypatch.setattr(ParamPoly, "__mul__", counted)
    got = z ** n
    monkeypatch.undo()
    assert len(calls) == products
    assert got(5) == 2 ** n


@given(polys, st.integers(-5, 5))
def test_evaluation_is_a_ring_map(a, d0):
    b = ParamPoly([2, -1])
    assert (a * b)(d0) == a(d0) * b(d0)
    assert (a + b)(d0) == a(d0) + b(d0)


def test_json_round_trip():
    poly = ParamPoly([-66, 81, 12, -36, 9])
    assert ParamPoly.from_json(poly.to_json()) == poly
    assert poly.to_json() == ["-66", "81", "12", "-36", "9"]


@pytest.mark.parametrize("n,k,value", [(4, 2, 6), (6, 2, 15), (10, 2, 45),
                                       (5, 0, 1), (3, 5, 0), (2, -1, 0)])
def test_binomial(n, k, value):
    assert binomial(n, k) == value


def _assert_canonical(poly):
    assert type(poly) is ParamPoly and type(poly.coeffs) is tuple
    assert all(type(c) is int for c in poly.coeffs)
    assert not poly.coeffs or poly.coeffs[-1] != 0


def _degree(x):
    return x.degree() if isinstance(x, ParamPoly) else 0


def _value(x, d0):
    return x(d0) if isinstance(x, ParamPoly) else x


# An oracle outside the ring's own arithmetic: a polynomial of degree at most
# n is fixed by its values at n + 1 points, and evaluation is Horner alone.
# The ring axioms are no such oracle: a product that always returns zero
# satisfies all three, and ``__mul__`` swaps its operands by length, so
# a * b == b * a compares one computation with itself when the lengths differ.
@given(st.one_of(st.tuples(wide_polys, st.one_of(wide_polys, ints)),
                 st.tuples(ints, wide_polys)))
def test_ring_operations_agree_with_evaluation(operands):
    a, b = operands
    for op, bound in ((operator.add, max), (operator.sub, max),
                      (operator.mul, operator.add)):
        got = op(a, b)
        _assert_canonical(got)
        n = max(bound(_degree(a), _degree(b)), 0)
        assert got.degree() <= n
        assert all(got(d0) == op(_value(a, d0), _value(b, d0)) for d0 in range(-1, n + 1))


@given(wide_polys, st.integers(-20, 20))
def test_shifted_agrees_with_evaluation(poly, a):
    got = poly.shifted(a)
    _assert_canonical(got)
    assert got.degree() == poly.degree()
    assert all(got(d0) == poly(d0 + a) for d0 in range(-1, poly.degree() + 1))


def _zpoly_by_powers(p, *terms):
    # the catalog's expansion as first written, through ParamPoly powers
    z = ParamPoly((-p, 1))
    acc = ParamPoly()
    for k, c in terms:
        acc = acc + ParamPoly.const(c) * z ** k
    return acc


@given(st.integers(-20, 20),
       st.lists(st.tuples(st.integers(0, 6), ints), min_size=1, max_size=5))
def test_zpoly_is_the_power_expansion(p, terms):
    got = _zpoly(p, *terms)
    _assert_canonical(got)
    assert got == _zpoly_by_powers(p, *terms)
