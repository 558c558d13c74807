import operator

import pytest
from hypothesis import given, strategies as st

from bistrata.coeffring import ParamPoly, binomial
from bistrata.degrees import _zpoly

polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(ParamPoly)
wide_polys = st.one_of(polys, st.lists(st.integers(), max_size=6).map(ParamPoly))
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
