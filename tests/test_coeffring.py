import pytest
from hypothesis import given, strategies as st

from bistrata.coeffring import ParamPoly, binomial

polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(ParamPoly)


def poly_d_minus(a):
    return ParamPoly((-a, 1))


def test_canonical_form_trims_trailing_zeros():
    assert ParamPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert ParamPoly([0, 0]).is_zero()
    assert ParamPoly().degree() == -1


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
