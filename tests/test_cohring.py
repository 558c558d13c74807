import pytest
from hypothesis import given, settings, strategies as st

from bistrata.coeffring import ParamPoly, binomial
from bistrata.cohring import CohClass, ExactDivisionError, VarSpec, product_of

XL = VarSpec.projective(("X", "L"))
XYL = VarSpec.projective(("X", "Y", "L"))


def gen(ambient, name):
    return CohClass.generator(ambient, name)


def divisor(ambient, f, **parts):
    return CohClass.divisor(ambient, f, parts)


# -- strategies ------------------------------------------------------------

small_poly = st.lists(st.integers(-5, 5), min_size=0, max_size=3).map(ParamPoly)


@st.composite
def classes(draw, ambient=XL, total_degree=2):
    exps = [(i, j) for i in range(3) for j in range(3) if i + j <= total_degree]
    terms = {}
    for exp in exps:
        if draw(st.booleans()):
            terms[exp] = draw(small_poly)
    return CohClass(ambient, total_degree, terms)


@st.composite
def admissible_divisors(draw):
    # F + nilpotent part: always invertible on bounded classes
    parts = {}
    for name in ("X", "L"):
        parts[name] = draw(small_poly)
    return CohClass.divisor(XL, 1, parts)


# -- construction and invariants --------------------------------------------

def test_varspec_rejects_duplicates_and_bad_truncation():
    with pytest.raises(ValueError):
        VarSpec((("X", 3), ("X", 3)))
    with pytest.raises(ValueError):
        VarSpec((("X", 0),))


def test_reduced_form_is_enforced():
    with pytest.raises(ValueError):
        CohClass(XL, 3, {(3, 0): ParamPoly.const(1)})
    with pytest.raises(ValueError):
        CohClass(XL, 1, {(1, 1): ParamPoly.const(1)})  # F exponent would be negative
    with pytest.raises(ValueError):
        CohClass(XL, 2, {(1,): ParamPoly.const(1)})  # wrong arity
    with pytest.raises(ValueError):
        CohClass(XL, 2, {(-1, 1): ParamPoly.const(1)})
    with pytest.raises(ValueError):
        CohClass(XL, -1, {})
    with pytest.raises(TypeError):
        CohClass(XL, 1, {(1, 0): 1.5})
    assert CohClass(XL, 1, {(1, 0): 0, (0, 1): ParamPoly()}).is_zero()


def test_from_json_rejects_malformed_terms():
    good = divisor(XL, 1, X=2).to_json()
    for exps, total in (({"X": 3}, 3), ({"X": 2, "L": 1}, 2), ({"Z": 1}, 1)):
        data = dict(good, total_degree=total,
                    terms=[{"exps": exps, "coeff": ["1"]}])
        with pytest.raises((ValueError, KeyError)):
            CohClass.from_json(data)
    # coefficients are decimal strings: int() would truncate 2.9 to 2 and
    # read true as 1, a plausible wrong class
    for coeff in ([2.9], [True], [1], ["0x10"], ["1_000"], [" 7"], ["2.9"], ["٣"], "12"):
        data = dict(good, terms=[{"exps": {"X": 1}, "coeff": coeff}])
        with pytest.raises(ValueError):
            CohClass.from_json(data)
    signed = dict(good, terms=[{"exps": {"X": 1}, "coeff": ["+3", "-0", "007"]}])
    assert CohClass.from_json(signed) == divisor(XL, 0, X=ParamPoly((3, 0, 7)))


def test_coefficient_rejects_exponents_no_class_holds():
    c = divisor(XL, 1, X=2, L=-1)
    assert c.coefficient({"X": 1}) == ParamPoly.const(2)
    assert c.coefficient((0, 2)) == ParamPoly()
    for monomial in ((-1, 0), {"X": -1}, (0, 3), (1,)):
        with pytest.raises(ValueError):
            c.coefficient(monomial)


def test_nilpotency():
    assert gen(XL, "X") ** 3 == CohClass.zero(XL, 3)
    assert gen(XL, "X") ** 2 * gen(XL, "X") == CohClass.zero(XL, 3)


def test_incidence_product_expansion():
    # (L+X)(L+Y) = L^2 + LY + XL + XY, total degree 2
    lhs = divisor(XYL, 0, X=1, L=1) * divisor(XYL, 0, Y=1, L=1)
    want = CohClass(XYL, 2, {
        (0, 0, 2): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1,
    })
    assert lhs == want
    assert lhs.total_degree == 2


def test_blowup_pushforward_hand_expansion():
    # (X+Y-L)(L+X)(L+Y) = X^2 L + XYL + Y^2 L + X^2 Y + X Y^2 mod cubes
    e = divisor(XYL, 0, X=1, Y=1, L=-1)
    lhs = e * divisor(XYL, 0, X=1, L=1) * divisor(XYL, 0, Y=1, L=1)
    want = CohClass(XYL, 3, {
        (2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 1, (2, 1, 0): 1, (1, 2, 0): 1,
    })
    assert lhs == want


def test_power_of_point_conditions():
    # (F + (d-1)X)^3 = F^3 + 3(d-1) X F^2 + 3(d-1)^2 X^2 F
    base = divisor(XL, 1, X=ParamPoly((-1, 1)))
    cube = base ** 3
    dm1 = ParamPoly((-1, 1))
    assert cube.total_degree == 3
    assert cube.coefficient({}) == ParamPoly.const(1)
    assert cube.coefficient({"X": 1}) == 3 * dm1
    assert cube.coefficient({"X": 2}) == 3 * dm1 ** 2


def test_zeroth_power_is_identity():
    a = divisor(XL, 1, X=2, L=-1)
    assert a ** 0 == CohClass.one(XL)
    assert a ** 0 * a == a


def test_top_coefficient_of_large_power():
    # coefficient of X^2 in (F+(d-p)X)^binom(p+2,2) is binom(binom(p+2,2),2)(d-p)^2
    p = 2
    m = binomial(p + 2, 2)
    power = divisor(XL, 1, X=ParamPoly((-p, 1))) ** m
    assert power.coefficient({"X": 2}) == binomial(m, 2) * ParamPoly((-p, 1)) ** 2
    assert power.coefficient({"X": 2, "L": 2}) == ParamPoly()


def test_extract_beyond_total_degree_is_zero():
    a = divisor(XYL, 0, X=1, L=1) * divisor(XYL, 0, Y=1, L=1)
    assert a.coefficient({"X": 2, "Y": 2, "L": 2}) == ParamPoly()


def test_extract_cusp_degree_hand_expansion():
    # (F+(d-1)X)^3 (F+(d-4)X+2L) (F+(d-3)X) (X+L): the X^2 L^2 coefficient
    # comes only from 2L * L * [X^2 of (F+(d-1)X)^3 (F+(d-3)X)]
    #   = 2 * (3(d-1)^2 + 3(d-1)(d-3)) = 12(d-1)(d-2)
    factors = [
        divisor(XL, 1, X=ParamPoly((-1, 1))) ** 3,
        divisor(XL, 1, X=ParamPoly((-4, 1)), L=2),
        divisor(XL, 1, X=ParamPoly((-3, 1))),
        divisor(XL, 0, X=1, L=1),
    ]
    cls = product_of(factors)
    want = 12 * ParamPoly((-1, 1)) * ParamPoly((-2, 1))
    assert cls.coefficient({"X": 2, "L": 2}) == want


def test_incidence_powers_under_truncation():
    inc = divisor(XL, 0, X=1, L=1)
    assert inc ** 4 == CohClass(XL, 4, {(2, 2): 6})
    assert inc ** 5 == CohClass.zero(XL, 5)


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        gen(XL, "X") * gen(XYL, "X")


def test_addition_requires_matching_grading():
    with pytest.raises(ValueError):
        gen(XL, "X") + CohClass.one(XL)


@settings(max_examples=60)
@given(classes(), classes(), classes())
def test_class_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(classes(), admissible_divisors())
def test_divide_exact_round_trip(a, b):
    if a.is_zero():
        return
    assert (a * b).divide_exact(b) == a


def assert_revalidates(c):
    assert all(not coeff.is_zero() for coeff in c.terms.values())
    assert CohClass(c.ambient, c.total_degree, c.terms) == c


@settings(max_examples=60)
@given(classes(), classes(), admissible_divisors(), small_poly)
def test_ring_built_classes_pass_public_validation(a, b, div, factor):
    # ring operations skip per-term validation; what they build must pass it
    built = [a + b, a - b, -a, a - a, a * b, a * div, div * div * div,
             a.scaled(factor), a ** 2]
    if not a.is_zero():
        built.append((a * div).divide_exact(div))
    for c in built:
        assert_revalidates(c)


def test_divide_exact_keeps_top_level_of_dividend():
    # (F + L) X^2 has a term X^2 L at visible degree 3, above the quotient's
    # total degree; it is matched by the product, not a remainder
    x_sq = CohClass(XL, 2, {(2, 0): 1})
    b = divisor(XL, 1, L=1)
    assert (x_sq * b).divide_exact(b) == x_sq


def test_divide_exact_power_quotient():
    base = divisor(XL, 1, X=ParamPoly((-2, 1)))
    assert (base ** 6).divide_exact(base) == base ** 5


def test_divide_exact_rejects_bad_divisors():
    c = divisor(XL, 1, X=1) * divisor(XL, 1, L=1)
    with pytest.raises(ValueError):
        c.divide_exact(divisor(XL, 2, X=1))  # F coefficient 2
    with pytest.raises(ValueError):
        c.divide_exact(divisor(XL, 0, X=1, L=1))  # no F part
    with pytest.raises(ValueError):
        CohClass.zero(XL, 2).divide_exact(divisor(XL, 1, X=1))


def test_divide_exact_detects_inconsistency():
    # X^2 is not divisible by F + X: the quotient would need negative F powers
    c = CohClass(XL, 2, {(2, 0): 1})
    with pytest.raises(ExactDivisionError):
        c.divide_exact(divisor(XL, 1, X=1))


def test_json_round_trip_matches_schema():
    cls = divisor(XYL, 1, X=ParamPoly((-2, 1)), L=-1) * divisor(XYL, 0, X=1, L=1)
    data = cls.to_json()
    assert data["total_degree"] == 2
    assert data["variables"][0] == {"name": "X", "trunc": 3}
    assert all(set(t) == {"exps", "coeff"} for t in data["terms"])
    assert CohClass.from_json(data) == cls


def test_balanced_product_matches_sequential():
    factors = [divisor(XL, 1, X=ParamPoly((-k, 1)), L=k % 3 - 1) for k in range(1, 9)]
    seq = CohClass.one(XL)
    for f in factors:
        seq = seq * f
    assert product_of(factors) == seq


# -- the Kronecker product kernel against a naive reference ------------------

KERNEL_TRUNCS = (1, 2, 3, 4, 5, 9)
# field-edge values +-2^k and +-(2^k - 1): a packed digit at the limit of its field
edge_int = st.builds(lambda k, less, sign: sign * ((1 << k) - less),
                     st.integers(0, 130), st.integers(0, 1), st.sampled_from((1, -1)))
kernel_poly = st.one_of(
    # interior zeros such as [2, 0, -1] and small values, so that products cancel
    st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), edge_int, st.integers(-2 ** 130, 2 ** 130)),
             min_size=1, max_size=8),
).map(ParamPoly)


@st.composite
def kernel_ambients(draw):
    truncs = draw(st.lists(st.sampled_from(KERNEL_TRUNCS), min_size=1, max_size=3))
    return VarSpec(tuple((f"G{i}", t) for i, t in enumerate(truncs)))


@st.composite
def kernel_classes(draw, ambient):
    truncs = ambient.truncations
    total = sum(t - 1 for t in truncs) + draw(st.integers(0, 2))
    exponent = st.tuples(*(st.integers(0, t - 1) for t in truncs))
    terms = draw(st.dictionaries(exponent, kernel_poly, max_size=8))
    return CohClass(ambient, total, terms)


def naive_product(a, b):
    """Term-by-term product with tuple exponents and ParamPoly arithmetic."""
    truncs = a.ambient.truncations
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            if any(e >= t for e, t in zip(exp, truncs)):
                continue
            out[exp] = out.get(exp, ParamPoly()) + c1 * c2
    return CohClass(a.ambient, a.total_degree + b.total_degree, out)


@settings(max_examples=150)
@given(st.data())
def test_product_matches_naive_reference(data):
    ambient = data.draw(kernel_ambients())
    a = data.draw(kernel_classes(ambient))
    b = data.draw(kernel_classes(ambient))
    got = a * b
    assert got == naive_product(a, b)
    assert got == b * a
    assert_revalidates(got)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("ambient, exps", [
    (VarSpec((("G", 9),)), [(k,) for k in range(9)]),
    (VarSpec.projective(("G", "H")), [(i, j) for i in range(3) for j in range(3)]),
], ids=("one generator", "two generators"))
def test_product_at_extreme_field_width(ambient, exps, sign):
    # the last exponent gets all 9 term pairs, and every contribution to its
    # d^6 coefficient has the same sign and the largest magnitude: 63 = 2^6 - 1
    # products of (2^100 - 1)^2, just under the kernel's field bound
    # 2^(w-1) = 2^206, so a field one bit narrower overflows
    big = (1 << 100) - 1
    poly = ParamPoly([big] * 7)
    total = sum(exps[-1])
    a = CohClass(ambient, total, {e: poly for e in exps})
    b = CohClass(ambient, total, {e: poly * sign for e in exps})
    got = a * b
    assert got.coefficient(exps[-1]).coeffs[6] == sign * 63 * big ** 2
    assert got == naive_product(a, b)
    assert got == b * a


def test_product_drops_cancelled_monomials():
    # (X - L)(X + L) = X^2 - L^2: the two XL terms cancel and are not stored
    prod = divisor(XL, 0, X=1, L=-1) * divisor(XL, 0, X=1, L=1)
    assert prod.terms == {(2, 0): ParamPoly.const(1), (0, 2): ParamPoly.const(-1)}
    # coefficients whose middle or top power cancels keep canonical form
    amb = VarSpec((("G", 2),))
    a = CohClass(amb, 1, {(0,): ParamPoly((1, 1)), (1,): ParamPoly((0, 1))})
    b = CohClass(amb, 1, {(0,): ParamPoly((1, -1)), (1,): ParamPoly((0, 1))})
    assert (a * b).terms == {(0,): ParamPoly((1, 0, -1)), (1,): ParamPoly((0, 2))}


def test_product_with_truncation_one_generator():
    # a generator truncated at 1 has only exponent 0, and its biased field
    # must let 0 + 0 through while X still dies at X^3
    amb = VarSpec((("X", 3), ("Z", 1)))
    x = CohClass.generator(amb, "X")
    assert (x * x).terms == {(2, 0): ParamPoly.const(1)}
    assert (x * x * x).is_zero()
