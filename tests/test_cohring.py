import json

import pytest
from hypothesis import given, settings, strategies as st

from bistrata import cohring
from bistrata.cli import _class_json
from bistrata.coeffring import _DECIMAL, ParamPoly, binomial
from bistrata.cohring import (CohClass, ExactDivisionError, VarSpec, product_of,
                              recipe_quotient_top)
from bistrata.strata import StratumClass

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
    # names are strings and truncations ints, not floats or bools
    for generators in ((("X", 3.0),), (("X", True),), ((b"X", 3),), ((None, 3),)):
        with pytest.raises(ValueError):
            VarSpec(generators)


@given(small_poly, small_poly, small_poly)
def test_divisor_equals_the_class_of_its_terms(f, x, line):
    got = divisor(XYL, f, X=x, L=line)
    want = CohClass(XYL, 1, {(0, 0, 0): f, (1, 0, 0): x, (0, 0, 1): line})
    assert got == want and list(got.terms.items()) == list(want.terms.items())


def test_divisor_refuses_generators_it_cannot_hold():
    with pytest.raises(ValueError, match="unknown generator 'Y'"):
        divisor(XL, 1, Y=1)
    # a generator truncated at 1 is zero: its degree-1 monomial is not reduced
    xt = VarSpec((("X", 3), ("T", 1)))
    with pytest.raises(ValueError, match="not reduced"):
        divisor(xt, 1, T=1)
    assert divisor(xt, 1, T=0) == CohClass(xt, 1, {(0, 0): 1})


def test_bool_coefficients_are_refused():
    # a bool would print as 1 but write "True" to JSON, which from_json refuses
    for build in (lambda: divisor(XL, True, X=True), lambda: divisor(XL, 1, X=True),
                  lambda: CohClass(XL, 1, {(1, 0): False}), lambda: gen(XL, "X").scaled(True)):
        with pytest.raises(TypeError):
            build()
    # an int subclass that is not a bool is still an int
    class Count(int):
        pass

    assert divisor(XL, Count(1), X=Count(2)) == divisor(XL, 1, X=2)
    assert gen(XL, "X").scaled(Count(3)) == divisor(XL, 0, X=3)


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
    # the total degree and every exponent entry are ints, not floats or bools
    for total, exp in ((2.0, (1, 0)), (False, (0, 0)), (2, (1.0, 0)), (2, (0, True))):
        with pytest.raises(ValueError):
            CohClass(XL, total, {exp: ParamPoly.const(1)})
    assert CohClass(XL, 1, {(1, 0): 0, (0, 1): ParamPoly()}).is_zero()


def test_from_json_rejects_malformed_terms():
    good = divisor(XL, 1, X=2).to_json()
    for exps, total in (({"X": 3}, 3), ({"X": 2, "L": 1}, 2), ({"Z": 1}, 1)):
        data = dict(good, total_degree=total,
                    terms=[{"exps": exps, "coeff": ["1"]}])
        with pytest.raises(ValueError):
            CohClass.from_json(data)
    # coefficients are decimal strings: int() would truncate 2.9 to 2 and
    # read true as 1, a plausible wrong class
    for coeff in ([2.9], [True], [1], ["0x10"], ["1_000"], [" 7"], ["2.9"], ["٣"], "12"):
        data = dict(good, terms=[{"exps": {"X": 1}, "coeff": coeff}])
        with pytest.raises(ValueError):
            CohClass.from_json(data)
    signed = dict(good, terms=[{"exps": {"X": 1}, "coeff": ["+3", "-0", "007"]}])
    assert CohClass.from_json(signed) == divisor(XL, 0, X=ParamPoly((3, 0, 7)))
    # two terms on one monomial: loading must not keep the last one silently
    for first, second in (({"X": 1}, {"X": 1}), ({}, {"X": 0}), ({"X": 1, "L": 0}, {"X": 1})):
        data = dict(good, terms=[{"exps": first, "coeff": ["1"]},
                                 {"exps": second, "coeff": ["2"]}])
        with pytest.raises(ValueError):
            CohClass.from_json(data)


@pytest.mark.parametrize("field, value", [
    ("total_degree", 2.5),  # printed as (2)*F^1.5*X
    ("total_degree", True),
    ("exps", {"X": True}),  # stored as the key (True, 0)
    ("exps", {"X": 1.0}),  # the first square raised TypeError
    ("trunc", 3.0),  # the first square raised AttributeError
    ("trunc", True),
    ("name", 7),
    ("name", ["X"]),  # unhashable: must not reach the uniqueness check
])
def test_from_json_requires_integer_fields(field, value):
    data = divisor(XL, 1, X=2).to_json()
    if field == "total_degree":
        data["total_degree"] = value
    elif field == "exps":
        data["terms"] = [{"exps": value, "coeff": ["2"]}]
    else:
        data["variables"] = [dict(data["variables"][0], **{field: value}), data["variables"][1]]
    with pytest.raises(ValueError):
        CohClass.from_json(data)


@pytest.mark.parametrize("shape, message", [
    (lambda data: data["terms"][0].update(exps=[["X", 1]]), "'exps' of a term must be"),
    (lambda data: data.update(terms={"a": 1}), "'terms' of a class must be"),
    (lambda data: data["variables"][0].pop("trunc"), "a variable has no 'trunc' field"),
    (lambda data: data["terms"][0].pop("coeff"), "a term has no 'coeff' field"),
    (lambda data: data.pop("total_degree"), "a class has no 'total_degree' field"),
    (lambda data: data["terms"].append(["X", 1]), "a term must be a JSON object"),
    (lambda data: data.update(variables="XL"), "'variables' of a class must be"),
], ids=("exps as pairs", "terms as an object", "no trunc", "no coeff", "no total_degree",
        "term as an array", "variables as a string"))
def test_from_json_refuses_malformed_shapes(shape, message):
    # before the one-pass reader the first was read as {"X": 1} and the others
    # raised TypeError or KeyError
    data = divisor(XL, 1, X=2).to_json()
    shape(data)
    with pytest.raises(ValueError, match=message):
        CohClass.from_json(data)
    with pytest.raises(ValueError, match="a class must be a JSON object"):
        CohClass.from_json([data])


def test_from_json_checks_the_exponent_of_a_zero_term():
    # the term is dropped, but an exponent no class can hold is still refused
    data = divisor(XL, 1, X=2).to_json()
    for exps in ({"X": 3}, {"X": True}, {"X": 2}):
        data["terms"] = [{"exps": exps, "coeff": ["0"]}]
        with pytest.raises(ValueError):
            CohClass.from_json(data)
    data["terms"] = [{"exps": {"X": 1}, "coeff": []}, {"exps": {"L": 1}, "coeff": ["0", "-0"]}]
    assert CohClass.from_json(data) == CohClass.zero(XL, 1)


def test_from_json_accepts_int_subclasses():
    # an int subclass is an int to the checks (only bool is refused), as in
    # the public constructor
    class Count(int):
        pass

    data = divisor(XL, 1, X=2).to_json()
    data["total_degree"] = Count(2)
    data["terms"] = [{"exps": {"X": Count(1), "L": 1}, "coeff": ["3"]}]
    assert CohClass.from_json(data) == CohClass(XL, 2, {(1, 1): 3})


def test_coefficient_rejects_exponents_no_class_holds():
    c = divisor(XL, 1, X=2, L=-1)
    assert c.coefficient({"X": 1}) == ParamPoly.const(2)
    assert c.coefficient((0, 2)) == ParamPoly()
    # a generator the ambient lacks is refused too, not read as zero
    for monomial in ((-1, 0), {"X": -1}, (0, 3), (1,), {"Q": 0}):
        with pytest.raises(ValueError):
            c.coefficient(monomial)
    # exponents are ints, as in the constructor: a bool or a float is refused,
    # not read as the X coefficient
    for monomial in ({"X": True}, (True, 0), {"X": 1.0}, (1.0, 0), (0, False)):
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


def test_power_refuses_an_exponent_that_is_not_an_int():
    # True would be the first power and 2.0 would fail inside the powering
    a = divisor(XL, 1, X=2, L=-1)
    for bad in (True, False, 2.0, 0.0, "2", None):
        with pytest.raises(TypeError):
            a ** bad
        with pytest.raises(TypeError):
            gen(XL, "X") ** bad
    assert a ** 2 == a * a


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
    """No zero coefficient, every coefficient a canonical ParamPoly of ints
    (a tuple whose top entry is nonzero), and the class passes the public
    constructor unchanged."""
    for coeff in c.terms.values():
        assert type(coeff) is ParamPoly and type(coeff.coeffs) is tuple
        assert coeff.coeffs and coeff.coeffs[-1] != 0
        assert all(type(x) is int for x in coeff.coeffs)
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


@settings(max_examples=100)
@given(st.data())
def test_ring_built_classes_read_back_through_packed_keys(data):
    # classes store packed keys and decode tuples only when read; truncations
    # 5 and 9 make fields wider than 2 bits, so a decoder that reads fields
    # at the 2-bit width of the projective truncation 3 shows here, and a
    # hash that depends on the order the ring built the terms in differs
    # from the hash of the same terms built by the public constructor in
    # sorted order
    ambient = data.draw(st.one_of(kernel_ambients(),
                                  st.just(VarSpec((("G0", 5), ("G1", 9))))))
    a = data.draw(kernel_classes(ambient))
    b = data.draw(kernel_classes(ambient))
    div = CohClass.divisor(ambient, 1, data.draw(st.fixed_dictionaries(
        {name: kernel_poly for name, trunc in ambient.generators if trunc > 1})))
    built = [a * b, a * b + b * a, a * b - b * a, -(a * div), a + a.scaled(data.draw(kernel_poly))]
    if not a.is_zero():
        built.append((a * div).divide_exact(div))
    for c in built:
        again = CohClass(c.ambient, c.total_degree, dict(sorted(c.terms.items())))
        assert again == c and hash(again) == hash(c)
        assert CohClass.from_json(c.to_json()) == c
        for exp, coeff in c.terms.items():
            assert c.coefficient(exp) == coeff


def test_product_and_division_decode_no_exponent_tuples(monkeypatch):
    # inside the ring terms stay packed: a product and a division (with its
    # multiply-back check) never read the decoded ``terms``, and neither
    # encodes nor decodes an exponent tuple
    b = divisor(XYL, 1, X=ParamPoly((-4, 1)), Y=-3, L=2)
    factors = [divisor(XYL, 1, X=ParamPoly((-k, 1)), Y=k, L=k % 3 - 1) for k in range(1, 6)]
    left, right = product_of(factors[:3]), product_of(factors[3:] + [b])

    def refuse(self, *args):
        raise AssertionError("an exponent tuple was encoded or decoded")

    monkeypatch.setattr(CohClass, "terms", property(refuse))
    monkeypatch.setattr(VarSpec, "_checked_key", refuse)
    monkeypatch.setattr(VarSpec, "_exponents", refuse)
    dividend = left * right
    quotient = dividend.divide_exact(b)
    monkeypatch.undo()
    assert dividend == product_of(factors + [b])
    assert quotient == product_of(factors)


def test_product_drops_cancelled_monomials():
    # (X - L)(X + L) = X^2 - L^2: the two XL terms cancel and are not stored
    prod = divisor(XL, 0, X=1, L=-1) * divisor(XL, 0, X=1, L=1)
    assert prod.terms == {(2, 0): ParamPoly.const(1), (0, 2): ParamPoly.const(-1)}
    # coefficients whose middle or top power cancels keep canonical form
    amb = VarSpec((("G", 2),))
    a = CohClass(amb, 1, {(0,): ParamPoly((1, 1)), (1,): ParamPoly((0, 1))})
    b = CohClass(amb, 1, {(0,): ParamPoly((1, -1)), (1,): ParamPoly((0, 1))})
    assert (a * b).terms == {(0,): ParamPoly((1, 0, -1)), (1,): ParamPoly((0, 2))}


def test_class_over_no_generators():
    # every key is 0 and there are no fields to decode: the F^k term must
    # still read back as the empty exponent
    ambient = VarSpec(())
    f = CohClass.divisor(ambient, ParamPoly((-2, 1)))
    square = f * f
    assert square.terms == {(): ParamPoly((4, -4, 1))}
    assert str(square) == "(d^2 - 4*d + 4)*F^2"
    assert CohClass.from_json(square.to_json()) == square


def test_product_with_truncation_one_generator():
    # a generator truncated at 1 has only exponent 0, and its biased field
    # must let 0 + 0 through while X still dies at X^3
    amb = VarSpec((("X", 3), ("Z", 1)))
    x = CohClass.generator(amb, "X")
    assert (x * x).terms == {(2, 0): ParamPoly.const(1)}
    assert (x * x * x).is_zero()


# -- the packed division kernel against a naive reference ---------------------

def naive_quotient(c, b):
    """Level-by-level solution of a * b == c with ParamPoly arithmetic.

    b = F + N: the part of a at visible level L is c_L - a_(L-1) * N.
    """
    ambient = c.ambient
    zero = tuple([0] * len(ambient.generators))
    nilpotent = CohClass(ambient, 1, {e: p for e, p in b.terms.items() if e != zero})
    total = c.total_degree - 1
    solved, below = {}, CohClass.zero(ambient, total)
    for level in range(total + 1):
        terms = {e: p for e, p in c.terms.items() if sum(e) == level}
        for e, p in naive_product(below, nilpotent).terms.items():
            terms[e] = terms.get(e, ParamPoly()) - p
        below = CohClass(ambient, total, terms)
        solved.update(below.terms)
    return CohClass(ambient, total, solved)


@settings(max_examples=120)
@given(st.data())
def test_division_matches_naive_reference(data):
    ambient = data.draw(kernel_ambients())
    a = data.draw(kernel_classes(ambient))
    parts = data.draw(st.fixed_dictionaries(
        {name: st.one_of(st.just(ParamPoly()), kernel_poly)
         for name, trunc in ambient.generators if trunc > 1}))
    b = CohClass.divisor(ambient, 1, parts)
    if a.is_zero():
        return
    c = a * b
    assert c.divide_exact(b) == a == naive_quotient(c, b)


@settings(max_examples=80)
@given(st.data())
def test_division_with_remainder_matches_naive_reference(data):
    # a dividend drawn freely is rarely a multiple of b; the packed levels
    # must still agree with the reference, and the check must refuse them
    ambient = data.draw(st.sampled_from((XL, XYL, VarSpec((("G", 5),)))))
    c = data.draw(kernel_classes(ambient))
    b = CohClass.divisor(ambient, 1, data.draw(st.fixed_dictionaries(
        {name: kernel_poly for name in ambient.names})))
    if c.is_zero() or c.total_degree < 1:
        return
    reference = naive_quotient(c, b)
    if naive_product(reference, b) == c:
        assert c.divide_exact(b) == reference
    else:
        with pytest.raises(ExactDivisionError):
            c.divide_exact(b)


@pytest.mark.parametrize("c", (1, -2, 3, -7))
def test_division_at_tight_bound(c):
    # S*F^9 / (F + c*G) = sum_k S*(-c)^k F^(8-k) G^k, and G^9 = 0.  The G^8
    # coefficient S*|c|^8 equals the kernel's bound B_8 = S*r^8 (r = |c|),
    # so a field one bit narrower, or a bound without r, overflows.
    ambient = VarSpec((("G", 9),))
    s = (1 << 100) - 1
    b = CohClass.divisor(ambient, 1, {"G": c})
    quotient = CohClass(ambient, 9, {(0,): s}).divide_exact(b)
    assert quotient.coefficient((8,)).coeffs == (s * abs(c) ** 8,)
    assert quotient == CohClass(ambient, 8, {(k,): s * (-c) ** k for k in range(9)})


def test_divide_exact_checks_by_multiplying_back(monkeypatch):
    # the levels are solved on packed integers; the only class product is
    # the check, the unpacked quotient times the divisor through __mul__
    b = divisor(XYL, 1, X=ParamPoly((-4, 1)), Y=-3, L=2)
    factors = [divisor(XYL, 1, X=ParamPoly((-k, 1)), Y=k, L=k % 3 - 1) for k in range(1, 6)]
    dividend = product_of(factors + [b])
    calls = []
    product = CohClass.__mul__

    def spy(left, right):
        calls.append((left, right))
        return product(left, right)

    monkeypatch.setattr(CohClass, "__mul__", spy)
    quotient = dividend.divide_exact(b)
    assert len(calls) == 1 and calls[0][0] is quotient and calls[0][1] is b
    monkeypatch.undo()
    assert quotient == product_of(factors)


# -- the class JSON writer and the one-pass reader against their references ------

def reference_poly(data):
    """``ParamPoly.from_json`` as it was before the one-pass class reader."""
    if not isinstance(data, list):
        raise ValueError(f"coefficient must be a JSON array, got {data!r}")
    for s in data:
        if not (isinstance(s, str) and _DECIMAL.fullmatch(s)):
            raise ValueError(f"coefficient entry must be a decimal string, got {s!r}")
    return ParamPoly(int(s) for s in data)


def reference_from_json(data):
    """``CohClass.from_json`` as it was before the one-pass reader: an
    exponent tuple per term, then the public constructor checks each again."""
    ambient = VarSpec(tuple((v["name"], v["trunc"]) for v in data["variables"]))
    terms = {}
    for item in data["terms"]:
        exp = ambient.exponent(dict(item["exps"]))
        if exp in terms:
            raise ValueError(f"two terms name the monomial {exp}")
        terms[exp] = reference_poly(item["coeff"])
    return CohClass(ambient, data["total_degree"], terms)


def _outcome(read, payload):
    try:
        return read(payload)
    except ValueError as exc:
        return exc


def _corrupt(data, payload):
    """Change one drawn field of a ``to_json`` payload; most changes make it invalid."""
    variables, terms = payload["variables"], payload["terms"]
    kind = data.draw(st.sampled_from(("total_degree", "trunc", "name", "exponent", "unknown",
                                      "drop entry", "coefficient", "duplicate", "drop term",
                                      "reorder")))
    if kind == "total_degree":
        total = payload["total_degree"]
        shifted = (total - 1, total + 2) if type(total) is int else ()  # not yet corrupted
        payload["total_degree"] = data.draw(st.sampled_from((-1, True, 2.5, "3", None) + shifted))
        return
    if kind in ("trunc", "name"):
        var = data.draw(st.sampled_from(variables))
        var[kind] = data.draw(st.sampled_from(
            (0, -1, True, 3.0, 1, 2, 9) if kind == "trunc"
            else (7, None, "Q", *[v["name"] for v in variables])))
        return
    if not terms:
        return
    term = data.draw(st.sampled_from(terms))
    if kind == "exponent":
        name = data.draw(st.sampled_from([v["name"] for v in variables]))
        term["exps"][name] = data.draw(st.sampled_from((True, False, 1.0, "1", -1, 0, 1, 2, 8, 9)))
    elif kind == "unknown":
        term["exps"]["Q"] = 1
    elif kind == "drop entry" and term["exps"]:
        term["exps"].pop(data.draw(st.sampled_from(list(term["exps"]))))
    elif kind == "coefficient":
        term["coeff"] = data.draw(st.sampled_from(
            ([], ["0"], ["0", "-0"], ["1.5"], [1], "12", ["+3", "-0", "007"], [" 7"], [True])))
    elif kind == "duplicate":
        terms.append({"exps": dict(term["exps"]), "coeff": ["5"]})
    elif kind == "drop term":
        terms.remove(term)
    elif kind == "reorder":
        terms.reverse()


def _holds_a_zero_term_no_class_holds(payload) -> bool:
    """Whether a zero-coefficient term has an exponent the constructor refuses.

    The reference drops such a term unchecked; the one-pass reader refuses it.
    """
    ambient = VarSpec(tuple((v["name"], v["trunc"]) for v in payload["variables"]))
    for item in payload["terms"]:
        if reference_poly(item["coeff"]).is_zero():
            try:
                CohClass(ambient, payload["total_degree"], {ambient.exponent(item["exps"]): 1})
            except ValueError:
                return True
    return False


@settings(max_examples=300)
@given(st.data())
def test_from_json_agrees_with_the_reference_reader(data):
    ambient = data.draw(kernel_ambients())
    a = data.draw(kernel_classes(ambient))
    payload = data.draw(st.sampled_from((a, a * data.draw(kernel_classes(ambient))))).to_json()
    for _ in range(data.draw(st.integers(0, 2))):
        _corrupt(data, payload)
    want = _outcome(reference_from_json, payload)
    got = _outcome(CohClass.from_json, payload)
    if isinstance(want, CohClass):
        if isinstance(got, ValueError):
            assert _holds_a_zero_term_no_class_holds(payload)
        else:
            assert got == want and hash(got) == hash(want)
    else:
        assert isinstance(got, ValueError)


@pytest.mark.parametrize("fault", [
    lambda d: d["terms"][0]["exps"].update(Q=1),
    lambda d: d["terms"][0]["exps"].update(X=True),
    lambda d: d["terms"][0]["exps"].update(X=1.0),
    lambda d: d["terms"][0]["exps"].update(X=-1),
    lambda d: d["terms"][0]["exps"].update(X=3),
    lambda d: d["terms"][1]["exps"].update(L=2),  # X*L^2 above total degree 2
    lambda d: d["terms"].append({"exps": {"L": 0, "X": 1}, "coeff": ["1"]}),
    lambda d: d["terms"][0].update(coeff=["2.9"]),
    lambda d: d["terms"][0].update(coeff="12"),
    lambda d: d.update(total_degree=True),
    lambda d: d.update(total_degree=-2),
    lambda d: d["variables"][0].update(trunc=0),
    lambda d: d["variables"][0].update(name=7),
    lambda d: d["variables"][0].update(name="L"),
], ids=("unknown generator", "bool exponent", "float exponent", "negative exponent",
        "exponent at truncation", "above total degree", "monomial named twice",
        "non-decimal coefficient", "coefficient not an array", "bool total degree",
        "negative total degree", "truncation 0", "name not a string", "names not unique"))
def test_from_json_keeps_every_single_fault_message(fault):
    # (2 - 3d) F X + L^2 + X L over {X, L}, total degree 2
    data = CohClass(XL, 2, {(1, 0): ParamPoly((2, -3)), (0, 2): 1, (1, 1): 1}).to_json()
    fault(data)
    want = _outcome(reference_from_json, data)
    assert isinstance(want, ValueError)
    with pytest.raises(ValueError) as got:
        CohClass.from_json(data)
    assert str(got.value) == str(want)


# generator names json escapes: a quote, a backslash, non-ASCII text, a control character
ESCAPED_NAMES = ('a"b', "back\\slash", "n\u00e4me", "\u2603", "bell\x07", "tab\t")
json_names = st.one_of(st.sampled_from(ESCAPED_NAMES), st.text(max_size=3))


@st.composite
def json_ambients(draw):
    """``kernel_ambients`` under names JSON must escape, or no generator at all."""
    truncs = draw(st.one_of(kernel_ambients(), st.just(VarSpec(())))).truncations
    names = draw(st.lists(json_names, min_size=len(truncs), max_size=len(truncs), unique=True))
    return VarSpec(tuple(zip(names, truncs)))


def _class_payload(stratum):
    payload = stratum.cls.to_json()
    payload.update(aut=stratum.aut_order, valid_from_d=stratum.valid_from_d,
                   route=stratum.route)
    return payload


@settings(max_examples=200)
@given(st.data())
def test_class_json_writer_equals_json_dumps(data):
    ambient = data.draw(st.one_of(kernel_ambients(), json_ambients()))
    a = data.draw(kernel_classes(ambient))
    cls = data.draw(st.sampled_from((a, a * data.draw(kernel_classes(ambient)),
                                     CohClass.zero(ambient, data.draw(st.integers(0, 3))))))
    stratum = StratumClass(cls, data.draw(st.integers(1, 10 ** 6)), data.draw(st.integers(0, 99)),
                           data.draw(st.one_of(st.text(), st.just("d\u00e9g\u00e9n\u00e9r\u00e9"))))
    assert _class_json(stratum) == json.dumps(_class_payload(stratum), indent=2)


@pytest.mark.parametrize("stratum", [
    StratumClass(CohClass.zero(XL, 2), 1, 3, "diagram product"),  # "terms": []
    StratumClass(CohClass.divisor(VarSpec(()), ParamPoly((-2, 1))) ** 2, 2, 0, "F only"),
    StratumClass(CohClass.zero(VarSpec(())), 1, 0, ""),  # "variables": [] and "terms": []
    StratumClass(CohClass.divisor(VarSpec((('q"\\\u00e9\x01', 3),)), 1, {'q"\\\u00e9\x01': 2}),
                 1, 1, "r\u00f6ute \u2603"),
], ids=("zero class", "no generators", "nothing", "escaped names and route"))
def test_class_json_writer_edge_cases(stratum):
    text = _class_json(stratum)
    assert text == json.dumps(_class_payload(stratum), indent=2)
    assert CohClass.from_json(json.loads(text)) == stratum.cls


# -- the top coefficient of a quotient by the kill divisor's series ----------


def one_factor_recipe_top(dividend, kill):
    """The top coefficient of dividend / kill: a built dividend is the
    recipe of one factor."""
    return recipe_quotient_top([(1, [(dividend, 1)])], kill)


@st.composite
def series_ambients(draw):
    truncs = draw(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    return VarSpec(tuple((f"G{i}", t) for i, t in enumerate(truncs)))


@settings(max_examples=200)
@given(st.data())
def test_one_factor_recipe_top_equals_the_division(data):
    # every dividend whose quotient keeps a power of F at the top level
    ambient = data.draw(series_ambients())
    top = ambient.top_exponent()
    total = sum(top) + 1 + data.draw(st.integers(0, 2))
    exponent = st.tuples(*(st.integers(0, t - 1) for t in ambient.truncations))
    a = CohClass(ambient, total, data.draw(st.dictionaries(exponent, kernel_poly, max_size=8)))
    b = CohClass.divisor(ambient, 1, data.draw(st.fixed_dictionaries(
        {name: st.one_of(st.just(ParamPoly()), kernel_poly)
         for name, trunc in ambient.generators if trunc > 1})))
    if a.is_zero():
        return
    assert one_factor_recipe_top(a, b) == a.divide_exact(b).coefficient(top)


@pytest.mark.parametrize("dividend, kill, error, message", [
    (CohClass(XL, 5, {(0, 0): 1}), divisor(XL, 2, X=1), ValueError, "F coefficient 1"),
    (CohClass(XL, 5, {(0, 0): 1}), divisor(XL, 0, X=1, L=1), ValueError, "F coefficient 1"),
    (CohClass(XL, 5, {(0, 0): 1}), divisor(XL, 1, X=1) * divisor(XL, 1, L=1), ValueError,
     "total_degree 1"),
    (CohClass.zero(XL, 5), divisor(XL, 1, X=1), ValueError, "zero class"),
    (CohClass(XL, 5, {(0, 0): 1}), divisor(XYL, 1, X=1), ValueError, "ambient mismatch"),
    (CohClass.one(VarSpec(())), CohClass.divisor(VarSpec(()), 1), ExactDivisionError,
     "total_degree 0"),
])
def test_one_factor_recipe_top_checks_its_arguments_as_divide_exact(dividend, kill, error, message):
    for method in (CohClass.divide_exact, one_factor_recipe_top):
        with pytest.raises(error, match=message):
            method(dividend, kill)


@pytest.mark.parametrize("c", (1, -2, 3, -7))
def test_one_factor_recipe_top_at_tight_bound(c):
    # the G^8 coefficient of S*F^9 / (F + c*G) is S*(-c)^8 = S*|c|^8, the
    # one-factor recipe's bound S*r^8 itself, so a field one bit narrower
    # overflows
    ambient = VarSpec((("G", 9),))
    s = (1 << 100) - 1
    b = CohClass.divisor(ambient, 1, {"G": c})
    for sign in (1, -1):
        dividend = CohClass(ambient, 9, {(0,): sign * s})
        assert cohring._recipe_bound([(1, [(dividend, 1)])], b) == (9, s * abs(c) ** 8)
        assert one_factor_recipe_top(dividend, b).coeffs == (sign * s * abs(c) ** 8,)


def test_one_factor_recipe_top_multinomial_by_hand():
    # F^5 / (F + aX + bL) over {X, L}: the X^2 L^2 coefficient of the series
    # is (-1)^4 * 4!/(2! 2!) * a^2 b^2 = 6 a^2 b^2
    a, b = ParamPoly((-3, 1)), ParamPoly((2, -1, 1))
    kill = divisor(XL, 1, X=a, L=b)
    assert one_factor_recipe_top(CohClass(XL, 5, {(0, 0): 1}), kill) == 6 * a ** 2 * b ** 2


def test_one_factor_recipe_top_below_its_range_raises():
    # q = F^3 + X*L*F has no top monomial X^2 L^2: its level 4 exceeds the
    # total degree 3.  divide_exact recovers q, whose top coefficient reads
    # 0, but q * kill is below the series' range and yields no number.
    kill = divisor(XL, 1, X=ParamPoly((-2, 1)), L=3)
    q = CohClass(XL, 3, {(0, 0): 1, (1, 1): 1})
    dividend = q * kill
    assert dividend.divide_exact(kill) == q and q.coefficient((2, 2)).is_zero()
    with pytest.raises(ExactDivisionError, match="total_degree - 1 >= 4"):
        one_factor_recipe_top(dividend, kill)
    # one total degree higher the series is the quotient
    lifted = (q * CohClass.divisor(XL, 1)) * kill
    assert one_factor_recipe_top(lifted, kill) == lifted.divide_exact(kill).coefficient((2, 2))


def test_one_factor_recipe_top_builds_no_class(monkeypatch):
    # the series reads a built dividend's packed terms: no product, no division
    a = product_of([divisor(XYL, 1, X=ParamPoly((-k, 1)), Y=k, L=1) for k in range(1, 9)])
    kill = divisor(XYL, 1, X=ParamPoly((-4, 1)), L=-2)
    want = a.divide_exact(kill).coefficient(XYL.top_exponent())
    for name in ("__init__", "__mul__", "divide_exact"):
        monkeypatch.setattr(CohClass, name, None)
    assert one_factor_recipe_top(a, kill) == want


# -- the top coefficient of a recipe, from its factors alone -----------------


def multiplied_out(summands):
    """The dividend of a recipe, by the ring's own products and sums."""
    total = None
    for weight, factors in summands:
        term = product_of([x ** e for x, e in factors]).scaled(weight)
        total = term if total is None else total + term
    return total


def l1_norm(x):
    return sum(sum(map(abs, c.coeffs)) for c in x.terms.values())


@st.composite
def recipe_factors(draw, ambient):
    """A divisor F + N, or a class of total degree 0..2 with a few terms."""
    if draw(st.booleans()):
        return CohClass.divisor(ambient, 1, draw(st.fixed_dictionaries(
            {name: st.one_of(st.just(ParamPoly()), kernel_poly)
             for name, trunc in ambient.generators if trunc > 1})))
    total = draw(st.integers(0, 2))
    exponent = st.tuples(*(st.integers(0, t - 1) for t in ambient.truncations)).filter(
        lambda e: sum(e) <= total)
    return CohClass(ambient, total,
                    draw(st.dictionaries(exponent, kernel_poly, min_size=1, max_size=3)))


@st.composite
def recipe_ambients(draw):
    truncs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return VarSpec(tuple((f"G{i}", t) for i, t in enumerate(truncs)))


@st.composite
def recipes(draw):
    """(summands, kill): 1-3 summands over a pool of shared factors, each
    summand padded by a power of F to one total degree in the series' range."""
    ambient = draw(recipe_ambients())
    pool = draw(st.lists(recipe_factors(ambient), min_size=1, max_size=4))
    bare = draw(st.lists(st.tuples(
        st.integers(-3, 3),
        st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 3)), min_size=1, max_size=3)),
        min_size=1, max_size=3))
    degrees = [sum(x.total_degree * e for x, e in factors) for _, factors in bare]
    total = max(max(degrees), sum(ambient.top_exponent()) + 1) + draw(st.integers(0, 1))
    f = CohClass.divisor(ambient, 1)
    summands = [(weight, factors + [(f, total - degree)])
                for (weight, factors), degree in zip(bare, degrees)]
    kill = CohClass.divisor(ambient, 1, draw(st.fixed_dictionaries(
        {name: st.one_of(st.just(ParamPoly()), kernel_poly)
         for name, trunc in ambient.generators if trunc > 1})))
    return summands, kill


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_recipe_top_equals_the_series_and_the_division(recipe):
    summands, kill = recipe
    dividend = multiplied_out(summands)
    # with no kill divisor the recipe is a product: the top of the dividend,
    # read at a width whose bound holds every coefficient of the dividend
    assert recipe_quotient_top(summands, None) == dividend.coefficient(
        kill.ambient.top_exponent())
    _, product_bound = cohring._recipe_bound(summands, None)
    assert all(abs(c) <= product_bound for poly in dividend.terms.values() for c in poly.coeffs)
    if dividend.is_zero():
        with pytest.raises(ValueError, match="zero class"):
            recipe_quotient_top(summands, kill)
        return
    top = recipe_quotient_top(summands, kill)
    assert top == one_factor_recipe_top(dividend, kill)
    assert top == dividend.divide_exact(kill).coefficient(kill.ambient.top_exponent())
    # the width's bound holds the top and every coefficient of the dividend
    _, bound = cohring._recipe_bound(summands, kill)
    assert all(abs(c) <= bound for c in top.coeffs)
    assert all(abs(c) <= bound for poly in dividend.terms.values() for c in poly.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_power_bound_holds_the_power(data):
    ambient = data.draw(recipe_ambients())
    x = data.draw(recipe_factors(ambient))
    e = data.draw(st.integers(0, 12))
    height = sum(ambient.top_exponent())
    assert cohring._power_bound(x, e, height) >= l1_norm(x ** e)


def test_power_bound_of_a_kill_divisor_is_binomial():
    # (F + 3X)^5 over {X}: 1 + 5*3 + 10*9 = 106 = ||x^5||, where ||x||^5 = 1024
    ambient = VarSpec.projective(("X",))
    x = CohClass.divisor(ambient, 1, {"X": 3})
    assert cohring._power_bound(x, 5, 2) == l1_norm(x ** 5) == 106


def test_recipe_top_below_its_range_raises():
    # the dividend of test_one_factor_recipe_top_below_its_range_raises, as a recipe
    kill = divisor(XL, 1, X=ParamPoly((-2, 1)), L=3)
    q = CohClass(XL, 3, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(ExactDivisionError, match="total_degree - 1 >= 4"):
        recipe_quotient_top([(1, [(q, 1), (kill, 1)])], kill)
    f = CohClass.divisor(XL, 1)
    lifted = [(1, [(q, 1), (f, 1), (kill, 1)])]
    assert recipe_quotient_top(lifted, kill) == one_factor_recipe_top(multiplied_out(lifted), kill)


@pytest.mark.parametrize("summands, message", [
    ([], "at least one summand"),
    ([(1, [])], "empty product"),
    ([(1, [(divisor(XL, 1, X=1), -1)])], "negative powers"),
    ([(1, [(divisor(XL, 1, X=1), 5)]), (1, [(divisor(XL, 1, L=1), 6)])], "total degree 5 and 6"),
    ([(1, [(divisor(XL, 1, X=1), 4), (divisor(XYL, 1, X=1), 1)])], "ambient mismatch"),
])
def test_recipe_top_refuses_malformed_recipes(summands, message):
    # over a kill divisor, and as a product with none
    for kill in (divisor(XL, 1, X=2), None):
        with pytest.raises(ValueError, match=message):
            recipe_quotient_top(summands, kill)


def test_product_top_of_a_class_is_its_coefficient():
    # a built class is the recipe of one factor; below its top level the top is 0
    a = product_of([divisor(XYL, 1, X=ParamPoly((-k, 1)), Y=k, L=1) for k in range(1, 9)])
    assert recipe_quotient_top([(1, [(a, 1)])], None) == a.coefficient(XYL.top_exponent())
    assert recipe_quotient_top([(1, [(divisor(XYL, 1, X=1), 5)])], None).is_zero()


def test_recipe_top_builds_no_class(monkeypatch):
    # packed factors, products and the series: no class, product or division
    factors = [(divisor(XYL, 1, X=ParamPoly((-k, 1)), Y=k, L=1), 1) for k in range(1, 7)]
    summands = [(2, factors + [(divisor(XYL, 1, Y=1), 2)]),
                (-1, factors[:3] + [(divisor(XYL, 1, L=ParamPoly((1, 1))), 5)])]
    kill = divisor(XYL, 1, X=ParamPoly((-4, 1)), L=-2)
    want = multiplied_out(summands).divide_exact(kill).coefficient(XYL.top_exponent())
    for name in ("__init__", "__mul__", "__pow__", "__add__", "divide_exact"):
        monkeypatch.setattr(CohClass, name, None)
    assert recipe_quotient_top(summands, kill) == want
