import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linarr.field import (
    MAX_ORDER,
    CycField,
    CycNumber,
    _polymul,
    cyc_field,
    cyc_from_strings,
    cyc_to_strings,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    exponent_in_mu,
    root_order,
    zeta_pow,
)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


FROZEN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_frozen():
    for n, coeffs in FROZEN_PHI.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_product_identity():
    # prod over d | n of Phi_d equals t^n - 1
    for n in range(1, 25):
        prod = [1]
        for d in divisors(n):
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == expected


def test_phi_degrees():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 6)] == [1, 1, 2, 2, 4, 2]


def test_zeta4_squares_to_minus_one():
    F = cyc_field(4)
    assert F.zeta * F.zeta == F.scalar(-1)


def test_zeta3_sum_of_conjugates():
    F = cyc_field(3)
    assert F.zeta_pow(1) + F.zeta_pow(2) == F.scalar(-1)


def test_zeta6_inverse_is_fifth_power():
    F = cyc_field(6)
    assert 1 / F.zeta == F.zeta_pow(5)


def test_zeta_pow_frozen_values():
    assert zeta_pow(cyc_field(2), 1) == cyc_field(2).scalar(-1)
    assert zeta_pow(cyc_field(6), 3) == cyc_field(6).scalar(-1)


def test_root_order_examples():
    F6 = cyc_field(6)
    assert root_order(F6.one) == 1
    assert root_order(F6.zeta_pow(2)) == 3
    assert root_order(F6.scalar(2)) is None
    assert root_order(F6.zero) is None


def test_root_order_formula():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        F = cyc_field(n)
        for j in range(n):
            assert root_order(F.zeta_pow(j)) == n // gcd(n, j)


def test_zeta_pow_product_inverse():
    for n in (3, 4, 5, 6, 7):
        F = cyc_field(n)
        for j in range(1, n):
            assert F.zeta_pow(j) * F.zeta_pow(n - j) == F.one


def _sample(F, rng):
    return F.element(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(F.degree)]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
def test_field_axioms_sampled(n):
    F = cyc_field(n)
    rng = random.Random(100 + n)
    for _ in range(12):
        a, b, c = _sample(F, rng), _sample(F, rng), _sample(F, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + F.zero == a
        assert a * F.one == a
        if a:
            assert a * (1 / a) == F.one
            assert (b / a) * a == b


def test_order_ceiling():
    assert len(cyclotomic_polynomial(MAX_ORDER)) == euler_phi(MAX_ORDER) + 1
    for n in (MAX_ORDER + 1, 10 ** 15, 10 ** 23):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(n)


def test_division_by_zero():
    F = cyc_field(4)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_mixed_field_operands_rejected():
    with pytest.raises(ValueError):
        cyc_field(3).one + cyc_field(4).one


def test_scalar_coercion():
    F = cyc_field(6)
    assert F.zeta + 0 == F.zeta
    assert 2 * F.zeta == F.zeta + F.zeta
    assert F.scalar(Fraction(1, 2)) * 2 == F.one


def test_pow_negative_exponent():
    F = cyc_field(5)
    z = F.zeta
    assert z ** -1 == z ** 4
    assert z ** -3 == z ** 2


def test_pow_multiplies_once_per_square_and_set_bit(monkeypatch):
    # x ** e starts from x, at the top bit of e, then squares once per
    # lower bit and multiplies by x once per lower set bit: bit_length +
    # popcount - 2 multiplies, none at e = 0 or 1 (never one * x, never a
    # square past the top bit); the values equal repeated multiplication,
    # and a negative e inverts.
    calls = []
    mul = CycNumber.__mul__
    monkeypatch.setattr(CycNumber, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for F in (cyc_field(5), cyc_field(1)):
        x = F.zeta + 2 if F.degree > 1 else F.scalar(Fraction(-3, 2))
        want = F.one
        for e in range(17):
            del calls[:]
            got = x ** e
            assert len(calls) == max(e.bit_length() + bin(e).count("1") - 2, 0)
            assert got == want
            assert x ** -e * want == F.one
            want = mul(want, x)


def test_hash_consistency():
    F = cyc_field(4)
    assert hash(F.zeta_pow(2)) == hash(F.scalar(-1))
    assert len({F.zeta_pow(j) for j in range(8)}) == 4


def test_exponent_in_mu_same_order():
    F = cyc_field(6)
    for j in range(6):
        assert exponent_in_mu(F.zeta_pow(j), 6) == j


def test_exponent_in_mu_divisor_subgroup():
    # mu_3 inside Q(zeta_6): zeta_6^2 is the canonical zeta_3
    F = cyc_field(6)
    assert exponent_in_mu(F.zeta_pow(2), 3) == 1
    assert exponent_in_mu(F.zeta_pow(4), 3) == 2
    assert exponent_in_mu(F.one, 3) == 0
    assert exponent_in_mu(F.zeta, 3) is None


def test_exponent_in_mu_rational_field():
    # mu_2 inside Q: -1 has exponent 1
    F = cyc_field(1)
    assert exponent_in_mu(F.scalar(-1), 2) == 1
    assert exponent_in_mu(F.one, 2) == 0
    assert exponent_in_mu(F.scalar(2), 2) is None


def test_serialization_round_trip():
    F = cyc_field(5)
    x = F.element([Fraction(3, 2), Fraction(-1, 7), Fraction(0), Fraction(4)])
    strings = cyc_to_strings(x)
    assert all("/" in s for s in strings)
    assert cyc_from_strings(F, strings) == x
    # decimals parse; an exponent is refused, however small
    assert cyc_from_strings(F, ["0.5", "-2", "3/4", "0"]) == F.element(
        [Fraction(1, 2), Fraction(-2), Fraction(3, 4), Fraction(0)])
    for bad in ("1e2", "2E-1", "1.5e0"):
        with pytest.raises(ValueError, match="exponent"):
            cyc_from_strings(F, ["1", bad, "0", "0"])
    for bad in (0.1, True, 1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="not a string"):
            cyc_from_strings(F, ["1", bad, "0", "0"])


def test_field_instances_cached():
    assert cyc_field(6) is cyc_field(6)
    assert cyc_field(6) == CycField(6)


def test_zero_and_one_built_once():
    for n in (1, 5, 12):
        F = cyc_field(n)
        assert F.zero is F.zero
        assert F.one is F.one
        assert not F.zero and F.one == 1


def test_rational_elements_hash_like_python_numbers():
    for n in (1, 5, 8):
        F = cyc_field(n)
        assert hash(F.one) == hash(1)
        assert {1: "a"}.get(F.one) == "a"
        assert {F.scalar(-3): "b"}.get(-3) == "b"
        half = F.scalar(Fraction(1, 2))
        assert half == Fraction(1, 2)
        assert hash(half) == hash(Fraction(1, 2))
        assert {Fraction(1, 2): "c"}.get(half) == "c"


# --- property tests against a schoolbook Fraction reference ---------------


def _ref_mul(F, a, b):
    """Product of two Fraction coefficient tuples in Q[t]/(Phi_n)."""
    deg, mod = F.degree, F.modulus
    conv = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * deg - 2, deg - 1, -1):
        c, conv[k] = conv[k], Fraction(0)
        for i in range(deg):
            conv[k - deg + i] -= c * mod[i]
    return tuple(conv[:deg])


def _ref_inv(F, a):
    """Inverse by Gaussian elimination over Fractions on [M | e0], where
    column j of M is a * t^j."""
    deg = F.degree
    t = tuple(Fraction(int(i == 1)) for i in range(deg)) if deg > 1 else None
    cols, col = [], tuple(a)
    for _ in range(deg):
        cols.append(col)
        if t is not None:
            col = _ref_mul(F, col, t)
    rows = [[c[i] for c in cols] + [Fraction(int(i == 0))] for i in range(deg)]
    for k in range(deg):
        piv = next(r for r in range(k, deg) if rows[r][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(deg):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[k])]
    return tuple(r[deg] for r in rows)


_COEFF = st.one_of(
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
    st.integers(-10**12, 10**12).map(Fraction),
)


@st.composite
def _field_elements(draw, count):
    """A field Q(zeta_n), n in 1..12 (so (Z/n)* of orders 8 and 12, which
    are not cyclic, are included), and `count` elements of it."""
    F = cyc_field(draw(st.integers(1, 12)))
    coeffs = st.lists(_COEFF, min_size=F.degree, max_size=F.degree)
    return F, [F.element(draw(coeffs)) for _ in range(count)]


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    if not any(x.num):
        assert x.den == 1


@settings(max_examples=60, deadline=None)
@given(_field_elements(3))
def test_ring_axioms_property(case):
    F, (a, b, c) = case
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + F.zero == a and a * F.one == a and a * F.zero == F.zero
    assert a - a == F.zero and -a + a == F.zero
    assert (a - b) + b == a


@settings(max_examples=60, deadline=None)
@given(_field_elements(2))
def test_inverse_and_canonical_form_property(case):
    F, (a, b) = case
    results = [a, -a, a + b, a - b, a - a, a * b]
    if a:
        inv = 1 / a
        assert a * inv == 1
        assert (b / a) * a == b
        results.append(inv)
    for x in results:
        _assert_canonical(x)


@settings(max_examples=60, deadline=None)
@given(_field_elements(2))
def test_coeffs_view_property(case):
    F, (a, b) = case
    assert F.element(a.coeffs) == a
    assert a.coeffs == tuple(Fraction(v, a.den) for v in a.num)
    assert (a.sort_key() < b.sort_key()) == (a.coeffs < b.coeffs)
    assert (a.sort_key() == b.sort_key()) == (a == b)
    assert sorted([a, b, -a, a * b], key=lambda x: x.sort_key()) == sorted(
        [a, b, -a, a * b], key=lambda x: x.coeffs
    )
    q = a.coeffs[0]
    assert hash(F.scalar(q)) == hash(q) and F.scalar(q) == q


@settings(max_examples=60, deadline=None)
@given(_field_elements(2))
def test_kernels_match_fraction_reference(case):
    F, (a, b) = case
    assert (a * b).coeffs == _ref_mul(F, a.coeffs, b.coeffs)
    if a:
        assert (1 / a).coeffs == _ref_inv(F, a.coeffs)


# Orders n by phi(n): each degree's fields, (Z/n)* cyclic or not.
_ORDERS_BY_PHI = {1: (1, 2), 2: (3, 4, 6), 4: (5, 8, 10, 12), 6: (7, 9, 14, 18)}


@st.composite
def _polymul_operands(draw):
    """A field of degree phi in {1, 2, 4, 6} and two numerator tuples, each
    general, rational (only a constant term) or zero."""
    phi = draw(st.sampled_from(sorted(_ORDERS_BY_PHI)))
    F = cyc_field(draw(st.sampled_from(_ORDERS_BY_PHI[phi])))
    ints = st.integers(-10**15, 10**15)
    operand = st.one_of(
        st.lists(ints, min_size=phi, max_size=phi).map(tuple),
        ints.map(lambda c: (c,) + (0,) * (phi - 1)),
        st.just((0,) * phi),
    )
    return F, draw(operand), draw(operand)


@settings(max_examples=200, deadline=None)
@given(_polymul_operands())
def test_polymul_matches_the_convolution_mod_phi_property(case):
    F, a, b = case
    got = _polymul(F, a, b)
    assert len(got) == F.degree and all(type(x) is int for x in got)
    assert got == _ref_mul(F, tuple(map(Fraction, a)), tuple(map(Fraction, b)))
    assert got == _polymul(F, b, a)


class _Counted(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_rational_operand_skips_the_convolution():
    # A rational operand on either side scales the other: one product per
    # coefficient, not the deg^2 of a convolution.
    for n in (3, 5, 7):
        F = cyc_field(n)
        general = tuple(map(_Counted, range(2, 2 + F.degree)))
        rational = tuple(map(_Counted, (-7,) + (0,) * (F.degree - 1)))
        for a, b in ((general, rational), (rational, general)):
            _Counted.products = 0
            assert _polymul(F, a, b) == tuple(-7 * x for x in range(2, 2 + F.degree))
            assert _Counted.products == F.degree
