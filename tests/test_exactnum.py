import cmath
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtpi.exactnum import (
    HALF,
    IMAG,
    INV_SQRT2,
    OMEGA,
    ONE,
    SQRT2,
    ZERO,
    DyadicCyclotomic,
    omega_pow,
)


def dc(n0, n1=0, n2=0, n3=0, k=0):
    return DyadicCyclotomic.from_coeffs((n0, n1, n2, n3), k)


def test_dyadic_normalization():
    assert dc(4, k=2) == dc(1)
    assert dc(6, k=1) == dc(3)
    assert dc(0, k=5) == ZERO
    assert dc(3, k=-2) == dc(12)
    d = dc(10, k=3)
    assert d.n == (5, 0, 0, 0) and d.k == 2
    assert ZERO.n == (0, 0, 0, 0) and ZERO.k == 0
    assert dc(2, 4, 6, 8, k=1) == dc(1, 2, 3, 4)
    assert dc(2, 4, 6, 8, k=3).n == (1, 2, 3, 4)
    assert dc(1, 4, 0, 8, k=2).k == 2  # one odd coefficient keeps the denominator


def test_dyadic_arithmetic():
    half = dc(1, k=1)
    assert half + half == ONE
    assert half * half == dc(1, k=2)
    assert half - half == ZERO
    assert str(dc(3, k=2)) == "3/4"


def test_add_examples():
    assert dc(1, k=1) + dc(1, k=1) == ONE  # 1/2 + 1/2
    assert OMEGA + ZERO == OMEGA
    # w^2 + w^6 = 0 since w^6 = -w^2 under w^4 = -1
    assert omega_pow(2) + omega_pow(6) == ZERO


def test_mul_examples():
    assert OMEGA * omega_pow(7) == ONE
    assert omega_pow(2) * omega_pow(2) == dc(-1)  # i^2 = -1
    # (w + w^7)^2 = 2: expand symbolically, w^8 = 1 and w^6 = -w^2
    assert SQRT2 * SQRT2 == dc(2)
    assert INV_SQRT2 * SQRT2 == ONE


def test_conjugate_examples():
    assert OMEGA.conjugate() == dc(0, 0, 0, -1)  # w^7 = -w^3
    assert ONE.conjugate() == ONE
    assert omega_pow(2).conjugate() == -omega_pow(2)
    assert SQRT2.conjugate() == SQRT2


def test_omega_pow_examples():
    assert omega_pow(8) == ONE
    assert omega_pow(4) == dc(-1)
    assert omega_pow(0) == ONE
    assert omega_pow(-1) == omega_pow(7)


def test_equals_examples():
    assert omega_pow(8) == ONE
    assert OMEGA != omega_pow(3)
    assert dc(1, k=1) + dc(1, k=1) == ONE
    assert dc(1, k=1) != 1 or False  # 1/2 is not the integer 1
    assert dc(2, k=1) == 1


elements = st.builds(
    lambda nums, k: DyadicCyclotomic.from_coeffs(tuple(nums), k),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=6),
)


@settings(max_examples=200)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@settings(max_examples=200)
@given(elements)
def test_times_conjugate_is_real(a):
    p = a * a.conjugate()
    assert p == p.conjugate()
    # |a|^2 is a nonnegative real number (float check is a sanity cross-check
    # of the exact one above, not a decision)
    assert abs(p.to_complex().imag) < 1e-9
    assert p.to_complex().real >= -1e-9


@settings(max_examples=200)
@given(elements)
def test_times_conjugate_gaussian_stays_gaussian(a):
    # on the subring with n1 = n3 = 0 (the Gaussian dyadics) the norm
    # stays in the subring
    g = DyadicCyclotomic.from_coeffs((a.n[0], 0, a.n[2], 0), a.k)
    p = g * g.conjugate()
    assert p.n[1] == 0 and p.n[3] == 0


@settings(max_examples=100)
@given(elements, st.integers(min_value=-16, max_value=16))
def test_times_omega_pow_matches_mul(a, n):
    assert a.times_omega_pow(n) == a * omega_pow(n)


def test_omega_power_addition_law():
    for n in range(-16, 17):
        for m in range(-16, 17):
            assert omega_pow(n) * omega_pow(m) == omega_pow(n + m)


@settings(max_examples=100)
@given(elements)
def test_normalization_idempotent(a):
    # rebuilding from the stored representation is the identity, and the
    # stored form is reduced
    assert DyadicCyclotomic.from_coeffs(a.n, a.k) == a
    assert a.k == 0 or any(x % 2 for x in a.n)
    assert a or (a.n, a.k) == ((0, 0, 0, 0), 0)


@settings(max_examples=100)
@given(elements, elements)
def test_equality_is_structural(a, b):
    if a == b:
        assert (a.n, a.k) == (b.n, b.k)
        assert hash(a) == hash(b)


@settings(max_examples=100)
@given(elements)
def test_json_round_trip(a):
    assert DyadicCyclotomic.from_json(a.to_json()) == a


def test_json_shape():
    assert HALF.to_json() == {"c": [1, 1, 0, 0, 0, 0, 0, 0]}


def test_text_form():
    assert str((ONE - omega_pow(2)) * HALF) == "(1 - w^2)/2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-OMEGA) == "-w"
    assert str(HALF) == "1/2"
    assert str(dc(0, 0, 3, 0, k=2)) == "3*w^2/4"


def test_to_complex_projection():
    z = INV_SQRT2.to_complex()
    assert abs(z - 1 / math.sqrt(2)) < 1e-12
    assert abs(OMEGA.to_complex() - cmath.exp(1j * math.pi / 4)) < 1e-12
    assert abs(IMAG.to_complex() - 1j) < 1e-12


# --- an independent reference ring --------------------------------------------
# An element is four Fractions (c0, c1, c2, c3) meaning sum c_i * w^i, with
# w^4 = -1.  Nothing below reads the representation under test except
# through its public results.

_W = [cmath.exp(1j * math.pi * i / 4) for i in range(4)]


def _ref_omega(c, n):
    # w^i * w^n = w^((i + n) mod 8), and w^(4 + j) = -w^j
    out = [Fraction(0)] * 4
    for i, x in enumerate(c):
        p = (i + n) % 8
        if p < 4:
            out[p] += x
        else:
            out[p - 4] -= x
    return tuple(out)


def _ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * 4
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                p = x * y
                if i + j < 4:
                    out[i + j] += p
                else:
                    out[i + j - 4] -= p
    return tuple(out)


def _ref_conjugate(c):
    # w^i -> w^(8 - i)
    out = (Fraction(0),) * 4
    for i, x in enumerate(c):
        out = _ref_add(out, _ref_omega((x, 0, 0, 0), 8 - i))
    return out


def _ref_of(nums, k):
    scale = Fraction(1, 2 ** k) if k >= 0 else Fraction(2 ** -k)
    return tuple(Fraction(x) * scale for x in nums)


def _log2(d):
    assert d & (d - 1) == 0
    return d.bit_length() - 1


def _ref_json(c):
    return {"c": [v for x in c for v in (x.numerator, _log2(x.denominator))]}


def _ref_str(c):
    den = max(x.denominator for x in c)
    nums = [x.numerator * (den // x.denominator) for x in c]
    terms = []
    for i, x in enumerate(nums):
        if x:
            mag = abs(x)
            body = ["", "w", "w^2", "w^3"][i]
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            sign = ("-" if x < 0 else "") if not terms else ("- " if x < 0 else "+ ")
            terms.append(sign + body)
    poly = " ".join(terms) or "0"
    if den == 1:
        return poly
    return f"({poly})/{den}" if len(terms) > 1 else f"{poly}/{den}"


def _random_coeffs(rng):
    kind = rng.random()
    if kind < 0.1:
        return (0, 0, 0, 0)
    bound = rng.choice([1, 3, 16, 1 << 80])
    nums = [rng.randint(-bound, bound) if rng.random() < 0.75 else 0 for _ in range(4)]
    if kind < 0.4:  # many even numerators, so reduction has work to do
        shift = rng.randint(1, 12)
        nums = [x << shift for x in nums]
    return tuple(nums)


def _random_exponent(rng):
    return rng.choice([0, 0, 1, 2, 3, rng.randint(4, 90), -1, rng.randint(-20, -2)])


def _check(got, ref):
    assert _ref_json(ref) == got.to_json()
    assert str(got) == _ref_str(ref)
    assert bool(got) == any(ref)
    z = sum(complex(float(x)) * w for x, w in zip(ref, _W))
    assert abs(got.to_complex() - z) <= 1e-9 * (1 + abs(z))
    assert DyadicCyclotomic.from_json(got.to_json()) == got
    assert got.k == 0 or any(x % 2 for x in got.n)


def test_ring_matches_fraction_reference():
    rng = random.Random(20240)
    made = []
    for _ in range(10000):
        nums, k = _random_coeffs(rng), _random_exponent(rng)
        if rng.random() < 0.5:
            a, ra = DyadicCyclotomic.from_coeffs(nums, k), _ref_of(nums, k)
        else:
            # from_json takes unreduced pairs, each with its own exponent
            ks = [_random_exponent(rng) for _ in range(4)]
            a = DyadicCyclotomic.from_json({"c": [v for p in zip(nums, ks) for v in p]})
            ra = tuple(_ref_of((x, 0, 0, 0), e)[0] for x, e in zip(nums, ks))
        made.append((a, ra))
        _check(a, ra)

    for i in range(len(made)):
        (a, ra) = made[i]
        if rng.random() < 0.2:
            # the same value written over a larger denominator
            s = rng.randint(1, 8)
            b = DyadicCyclotomic.from_coeffs(tuple(x << s for x in a.n), a.k + s)
            rb = ra
        else:
            b, rb = made[rng.randrange(len(made))]
        _check(a + b, _ref_add(ra, rb))
        _check(a - b, _ref_add(ra, tuple(-x for x in rb)))
        _check(a * b, _ref_mul(ra, rb))
        _check(-a, tuple(-x for x in ra))
        _check(a.conjugate(), _ref_conjugate(ra))
        n = rng.randint(-9, 9)
        _check(a.times_omega_pow(n), _ref_omega(ra, n))
        assert (a == b) == (ra == rb)
        if ra == rb:
            assert hash(a) == hash(b)
        m = rng.randint(-2, 2)
        assert (a == m) == (ra == (m, 0, 0, 0))
