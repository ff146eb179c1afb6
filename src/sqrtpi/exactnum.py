"""Exact arithmetic in the ring Z[1/2, w], where w is a primitive 8th root
of unity (w^4 = -1).

Every matrix entry produced by the evaluator lives in this ring.  An element
is four integers over one power of two, (n0 + n1*w + n2*w^2 + n3*w^3) / 2^k,
reduced so that equality is structural and exact.  Useful identities:

    w^2 = i        w^4 = -1        w + w^7 = w - w^3 = sqrt(2)

There is no floating-point path in this module; ``to_complex`` exists only
for display and is never used for decisions.
"""

from __future__ import annotations

import cmath
import math


class DyadicCyclotomic:
    """The element (n0 + n1*w + n2*w^2 + n3*w^3) / 2**k of Z[1/2, w].

    The basis {1, w, w^2, w^3} is free, so the form is canonical once it is
    reduced: k == 0 or some n_i is odd, and zero is ((0, 0, 0, 0), 0).  Build
    elements with :meth:`from_coeffs`.  Instances are immutable and hashable.
    """

    __slots__ = ("n", "k")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DyadicCyclotomic is immutable")

    @staticmethod
    def from_coeffs(nums: tuple[int, int, int, int], k: int = 0) -> DyadicCyclotomic:
        """Element (n0 + n1*w + n2*w^2 + n3*w^3) / 2**k, for any integer k."""
        n0, n1, n2, n3 = nums
        if k < 0:
            n0, n1, n2, n3, k = n0 << -k, n1 << -k, n2 << -k, n3 << -k, 0
        elif k:
            low = n0 | n1 | n2 | n3
            if not low:
                k = 0
            else:
                # the smallest trailing-zero count of the n_i, at most k
                t = min((low & -low).bit_length() - 1, k)
                n0, n1, n2, n3, k = n0 >> t, n1 >> t, n2 >> t, n3 >> t, k - t
        return _new((n0, n1, n2, n3), k)

    @classmethod
    def from_int(cls, n: int) -> DyadicCyclotomic:
        return cls.from_coeffs((n, 0, 0, 0))

    def __repr__(self) -> str:
        return f"DyadicCyclotomic.from_coeffs({self.n!r}, {self.k})"

    def __bool__(self) -> bool:
        return any(self.n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.k == 0 and self.n == (other, 0, 0, 0)
        if isinstance(other, DyadicCyclotomic):
            return self.k == other.k and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.k))

    def __neg__(self) -> DyadicCyclotomic:
        return _new(tuple(-x for x in self.n), self.k)

    def __add__(self, other: DyadicCyclotomic) -> DyadicCyclotomic:
        k = max(self.k, other.k)
        sa, sb = k - self.k, k - other.k  # bring both to the larger exponent
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self.n, other.n
        return DyadicCyclotomic.from_coeffs(
            ((a0 << sa) + (b0 << sb), (a1 << sa) + (b1 << sb),
             (a2 << sa) + (b2 << sb), (a3 << sa) + (b3 << sb)),
            k,
        )

    def __sub__(self, other: DyadicCyclotomic) -> DyadicCyclotomic:
        return self + -other

    def __mul__(self, other: DyadicCyclotomic) -> DyadicCyclotomic:
        # most entries of a denotation are ONE (they come from permutations)
        if self is ONE:
            return other
        if other is ONE:
            return self
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        # the negacyclic product: w^4 = -1
        return DyadicCyclotomic.from_coeffs(
            (
                a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            ),
            self.k + other.k,
        )

    def times_omega_pow(self, n: int) -> DyadicCyclotomic:
        """Multiply by w**n: rotate the coefficients, negating those that wrap."""
        n %= 8
        if n == 0:
            return self
        c = self.n
        if n >= 4:
            c, n = tuple(-x for x in c), n - 4
        return _new(tuple(-x for x in c[4 - n:]) + c[:4 - n], self.k)

    def conjugate(self) -> DyadicCyclotomic:
        """Complex conjugation, w -> w^7 = -w^3."""
        n0, n1, n2, n3 = self.n
        return _new((n0, -n3, -n2, -n1), self.k)

    def to_complex(self) -> complex:
        """Float approximation, for display only."""
        z = 0j
        for i, x in enumerate(self.n):
            if x:
                z += x / (1 << self.k) * cmath.exp(1j * math.pi * i / 4)
        return z

    def to_json(self) -> dict:
        """Each coefficient as a reduced ``num, log2-denominator`` pair."""
        out = []
        for x in self.n:
            t = min((x & -x).bit_length() - 1, self.k) if x else self.k
            out += [x >> t, self.k - t]
        return {"c": out}

    @classmethod
    def from_json(cls, data: dict) -> DyadicCyclotomic:
        """Inverse of ``to_json``; pairs need not be reduced, and a negative
        log-denominator multiplies."""
        v = data["c"]
        if len(v) != 8:
            raise ValueError("expected 8 numerator/log-denominator values")
        pairs = [(v[2 * i], v[2 * i + 1]) for i in range(4)]
        k = max([0] + [e for x, e in pairs if x])
        return cls.from_coeffs(tuple(x << (k - e) if x else 0 for x, e in pairs), k)

    def __str__(self) -> str:
        poly = _poly_str(self.n)
        if self.k == 0:
            return poly
        if sum(1 for x in self.n if x) > 1:
            return f"({poly})/{1 << self.k}"
        return f"{poly}/{1 << self.k}"


# the slot setters bypass __setattr__, which keeps elements immutable
_set_n = DyadicCyclotomic.n.__set__
_set_k = DyadicCyclotomic.k.__set__


def _new(n: tuple[int, int, int, int], k: int) -> DyadicCyclotomic:
    """An element from a form that is already reduced; negating and
    permuting the n_i (``-``, ``conjugate``, ``times_omega_pow``) keeps it so."""
    e = object.__new__(DyadicCyclotomic)
    _set_n(e, n)
    _set_k(e, k)
    return e

_POWERS = ("", "w", "w^2", "w^3")


def _poly_str(nums: tuple[int, int, int, int]) -> str:
    """Render integer coefficients as a polynomial in w, e.g. ``1 - w^2``."""
    parts: list[str] = []
    for i, n in enumerate(nums):
        if n == 0:
            continue
        mag, p = abs(n), _POWERS[i]
        if p and mag == 1:
            body = p
        elif p:
            body = f"{mag}*{p}"
        else:
            body = str(mag)
        if not parts:
            parts.append(f"-{body}" if n < 0 else body)
        else:
            parts.append(f"- {body}" if n < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


ZERO = DyadicCyclotomic.from_int(0)
ONE = DyadicCyclotomic.from_int(1)
OMEGA = DyadicCyclotomic.from_coeffs((0, 1, 0, 0))
IMAG = OMEGA * OMEGA
SQRT2 = DyadicCyclotomic.from_coeffs((0, 1, 0, -1))  # w + w^7
HALF = DyadicCyclotomic.from_coeffs((1, 0, 0, 0), 1)
INV_SQRT2 = SQRT2 * HALF

_OMEGA_POWERS = tuple(ONE.times_omega_pow(n) for n in range(8))


def omega_pow(n: int) -> DyadicCyclotomic:
    """w**n, reduced into the basis (n may be any integer)."""
    return _OMEGA_POWERS[n % 8]
