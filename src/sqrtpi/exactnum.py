"""Exact arithmetic in the ring Z[1/2, w], where w is a primitive 8th root
of unity (w^4 = -1).

Every matrix entry produced by the evaluator lives in this ring.  Elements
are kept in the normal form c0 + c1*w + c2*w^2 + c3*w^3 with dyadic-rational
coefficients, so equality is structural and exact.  Useful identities:

    w^2 = i        w^4 = -1        w + w^7 = w - w^3 = sqrt(2)

There is no floating-point path in this module; ``to_complex`` exists only
for display and is never used for decisions.
"""

from __future__ import annotations

import cmath
import math


def _ntz(n: int) -> int:
    """Number of trailing zero bits of a nonzero integer."""
    return (n & -n).bit_length() - 1


class Dyadic:
    """A dyadic rational num / 2**k, normalized so k == 0 or num is odd.

    Zero is uniquely (0, 0).  Negative ``k`` arguments are folded into the
    numerator.  Instances are immutable and hashable.
    """

    __slots__ = ("num", "k")

    def __init__(self, num: int, k: int = 0) -> None:
        if num == 0:
            object.__setattr__(self, "num", 0)
            object.__setattr__(self, "k", 0)
            return
        if k < 0:
            num <<= -k
            k = 0
        t = _ntz(num)
        if t > k:
            t = k
        object.__setattr__(self, "num", num >> t)
        object.__setattr__(self, "k", k - t)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dyadic is immutable")

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.k})"

    def __str__(self) -> str:
        if self.k == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.k}"

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.k == 0 and self.num == other
        if isinstance(other, Dyadic):
            return self.num == other.num and self.k == other.k
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.k))

    def __neg__(self) -> Dyadic:
        return Dyadic(-self.num, self.k)

    def __add__(self, other: Dyadic) -> Dyadic:
        if self.num == 0:
            return other
        if other.num == 0:
            return self
        k = max(self.k, other.k)
        return Dyadic((self.num << (k - self.k)) + (other.num << (k - other.k)), k)

    def __sub__(self, other: Dyadic) -> Dyadic:
        return self + (-other)

    def __mul__(self, other: Dyadic) -> Dyadic:
        # odd * odd stays odd, so no renormalization loop is needed
        if self.num == 0 or other.num == 0:
            return _D_ZERO
        return Dyadic(self.num * other.num, self.k + other.k)

    def to_float(self) -> float:
        return self.num / (1 << self.k)


_D_ZERO = Dyadic(0)
_D_ONE = Dyadic(1)


class DyadicCyclotomic:
    """An element c0 + c1*w + c2*w^2 + c3*w^3 of Z[1/2, w].

    The basis {1, w, w^2, w^3} is free over the dyadics, so two elements are
    equal iff their coefficient tuples are.  All operations reduce powers of
    w with w^4 = -1.
    """

    __slots__ = ("c",)

    def __init__(self, c0: Dyadic, c1: Dyadic, c2: Dyadic, c3: Dyadic) -> None:
        object.__setattr__(self, "c", (c0, c1, c2, c3))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DyadicCyclotomic is immutable")

    @classmethod
    def from_int(cls, n: int) -> DyadicCyclotomic:
        return cls(Dyadic(n), _D_ZERO, _D_ZERO, _D_ZERO)

    @classmethod
    def from_dyadic(cls, d: Dyadic) -> DyadicCyclotomic:
        return cls(d, _D_ZERO, _D_ZERO, _D_ZERO)

    @classmethod
    def from_coeffs(cls, nums: tuple[int, int, int, int], k: int = 0) -> DyadicCyclotomic:
        """Element (n0 + n1*w + n2*w^2 + n3*w^3) / 2**k."""
        return cls(*(Dyadic(n, k) for n in nums))

    def __repr__(self) -> str:
        return f"DyadicCyclotomic{self.c!r}"

    def __bool__(self) -> bool:
        return any(self.c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == DyadicCyclotomic.from_int(other)
        if isinstance(other, DyadicCyclotomic):
            return self.c == other.c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.c)

    def __neg__(self) -> DyadicCyclotomic:
        return DyadicCyclotomic(*(-x for x in self.c))

    def __add__(self, other: DyadicCyclotomic) -> DyadicCyclotomic:
        a, b = self.c, other.c
        return DyadicCyclotomic(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, other: DyadicCyclotomic) -> DyadicCyclotomic:
        a, b = self.c, other.c
        return DyadicCyclotomic(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __mul__(self, other: DyadicCyclotomic) -> DyadicCyclotomic:
        # most entries of a denotation are ONE (they come from permutations)
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b = self.c, other.c
        out = [_D_ZERO, _D_ZERO, _D_ZERO, _D_ZERO]
        for i in range(4):
            x = a[i]
            if not x:
                continue
            for j in range(4):
                y = b[j]
                if not y:
                    continue
                m = i + j
                if m >= 4:
                    out[m - 4] = out[m - 4] - x * y
                else:
                    out[m] = out[m] + x * y
        return DyadicCyclotomic(*out)

    def times_omega_pow(self, n: int) -> DyadicCyclotomic:
        """Multiply by w**n (cheap coefficient rotation)."""
        n %= 8
        if n == 0:
            return self
        out = [_D_ZERO, _D_ZERO, _D_ZERO, _D_ZERO]
        for i, x in enumerate(self.c):
            if not x:
                continue
            m = i + n
            if m >= 8:
                m -= 8
            if m >= 4:
                out[m - 4] = -x
            else:
                out[m] = x
        return DyadicCyclotomic(*out)

    def conjugate(self) -> DyadicCyclotomic:
        """Complex conjugation, w -> w^7 = -w^3."""
        c = self.c
        return DyadicCyclotomic(c[0], -c[3], -c[2], -c[1])

    def to_complex(self) -> complex:
        """Float approximation, for display only."""
        z = 0j
        for i, x in enumerate(self.c):
            if x:
                z += x.to_float() * cmath.exp(1j * math.pi * i / 4)
        return z

    def to_json(self) -> dict:
        return {"c": [n for d in self.c for n in (d.num, d.k)]}

    @classmethod
    def from_json(cls, data: dict) -> DyadicCyclotomic:
        v = data["c"]
        if len(v) != 8:
            raise ValueError("expected 8 numerator/log-denominator values")
        return cls(*(Dyadic(v[2 * i], v[2 * i + 1]) for i in range(4)))

    def common_denominator(self) -> tuple[tuple[int, int, int, int], int]:
        """Integer numerators over the smallest common 2**k denominator."""
        k = max(d.k for d in self.c)
        return tuple(d.num << (k - d.k) for d in self.c), k

    def __str__(self) -> str:
        nums, k = self.common_denominator()
        poly = _poly_str(nums)
        if k == 0:
            return poly
        if sum(1 for n in nums if n) > 1:
            return f"({poly})/{1 << k}"
        return f"{poly}/{1 << k}"


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
OMEGA = DyadicCyclotomic(_D_ZERO, _D_ONE, _D_ZERO, _D_ZERO)
IMAG = OMEGA * OMEGA
SQRT2 = DyadicCyclotomic.from_coeffs((0, 1, 0, -1))  # w + w^7
HALF = DyadicCyclotomic.from_dyadic(Dyadic(1, 1))
INV_SQRT2 = SQRT2 * HALF

_OMEGA_POWERS = tuple(ONE.times_omega_pow(n) for n in range(8))


def omega_pow(n: int) -> DyadicCyclotomic:
    """w**n, reduced into the basis (n may be any integer)."""
    return _OMEGA_POWERS[n % 8]
