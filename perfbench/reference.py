"""Independent float reference interpreter for sqrtpi surface terms.

It shares no code with ``sqrtpi``: terms are parsed and typed by
``refterms`` and evaluated here with numpy, from the index conventions the
project README fixes (a sum indexes its left summand first; a product
indexes with the left factor most significant; ``c1 ; c2`` runs ``c1``
first).  The benchmark uses it outside the timed region to check results
that the exact toolchain printed, so a check never trusts the code it checks.
"""

from __future__ import annotations

import numpy as np

from refterms import Node, TermError, Types, dim, typed

# Every primitive whose denotation is the identity under the README's index
# conventions.
_IDENTITIES = {
    "id", "assocr+", "assocl+", "unite+l", "uniti+l", "assocr*", "assocl*",
    "unite*l", "uniti*l", "dist", "factor", "absorbl", "factorzr",
}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# v = H . diag(-1, i) . H, a square root of the swap+ (X) matrix
_V = _H @ np.diag([-1, 1j]) @ _H
OMEGA = np.exp(1j * np.pi / 4)


def _prim(name: str, src: tuple, tgt: tuple) -> np.ndarray:
    if name in _IDENTITIES:
        return np.eye(dim(src), dtype=complex)
    if name == "v":
        return _V
    if name == "vi":
        return _V.conj().T
    if name == "w":
        return np.array([[OMEGA]])
    if name == "wi":
        return np.array([[OMEGA.conjugate()]])
    d1, d2 = dim(src[1]), dim(src[2])
    n = dim(src)
    m = np.zeros((n, n), dtype=complex)
    for j in range(n):
        if name == "swap+":
            m[j + d2 if j < d1 else j - d1, j] = 1
        else:  # swap*: basis (a, b) of a*b goes to (b, a) of b*a
            m[(j % d2) * d1 + j // d2, j] = 1
    return m


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _eval(node: Node, u: Types) -> np.ndarray:
    vals: dict[int, np.ndarray] = {}
    stack = [(node, False)]
    while stack:
        n, done = stack.pop()
        if not done:
            stack.append((n, True))
            stack.extend((k, False) for k in n.kids)
            continue
        kids = [vals.pop(id(k)) for k in n.kids]
        if n.kind == "prim":
            m = _prim(n.name, u.resolve(n.src), u.resolve(n.tgt))
        elif n.kind == "seq":
            m = kids[0]
            for k in kids[1:]:
                m = k @ m
        elif n.kind == "sum":
            m = _block_diag(*kids)
        elif n.kind == "prod":
            m = np.kron(*kids)
        else:
            m = kids[0]
        vals[id(n)] = m
    return vals[id(node)]


def evaluate(text: str, src: tuple | None = None, tgt: tuple | None = None) -> np.ndarray:
    """Matrix of a printed term, optionally pinned to ``src <-> tgt``."""
    return _eval(*typed(text, src, tgt))


def verdict(a: np.ndarray, b: np.ndarray, phase: bool, tol: float = 1e-9) -> str:
    """``equal``, ``equal_with_phase k`` (a = w^k b) or ``not_equal``."""
    if a.shape != b.shape:
        raise TermError(f"shapes differ: {a.shape} vs {b.shape}")
    if np.allclose(a, b, atol=tol):
        return "equal"
    if phase:
        for k in range(1, 8):
            if np.allclose(a, OMEGA ** k * b, atol=tol):
                return f"equal_with_phase {k}"
    return "not_equal"
