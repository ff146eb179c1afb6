"""Qubit-wire circuits compiled to combinator terms over (1+1)^(x)n.

Wire 0 is the top wire and the most significant basis index (big-endian),
so the control of ``cx 0 1`` is the left tensor factor, matching the usual
block form of CX.  Tensor nesting is right-associated; a gate on arbitrary
wires is placed by conjugating with a network of adjacent-transposition
SWAPs that bubbles the named wires into slots 0..k-1, in order.

Circuit file format::

    qubits N
    name w1 [w2 [w3]]     # one gate per line, '#' comments allowed

with gate names x z s sdg t tdg h k v vdg cx cz ch ct swap ccx csx csxdg
(v is the square root of x, aka sx).  N is at most MAX_QUBITS.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .gates import gate_macros, identity_at
from .lang import (
    BOOL,
    Ann,
    Combinator,
    Prim,
    Prod,
    ProdC,
    SqrtPiError,
    ValueType,
    invert,
    seq,
)


class CircuitError(SqrtPiError):
    pass


# Widest circuit accepted: at 98 wires every gate, on any wires, compiles to
# a term that prints within lang.MAX_NESTING; at 99 a ccx does not.
MAX_QUBITS = 98


def _too_wide(n: int) -> str:
    return f"{n} qubits exceed the limit of {MAX_QUBITS}"


class CircuitGate(NamedTuple):
    gate: str
    wires: tuple[int, ...]

    def validate(self, n_qubits: int) -> None:
        macros = gate_macros()
        if self.gate not in macros or macros[self.gate].qubits is None:
            raise CircuitError(f"unknown circuit gate {self.gate!r}")
        arity = macros[self.gate].qubits
        if len(self.wires) != arity:
            raise CircuitError(
                f"gate {self.gate!r} takes {arity} wire(s), got {len(self.wires)}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise CircuitError(f"gate {self.gate!r} wires must be distinct: {self.wires}")
        for w in self.wires:
            if not 0 <= w < n_qubits:
                raise CircuitError(
                    f"wire {w} out of range for {n_qubits} qubit(s)"
                )


class _CircuitFields(NamedTuple):
    n_qubits: int
    gates: tuple[CircuitGate, ...]


class Circuit(_CircuitFields):
    """A checked circuit: every construction path, ``_make`` and ``_replace``
    included, validates the width and every gate."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Circuit:
        c = super().__new__(cls, *args, **kwargs)
        if c.n_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        if c.n_qubits > MAX_QUBITS:
            raise CircuitError(_too_wide(c.n_qubits))
        for g in c.gates:
            g.validate(c.n_qubits)
        return c

    @classmethod
    def _make(cls, fields) -> Circuit:
        return cls(*fields)  # _replace builds through _make


# Equal terms are one object without any cache; these three are cached because
# each rebuilds O(n) nodes (two of them recursively) at every placement.


@lru_cache(maxsize=None)
def wire_type(n: int) -> ValueType:
    """(1+1) x ((1+1) x (...)), right-associated, n >= 1 factors."""
    if n < 1:
        raise CircuitError("need at least one wire")
    t: ValueType = BOOL
    for _ in range(n - 1):
        t = Prod(BOOL, t)
    return t


@lru_cache(maxsize=None)
def _adjacent_swap(j: int, n: int) -> Combinator:
    """Swap wires j and j+1 of an n-wire right-associated tensor."""
    if j > 0:
        return ProdC(identity_at(BOOL), _adjacent_swap(j - 1, n - 1))
    if n == 2:
        return Prim("swap*")
    rest = wire_type(n - 2)
    return seq(
        Prim("assocl*"),
        ProdC(Prim("swap*"), identity_at(rest)),
        Prim("assocr*"),
    )


@lru_cache(maxsize=None)
def _group_prefix(k: int, n: int) -> Combinator:
    """Reassociate wire_type(n) to Prod(wire_type(k), wire_type(n-k)), 1 <= k < n."""
    if k == 1:
        return identity_at(wire_type(n))
    return seq(
        ProdC(identity_at(BOOL), _group_prefix(k - 1, n - 1)),
        Prim("assocl*"),
    )


def place(gate_term: Combinator, wires: list[int] | tuple[int, ...], n: int) -> Combinator:
    """Apply a k-qubit gate term to the named wires of an n-wire circuit.

    The gate term must have type wire_type(k) <-> wire_type(k).  Wires are
    bubbled into slots 0..k-1 (in the given order) by adjacent SWAPs, the
    gate is tensored with the identity on the rest, and the SWAP network is
    undone.  Each adjacent SWAP is its own inverse, so the network is undone
    by the same pieces in reverse order.
    """
    wires = tuple(wires)
    k = len(wires)
    if k == 0 or k > n:
        raise CircuitError(f"gate arity {k} out of range for {n} wire(s)")
    if len(set(wires)) != k:
        raise CircuitError(f"wires must be distinct: {wires}")
    for w in wires:
        if not 0 <= w < n:
            raise CircuitError(f"wire {w} out of range for {n} wire(s)")

    if k < n:  # the gate on the first k wires, the identity on the rest
        gate_term = seq(_group_prefix(k, n), ProdC(gate_term, identity_at(wire_type(n - k))),
                        invert(_group_prefix(k, n)))
    t = wire_type(n)
    network = _swap_network(wires, n)
    if not network:
        return Ann(gate_term, t, t)
    return Ann(seq(*network, gate_term, *reversed(network)), t, t)


def _swap_network(wires: tuple[int, ...], n: int) -> list[Combinator]:
    """The adjacent SWAPs, in order, that bubble wire wires[i] into slot i of
    an n-wire tensor."""
    slots = list(range(n))
    network = []
    for i, w in enumerate(wires):
        p = slots.index(w)
        for q in range(p, i, -1):
            network.append(_adjacent_swap(q - 1, n))
            slots[q - 1], slots[q] = slots[q], slots[q - 1]
    return network


def compile_circuit(circuit: Circuit) -> Combinator:
    """Left-to-right gate list to a sequential combinator term."""
    macros = gate_macros()
    n = circuit.n_qubits
    if not circuit.gates:
        return identity_at(wire_type(n))
    placed = [place(macros[g.gate].term, g.wires, n) for g in circuit.gates]
    return seq(*placed)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based circuit format (see module docstring)."""
    n_qubits = None
    gates: list[CircuitGate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n_qubits is None:
            if parts[0] != "qubits" or len(parts) != 2:
                raise CircuitError(f"line {lineno}: expected `qubits N`, got {line!r}")
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise CircuitError(f"line {lineno}: bad qubit count {parts[1]!r}") from None
            if n_qubits < 1:
                raise CircuitError(f"line {lineno}: need at least one qubit")
            if n_qubits > MAX_QUBITS:
                raise CircuitError(f"line {lineno}: {_too_wide(n_qubits)}")
            continue
        name = parts[0].lower()
        try:
            wires = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise CircuitError(f"line {lineno}: bad wire index in {line!r}") from None
        gate = CircuitGate(name, wires)
        try:
            gate.validate(n_qubits)
        except CircuitError as e:
            raise CircuitError(f"line {lineno}: {e}") from None
        gates.append(gate)
    if n_qubits is None:
        raise CircuitError("empty circuit file: missing `qubits N` header")
    return Circuit(n_qubits, tuple(gates))
