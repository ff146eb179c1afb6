import pytest

from sqrtpi.circuits import (
    Circuit,
    CircuitError,
    CircuitGate,
    compile_circuit,
    parse_circuit,
    place,
    wire_type,
)
from sqrtpi.gates import gate_macros, named_gate
from sqrtpi.lang import BOOL, Prod, Seq, invert, typecheck
from sqrtpi.semantics import ExactMatrix, compose, evaluate, kronecker

I2 = ExactMatrix.identity(2)
TOFFOLI = ExactMatrix.permutation(8, [0, 1, 2, 3, 4, 5, 7, 6])


def kron_all(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = kronecker(out, m)
    return out


def place_matrix(gate, wires, n):
    return evaluate(place(named_gate(gate), wires, n))


def test_wire_type_right_associated():
    assert wire_type(1) == BOOL
    assert wire_type(3) == Prod(BOOL, Prod(BOOL, BOOL))


def test_place_single_wire_against_kronecker_oracle():
    # brute-force oracle: I (x) ... (x) G (x) ... (x) I with wire 0 most
    # significant
    one_qubit = [name for name, m in gate_macros().items() if m.qubits == 1]
    for n in range(1, 5):
        for w in range(n):
            for gate in one_qubit:
                g = evaluate(named_gate(gate))
                oracle = kron_all(
                    *(g if i == w else I2 for i in range(n))
                ) if n > 1 else g
                assert place_matrix(gate, [w], n) == oracle, (gate, w, n)


def test_place_x_on_single_wire():
    assert place(named_gate("x"), [0], 1) is not None
    assert place_matrix("x", [0], 1) == evaluate(named_gate("x"))


def test_place_adjacent_two_qubit():
    assert place_matrix("cx", [0, 1], 2) == evaluate(named_gate("cx"))
    assert place_matrix("cx", [0, 1], 3) == kronecker(evaluate(named_gate("cx")), I2)
    assert place_matrix("cx", [1, 2], 3) == kronecker(I2, evaluate(named_gate("cx")))


def test_place_reversed_control_target():
    # cx with control below target equals SWAP ; cx ; SWAP
    swapped = compose(
        evaluate(named_gate("swap")),
        compose(evaluate(named_gate("cx")), evaluate(named_gate("swap"))),
    )
    assert place_matrix("cx", [1, 0], 2) == swapped


def test_place_nonadjacent_control():
    # control on wire 0, target on wire 2: perm-conjugated adjacent form
    m = place_matrix("cx", [0, 2], 3)
    # oracle: basis index b2 b1 b0 (big-endian); flip bit 2 when bit 0 is 1
    image = []
    for src in range(8):
        bits = [(src >> (2 - i)) & 1 for i in range(3)]  # bits[i] = wire i
        if bits[0]:
            bits[2] ^= 1
        image.append((bits[0] << 2) | (bits[1] << 1) | bits[2])
    assert m == ExactMatrix.permutation(8, image)


def test_place_typechecks_at_full_width():
    t = typecheck(place(named_gate("h"), [2], 4))
    assert t.src == wire_type(4) == t.tgt


def test_place_unused_wire_extension():
    for gate, wires, n in [("h", [0], 2), ("cx", [1, 0], 2), ("z", [1], 3)]:
        ext = place_matrix(gate, wires, n + 1)
        assert ext == kronecker(place_matrix(gate, wires, n), I2)


def test_place_errors():
    with pytest.raises(CircuitError):
        place(named_gate("h"), [0, 1], 1)
    with pytest.raises(CircuitError):
        place(named_gate("cx"), [0, 0], 2)
    with pytest.raises(CircuitError):
        place(named_gate("h"), [3], 2)


def test_empty_circuit_is_identity():
    c = Circuit(2, ())
    assert evaluate(compile_circuit(c)) == ExactMatrix.identity(4)


def test_compile_order_is_circuit_order():
    # s then x on one qubit: matrix X . S
    c = Circuit(1, (CircuitGate("s", (0,)), CircuitGate("x", (0,))))
    sx = compose(evaluate(named_gate("x")), evaluate(named_gate("s")))
    assert evaluate(compile_circuit(c)) == sx


def test_sleator_weinfurter_circuit_is_toffoli():
    c = parse_circuit(
        "qubits 3\ncsx 1 2\ncx 0 1\ncsxdg 1 2\ncx 0 1\ncsx 0 2\n"
    )
    assert evaluate(compile_circuit(c)) == TOFFOLI


def test_double_cz_is_identity():
    c = parse_circuit("qubits 2\ncz 0 1\ncz 0 1\n")
    assert evaluate(compile_circuit(c)) == ExactMatrix.identity(4)


def test_double_h_is_identity():
    c = parse_circuit("qubits 1\nh 0\nh 0\n")
    assert evaluate(compile_circuit(c)) == I2


def test_parse_circuit_errors():
    with pytest.raises(CircuitError) as e:
        parse_circuit("qubits 2\ncx 0 3\n")
    assert "line 2" in str(e.value)
    with pytest.raises(CircuitError):
        parse_circuit("cx 0 1\n")
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\nbogus 0\n")
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\ncx 0\n")
    with pytest.raises(CircuitError):
        parse_circuit("")


def test_parse_circuit_comments_and_case():
    c = parse_circuit("# demo\nqubits 2\nCX 0 1  # flip\n\n")
    assert c == Circuit(2, (CircuitGate("cx", (0, 1)),))


def _cx(c, t):
    return ("cx", (c, t))


def _swap(a, b):
    return ("swap", (a, b))


def circuit(n, *gates):
    return Circuit(n, tuple(CircuitGate(g, w) for g, w in gates))


def classical_pairs():
    # the CX/SWAP identities validated as compiled-circuit equivalences
    p1 = (
        circuit(3, _cx(1, 0), _cx(1, 2)),
        circuit(3, _cx(1, 2), _cx(1, 0)),
    )
    p2 = (
        circuit(3, _cx(1, 0), _cx(0, 1), _cx(1, 2), _cx(0, 1), _cx(1, 0)),
        circuit(3, _swap(0, 1), _cx(1, 2), _swap(0, 1)),
    )
    p3 = (
        circuit(3, _swap(0, 1), _cx(2, 1), _swap(0, 1)),
        circuit(3, _cx(1, 2), _cx(2, 1), _cx(1, 0), _cx(2, 1), _cx(1, 2)),
    )
    block4 = (_cx(0, 1), _cx(1, 0), _cx(2, 1))
    p4 = (circuit(3, *(block4 * 3)), circuit(3))
    block5 = (_cx(2, 1), _cx(1, 2), _cx(0, 1))
    p5 = (circuit(3, *(block5 * 3)), circuit(3))
    p6 = (
        circuit(2, _cx(0, 1), _cx(1, 0), _cx(0, 1)),
        circuit(2, _swap(0, 1)),
    )
    return [p1, p2, p3, p4, p5, p6]


def test_classical_cx_swap_identities():
    for i, (lhs, rhs) in enumerate(classical_pairs(), start=1):
        ml = evaluate(compile_circuit(lhs))
        mr = evaluate(compile_circuit(rhs))
        assert ml == mr, f"P{i}"


def test_place_cx_top_pair_matches_reshaping_form():
    # the matrix-form reduction of CX on the top two of three wires:
    # 3Mat^-1 ; (id + block-swap) ; 3Mat with 3Mat = (mat + mat) . mat
    from sqrtpi.gates import identity_at, mat, named_gate
    from sqrtpi.lang import Ann, BOOL, Prim, Sum, SumC, seq

    three_mat = seq(mat(Prod(BOOL, BOOL)), SumC(mat(BOOL), mat(BOOL)))
    four = Sum(BOOL, BOOL)
    middle = SumC(identity_at(four), Ann(Prim("swap+"), four, four))
    expr = seq(three_mat, middle, invert(three_mat))
    assert evaluate(expr) == evaluate(place(named_gate("cx"), [0, 1], 3))


def test_swap_network_is_undone_by_its_cached_pieces():
    # each adjacent SWAP is its own syntactic inverse, so `place` undoes the
    # network with the same objects in reverse order
    import itertools

    from sqrtpi.circuits import _group_prefix, _swap_network
    from sqrtpi.lang import seq

    gates = {1: named_gate("h"), 2: named_gate("cx"), 3: named_gate("ccx")}
    for n in range(1, 6):
        for k in range(1, min(3, n) + 1):
            if k < n:
                # no cache: equal terms are one object
                assert invert(_group_prefix(k, n)) is invert(_group_prefix(k, n))
            for wires in itertools.permutations(range(n), k):
                network = _swap_network(wires, n)
                placed = place(gates[k], wires, n)
                if not network:
                    assert wires == tuple(range(k))
                    continue
                undo = seq(*reversed(network))
                assert invert(seq(*network)) == undo, (wires, n)
                undo_parts = undo.parts if isinstance(undo, Seq) else (undo,)
                tail = placed.term.parts[-len(undo_parts):]
                assert all(a is b for a, b in zip(tail, undo_parts)), (wires, n)


def test_circuit_width_limit():
    from sqrtpi.circuits import MAX_QUBITS

    assert Circuit(MAX_QUBITS, ()).n_qubits == MAX_QUBITS
    with pytest.raises(CircuitError, match="exceed the limit"):
        Circuit(MAX_QUBITS + 1, ())


def test_every_circuit_copy_is_checked():
    c = Circuit(2, (CircuitGate("cx", (0, 1)),))
    assert c._replace(gates=()) == Circuit(2, ())
    with pytest.raises(CircuitError, match="exceed the limit"):
        Circuit(2, ())._replace(n_qubits=500)
    with pytest.raises(CircuitError, match="out of range"):
        c._replace(n_qubits=1)
    with pytest.raises(CircuitError, match="at least one qubit"):
        Circuit._make((0, ()))
