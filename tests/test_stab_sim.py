"""Simulator cross-checks: Pauli algebra, tableau, batch tableau, frames."""

import numpy as np
import pytest

from surfenc.circuit_ir import Circuit, Instruction
from surfenc.stab_sim import (
    BatchTableau,
    PauliString,
    TableauSimulator,
    sample_final_frames,
    sample_packed_frames,
)
from surfenc.encoders import generate_circuit


def test_pauli_label_roundtrip():
    p = PauliString.from_label("IXZY")
    assert p.label() == "IXZY"
    assert p.weight == 3
    assert (p * p).weight == 0


def test_pauli_commutation():
    x0 = PauliString.from_label("XI")
    z0 = PauliString.from_label("ZI")
    z1 = PauliString.from_label("IZ")
    assert not x0.commutes_with(z0)
    assert x0.commutes_with(z1)
    assert x0.commutes_with(PauliString.from_label("YI")) is False
    assert PauliString.from_label("XX").commutes_with(PauliString.from_label("ZZ"))


def test_pauli_propagate_cx():
    cx = Instruction("CX", (0, 1))
    assert PauliString.from_label("XI").propagate(cx).label() == "XX"
    assert PauliString.from_label("IZ").propagate(cx).label() == "ZZ"
    assert PauliString.from_label("IX").propagate(cx).label() == "IX"
    assert PauliString.from_label("ZI").propagate(cx).label() == "ZI"


def test_pauli_propagate_reset_and_measure():
    r = Instruction("R", (0,))
    assert PauliString.from_label("XZ").propagate(r).label() == "IZ"
    m = Instruction("M", (0,))
    assert PauliString.from_label("IZ").propagate(m).label() == "IZ"
    with pytest.raises(ValueError):
        PauliString.from_label("XI").propagate(m)


def test_pauli_propagate_matches_frame_sim():
    # same propagation implemented twice: integer bitmasks vs bool arrays
    rng = np.random.default_rng(5)
    n = 8
    for _ in range(25):
        layers = []
        for _ in range(6):
            qs = list(rng.permutation(n))
            layer = [Instruction("CX", (qs[0], qs[1])), Instruction("CX", (qs[2], qs[3]))]
            if rng.random() < 0.3:
                layer.append(Instruction("R", (qs[4],)))
            layers.append(layer)
        circuit = Circuit(n, layers)
        q = int(rng.integers(n))
        kind = "X" if rng.random() < 0.5 else "Z"
        seed_pauli = PauliString.from_support(n, [q], kind)
        expect = seed_pauli.propagate_circuit(circuit)

        fx = np.zeros((1, n), dtype=bool)
        fz = np.zeros((1, n), dtype=bool)
        fx[0, q] = kind == "X"
        fz[0, q] = kind == "Z"
        injected = Circuit(n, [[Instruction("X_ERROR" if kind == "X" else "Z_ERROR", (q,), 1.0)]] + layers)
        gx, gz = sample_final_frames(injected, 1, np.random.default_rng(0))
        got_x = sum(1 << i for i in range(n) if gx[0, i])
        got_z = sum(1 << i for i in range(n) if gz[0, i])
        assert (got_x, got_z) == (expect.x, expect.z)


def test_tableau_bell_pair():
    sim = TableauSimulator(2, np.random.default_rng(0))
    sim.h(0)
    sim.cx(0, 1)
    assert sim.expectation(PauliString.from_label("XX")) == 1
    assert sim.expectation(PauliString.from_label("ZZ")) == 1
    assert sim.expectation(PauliString.from_label("YY")) == -1
    assert sim.expectation(PauliString.from_label("ZI")) is None
    a, b = sim.measure_z(0), sim.measure_z(1)
    assert a == b
    assert sim.measure_z(0) == a  # collapse is stable


def test_tableau_ghz_statistics():
    rng = np.random.default_rng(1)
    ones = 0
    for _ in range(300):
        sim = TableauSimulator(3, rng)
        sim.h(0)
        sim.cx(0, 1)
        sim.cx(1, 2)
        bits = [sim.measure_z(q) for q in range(3)]
        assert len(set(bits)) == 1
        ones += bits[0]
    assert 90 < ones < 210  # fair coin, 300 tries


def test_tableau_resets_and_x_basis():
    sim = TableauSimulator(1, np.random.default_rng(2))
    sim.h(0)
    sim.reset_z(0)
    assert sim.measure_z(0) == 0
    sim.reset_x(0)
    assert sim.expectation(PauliString.from_label("X")) == 1
    assert sim.measure_x(0) == 0
    sim.apply_z(0)
    assert sim.measure_x(0) == 1


def test_tableau_pauli_sign_flips():
    sim = TableauSimulator(2, np.random.default_rng(3))
    sim.h(0)
    sim.cx(0, 1)
    sim.apply_x(1)
    assert sim.expectation(PauliString.from_label("ZZ")) == -1
    assert sim.expectation(PauliString.from_label("XX")) == 1


def test_tableau_noise_sampling_extremes():
    circ = Circuit(
        2,
        [
            [Instruction("R", (0, 1)), Instruction("X_ERROR", (0, 1), 1.0)],
            [Instruction("M", (0, 1))],
        ],
    )
    sim = TableauSimulator(2, np.random.default_rng(4))
    records = sim.run_circuit(circ)
    assert [bit for _, bit in records] == [1, 1]


def test_tableau_depolarize_statistics():
    # marginal flip probability of each qubit under full depolarizing is 12/15
    rng = np.random.default_rng(6)
    flips = 0
    n_shots = 400
    for _ in range(n_shots):
        sim = TableauSimulator(2, rng)
        sim.apply_instruction(Instruction("DEPOLARIZE2", (0, 1), 1.0))
        flips += sim.measure_z(0)
    assert abs(flips / n_shots - 8 / 15) < 0.1  # X or Y on first qubit: 8/15


def test_batch_matches_single_shot_on_deterministic_circuit():
    layers = [
        [Instruction("RX", (0,)), Instruction("R", (1, 2))],
        [Instruction("CX", (0, 1))],
        [Instruction("CX", (1, 2)), Instruction("X_ERROR", (2,), 1.0)],
    ]
    circ = Circuit(3, layers)
    single = TableauSimulator(3, np.random.default_rng(0))
    single.run_circuit(circ)
    batch = BatchTableau(3, 5, np.random.default_rng(0))
    batch.run_circuit(circ)
    for label in ("XXX", "ZZI", "IZZ"):
        want = single.expectation(PauliString.from_label(label))
        got = batch.expectation(PauliString.from_label(label))
        assert (got == want).all(), label


def test_batch_measurement_correlations():
    # GHZ then measure everything: outcomes agree within each shot
    layers = [
        [Instruction("RX", (0,)), Instruction("R", (1, 2))],
        [Instruction("CX", (0, 1))],
        [Instruction("CX", (1, 2))],
        [Instruction("M", (0, 1, 2))],
    ]
    batch = BatchTableau(3, 64, np.random.default_rng(9))
    batch.run_circuit(Circuit(3, layers))
    bits = {q: v for q, v in batch.measurements}
    assert (bits[0] == bits[1]).all() and (bits[1] == bits[2]).all()
    assert 0 < bits[0].sum() < 64  # both outcomes occur


def test_frame_depolarize_is_uniform_over_fifteen():
    circ = Circuit(2, [[Instruction("DEPOLARIZE2", (0, 1), 1.0)]])
    fx, fz = sample_final_frames(circ, 6000, np.random.default_rng(10))
    codes = (
        fx[:, 0].astype(int) * 8
        + fz[:, 0].astype(int) * 4
        + fx[:, 1].astype(int) * 2
        + fz[:, 1].astype(int)
    )
    counts = np.bincount(codes, minlength=16)
    assert counts[0] == 0
    assert counts[1:].min() > 6000 / 15 * 0.6


def test_frame_reset_clears():
    circ = Circuit(
        1,
        [
            [Instruction("R", (0,)), Instruction("X_ERROR", (0,), 1.0)],
            [Instruction("R", (0,)), Instruction("X_ERROR", (0,), 0.0)],
        ],
    )
    fx, fz = sample_final_frames(circ, 10, np.random.default_rng(0))
    assert not fx.any() and not fz.any()


def _bit(packed, q, s):
    return bool((int(packed[q, s // 64]) >> (s % 64)) & 1)


@pytest.mark.parametrize("shots", [1, 63, 64, 65, 1000])
def test_final_frames_unpack_packed_frames(shots):
    circ = generate_circuit("rotated", 3, "uea", "zero", 0.05)
    px, pz = sample_packed_frames(circ, shots, np.random.default_rng(21))
    fx, fz = sample_final_frames(circ, shots, np.random.default_rng(21))
    n = circ.n_qubits
    assert px.shape == pz.shape == (n, (shots + 63) // 64)
    assert px.dtype == pz.dtype == np.uint64
    assert fx.shape == fz.shape == (shots, n)
    for q in range(n):
        for s in range(shots):
            assert fx[s, q] == _bit(px, q, s)
            assert fz[s, q] == _bit(pz, q, s)


@pytest.mark.parametrize("shots", [1, 63, 65, 1000])
def test_packed_padding_bits_stay_zero(shots):
    # at p=1 every valid shot is drawn, so a draw past `shots` would show
    circ = Circuit(
        3,
        [
            [Instruction("X_ERROR", (0, 1, 2), 1.0), Instruction("Z_ERROR", (0, 1, 2), 1.0)],
            [Instruction("CX", (0, 1))],
            [Instruction("DEPOLARIZE2", (1, 2), 1.0)],
        ],
    )
    for frame in sample_packed_frames(circ, shots, np.random.default_rng(3)):
        last = frame[:, -1].astype(object)
        assert all(word >> (shots % 64) == 0 for word in last)


def test_packed_noise_extremes():
    shots = 200
    for p, want in ((0.0, False), (1.0, True)):
        circ = Circuit(
            4,
            [[
                Instruction("X_ERROR", (0,), p),
                Instruction("Z_ERROR", (1,), p),
                Instruction("DEPOLARIZE2", (2, 3), p),
            ]],
        )
        fx, fz = sample_final_frames(circ, shots, np.random.default_rng(4))
        assert (fx[:, 0] == want).all() and not fz[:, 0].any()
        assert (fz[:, 1] == want).all() and not fx[:, 1].any()
        hit = fx[:, 2] | fz[:, 2] | fx[:, 3] | fz[:, 3]
        assert (hit == want).all()


def test_packed_marginal_flip_rates():
    # X_ERROR flips with p; DEPOLARIZE2 sets each of its four components in
    # 8 of the 15 Paulis, so with rate 8p/15; all within 5 sigma
    shots, p = 1 << 16, 0.06
    circ = Circuit(
        6,
        [[Instruction("X_ERROR", (0, 1), p), Instruction("DEPOLARIZE2", (2, 3, 4, 5), p)]],
    )
    fx, fz = sample_final_frames(circ, shots, np.random.default_rng(5))
    cases = [(fx[:, 0], p), (fx[:, 1], p)]
    for q in (2, 3, 4, 5):
        cases += [(fx[:, q], 8 * p / 15), (fz[:, q], 8 * p / 15)]
    for column, rate in cases:
        sigma = np.sqrt(rate * (1 - rate) / shots)
        assert abs(column.mean() - rate) < 5 * sigma
