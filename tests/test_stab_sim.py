"""Simulator cross-checks: Pauli algebra, tableau against a dense state vector, frames."""

import math

import numpy as np
import pytest

from surfenc.circuit_ir import CHANNELS, Circuit, Instruction
from surfenc.stab_sim import BatchTableau, PauliString, draw_noise, sample_final_frames


def test_pauli_label_roundtrip():
    p = PauliString.from_label("IXZY")
    assert p.label() == "IXZY"
    assert p.weight == 3


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
        expect = seed_pauli
        for _, instr in circuit.instructions():
            expect = expect.propagate(instr)

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
    sim = BatchTableau(2, 1, np.random.default_rng(0))
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
    sim = BatchTableau(3, 300, np.random.default_rng(1))
    sim.h(0)
    sim.cx(0, 1)
    sim.cx(1, 2)
    bits = [sim.measure_z(q) for q in range(3)]
    assert (bits[0] == bits[1]).all() and (bits[1] == bits[2]).all()
    assert 90 < bits[0].sum() < 210  # fair coin, 300 tries


def test_tableau_resets_and_x_basis():
    sim = BatchTableau(1, 1, np.random.default_rng(2))
    sim.h(0)
    sim.reset_z(0)
    assert sim.measure_z(0) == 0
    sim.reset_x(0)
    assert sim.expectation(PauliString.from_label("X")) == 1
    assert sim.measure_x(0) == 0
    sim.apply_z_masked(0, np.ones(1, dtype=np.uint8))
    assert sim.measure_x(0) == 1


def test_tableau_pauli_sign_flips():
    sim = BatchTableau(2, 1, np.random.default_rng(3))
    sim.h(0)
    sim.cx(0, 1)
    sim.apply_x_masked(1, np.ones(1, dtype=np.uint8))
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
    sim = BatchTableau(2, 1, np.random.default_rng(4))
    records = sim.run_circuit(circ)
    assert [bits.tolist() for _, bits in records] == [[1], [1]]


def test_tableau_depolarize_statistics():
    # marginal flip probability of each qubit under full depolarizing is 12/15
    n_shots = 400
    sim = BatchTableau(2, n_shots, np.random.default_rng(6))
    sim.apply_instruction(Instruction("DEPOLARIZE2", (0, 1), 1.0))
    flips = int(sim.measure_z(0).sum())
    assert abs(flips / n_shots - 8 / 15) < 0.1  # X or Y on first qubit: 8/15


def test_batch_measurement_correlations():
    # GHZ then measure everything: outcomes agree within each shot
    layers = [
        [Instruction("RX", (0,)), Instruction("R", (1, 2))],
        [Instruction("CX", (0, 1))],
        [Instruction("CX", (1, 2))],
        [Instruction("M", (0, 1, 2))],
    ]
    batch = BatchTableau(3, 64, np.random.default_rng(9))
    bits = dict(batch.run_circuit(Circuit(3, layers)))
    assert (bits[0] == bits[1]).all() and (bits[1] == bits[2]).all()
    assert 0 < bits[0].sum() < 64  # both outcomes occur


# -- dense state-vector reference for the tableau, n <= 4 ---------------------
# Amplitude j is the basis state with qubit q in bit q of j, the same bit
# order as PauliString's masks.

_GATES = ("CX", "H", "R", "RX", "M", "MX", "X_ERROR", "Z_ERROR")
# CX and H are four times as likely as each other gate, so that stabilizers
# with Y factors build up between the measurements and resets that undo them
_WEIGHTS = np.array([4, 4, 1, 1, 1, 1, 1, 1])


def _random_program(n, length, rng):
    first = 0 if n > 1 else 1  # no CX on one qubit
    weights = _WEIGHTS[first:] / _WEIGHTS[first:].sum()
    program = []
    for _ in range(length):
        name = _GATES[first + rng.choice(len(weights), p=weights)]
        k = 2 if name == "CX" else 1
        program.append((name, tuple(int(q) for q in rng.choice(n, k, replace=False))))
    return program


def _run_tableau(n, program, shots, rng):
    sim = BatchTableau(n, shots, rng)
    records = []
    for name, targets in program:
        if name == "H":
            sim.h(targets[0])
        else:
            arg = 1.0 if name.endswith("_ERROR") else None
            records += sim.apply_instruction(Instruction(name, targets, arg))
    return sim, records


def _sv_gate(psi, name, targets):
    j = np.arange(psi.size)
    q = targets[0]
    bit = (j >> q) & 1
    if name == "CX":
        return psi[j ^ (bit << targets[1])]
    if name == "H":
        return (psi[j ^ (1 << q)] + np.where(bit, -psi, psi)) / np.sqrt(2)
    if name == "X_ERROR":
        return psi[j ^ (1 << q)]
    if name == "Z_ERROR":
        return np.where(bit, -psi, psi)
    raise ValueError(name)


def _sv_project(psi, q, outcome):
    """(probability of Z_q = (-1)^outcome, post-selected state)."""
    keep = ((np.arange(psi.size) >> q) & 1) == outcome
    prob = float(np.sum(np.abs(psi[keep]) ** 2))
    return prob, np.where(keep, psi, 0) / np.sqrt(max(prob, 1e-300))


def _sv_branches(n, program, outcomes):
    """Every state the program can leave given one shot's recorded outcomes.

    A reset's outcome is not recorded, so a random reset keeps both branches;
    a measurement keeps the branches in which the recorded outcome can occur.
    """
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1
    branches = [psi]
    outcomes = iter(outcomes)
    for name, targets in program:
        q = targets[0]
        if name in ("M", "MX", "R", "RX"):
            want = next(outcomes) if name in ("M", "MX") else None
            kept = []
            for psi in branches:
                if name == "MX":
                    psi = _sv_gate(psi, "H", targets)
                for b in (0, 1) if want is None else (want,):
                    prob, post = _sv_project(psi, q, b)
                    assert min(abs(prob - v) for v in (0, 0.5, 1)) < 1e-9, prob
                    if prob < 0.25:
                        continue
                    if want is None and b:
                        post = _sv_gate(post, "X_ERROR", targets)
                    if name in ("MX", "RX"):
                        post = _sv_gate(post, "H", targets)
                    if all(abs(np.vdot(post, other)) < 1 - 1e-9 for other in kept):
                        kept.append(post)
            assert kept, f"{name} {q}: the recorded outcome {want} has probability 0"
            branches = kept
        else:
            branches = [_sv_gate(psi, name, targets) for psi in branches]
    return branches


def _sv_expectations(psi):
    """<psi|P|psi> for every Pauli P = PauliString(n, x, z), indexed [x, z].

    P = i^|x&z| X^x Z^z, so <P> = i^|x&z| sum_j conj(psi[j^x]) (-1)^|j&z| psi[j].
    """
    j = np.arange(psi.size)
    overlap = np.array([[bin(a & b).count("1") for b in j] for a in j])
    amp = np.conj(psi[j[:, None] ^ j[None, :]]) * psi[None, :]
    return (1j**overlap * (amp @ ((-1.0) ** overlap).T)).real


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shots", [1, 8])
def test_tableau_matches_dense_state_vector(n, shots):
    # random CX/H/R/RX/M/MX/X/Z circuits: every recorded outcome has
    # probability 1/2 or 1 in the state vector, and all 4^n Pauli
    # expectations agree at the end (a random tableau value is 0)
    for seed in range(20):
        rng = np.random.default_rng([n, shots, seed])
        program = _random_program(n, 12 * n, rng)
        sim, records = _run_tableau(n, program, shots, rng)
        got = np.zeros((shots, 2**n, 2**n))
        for x in range(2**n):
            for z in range(2**n):
                e = sim.expectation(PauliString(n, x, z))
                if e is not None:
                    got[:, x, z] = e
        for s in range(shots):
            branches = _sv_branches(n, program, [int(bits[s]) for _, bits in records])
            assert any(
                np.allclose(_sv_expectations(psi), got[s], atol=1e-9) for psi in branches
            ), (n, shots, seed, s, program)


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


@pytest.mark.parametrize("shots", [1, 63, 64, 65, 200, 1000])
def test_frame_noise_extremes(shots):
    # at p=1 every shot is drawn, so a draw past `shots` would raise
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
        for frame in (fx, fz):
            assert frame.shape == (shots, 4) and frame.dtype == bool
            assert frame.flags.c_contiguous
        assert (fx[:, 0] == want).all() and not fz[:, 0].any()
        assert (fz[:, 1] == want).all() and not fx[:, 1].any()
        hit = fx[:, 2] | fz[:, 2] | fx[:, 3] | fz[:, 3]
        assert (hit == want).all()


def test_frame_marginal_flip_rates():
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


def _binomial(n, p, k):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def _within(count, trials, rate):
    """count of `trials` Bernoulli(rate) draws lies within 5 sigma of its mean."""
    return abs(count - trials * rate) <= 5 * math.sqrt(trials * rate * (1 - rate)) + 1e-9


# Floyd's algorithm with k small against S, and with k near S, where most
# steps find their draw taken; (6, 0.9) also reaches k = S
@pytest.mark.parametrize("sites, p", [(200, 0.01), (6, 0.9), (40, 0.2)])
def test_draw_noise_follows_its_law(sites, p):
    shots = 20_000
    rng = np.random.default_rng([sites, 1])
    bases = rng.choice([len(faults) for faults in CHANNELS.values()], sites)
    shot, site, basis = draw_noise(bases, p, shots, rng).hits()
    # every shot's sites are distinct
    assert len(np.unique(shot * sites + site)) == len(shot)
    # hit counts: the shots come out most hits first, Binomial(S, p) each
    per_shot = np.bincount(shot, minlength=shots)
    assert len(per_shot) == shots and (np.diff(per_shot) <= 0).all()
    histogram = np.bincount(per_shot, minlength=sites + 1)
    tested = 0
    for k in range(sites + 1):
        if shots * _binomial(sites, p, k) >= 20:
            assert _within(histogram[k], shots, _binomial(sites, p, k)), k
            tested += 1
    assert tested >= 3
    # each site fails with p
    for count in np.bincount(site, minlength=sites):
        assert _within(count, shots, p)
    # a hit site's basis fault is uniform over its channel's faults
    for n in np.unique(bases):
        hit = bases[site] == n
        counts = np.bincount(basis[hit], minlength=n)
        assert len(counts) == n
        assert all(_within(c, hit.sum(), 1 / n) for c in counts)


@pytest.mark.parametrize("shots", [1, 63, 64, 65])
def test_draw_noise_extremes(shots):
    bases = [15, 1, 15]
    none = draw_noise(bases, 0.0, shots, np.random.default_rng(0))
    assert all(len(part) == 0 for part in none.hits())
    shot, site, basis = draw_noise(bases, 1.0, shots, np.random.default_rng(0)).hits()
    # every shot hits every site once
    assert sorted(shot * 3 + site) == list(range(3 * shots))
    assert (basis[site == 1] == 0).all() and (basis < 15).all()


def test_draw_noise_takes_basis_counts_that_divide_fifteen():
    draw_noise([3, 5, 15, 1], 0.5, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="divide 15"):
        draw_noise([15, 4], 0.5, 10, np.random.default_rng(0))


def test_frames_take_one_noise_strength():
    noise = [Instruction("X_ERROR", (0,), 0.1), Instruction("Z_ERROR", (1,), 0.2)]
    with pytest.raises(ValueError, match="one noise strength"):
        sample_final_frames(Circuit(2, [noise]), 10, np.random.default_rng(0))
    # p = 0 sites are skipped, so they mix with any one strength
    noise[1] = Instruction("Z_ERROR", (1,), 0.0)
    fx, fz = sample_final_frames(Circuit(2, [noise]), 10, np.random.default_rng(0))
    assert not fz.any()
