"""Stabilizer simulation: Pauli algebra, tableau simulator, Pauli-frame sampler.

Three independent execution routes over the same circuit IR:

* PauliString.propagate: conjugate a single Pauli through Clifford
  instructions (the oracle used by the fault enumeration tests).
* TableauSimulator: per-shot Aaronson-Gottesman tableau with destabilizers;
  supports mid-circuit measurement and reset, noise channels are sampled.
* BatchTableau: many shots at once.  CX and reset patterns are identical
  across shots, so the binary part of the tableau is shared and only the
  per-shot sign bits (plus measurement outcomes) are batched.
* sample_packed_frames: packed, sparse-noise Pauli-frame Monte Carlo;
  returns the accumulated X and Z frame components at the end of the
  circuit, 64 shots per uint64 word.  sample_final_frames unpacks them.

Conventions: qubit q's X/Z component is bit q of an integer mask
(PauliString), column q of a bool array (tableau, unpacked frames) or row q
of a packed frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit_ir import Circuit, Instruction


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli modulo phase, as X and Z bitmasks (bit q = qubit q)."""

    n: int
    x: int = 0
    z: int = 0

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for q, ch in enumerate(label):
            if ch in "XY":
                x |= 1 << q
            if ch in "ZY":
                z |= 1 << q
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z)

    @classmethod
    def from_support(cls, n: int, qubits, kind: str) -> "PauliString":
        mask = 0
        for q in qubits:
            mask |= 1 << q
        if kind == "X":
            return cls(n, mask, 0)
        if kind == "Z":
            return cls(n, 0, mask)
        raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")

    def label(self) -> str:
        out = []
        for q in range(self.n):
            xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
            out.append("IXZY"[xb + 2 * zb] if xb + 2 * zb != 3 else "Y")
        return "".join(out)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes_with(self, other: "PauliString") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z)

    def propagate(self, instr: Instruction) -> "PauliString":
        """Image of this Pauli when pushed forward past one instruction.

        A Pauli immediately before a reset is erased on the reset qubits;
        pushing past a measurement is rejected because the image is not a
        Pauli in general.
        """
        if instr.is_noise:
            return self
        if instr.name == "CX":
            x, z = self.x, self.z
            for c, t in instr.pairs():
                if (x >> c) & 1:
                    x ^= 1 << t
                if (z >> t) & 1:
                    z ^= 1 << c
            return PauliString(self.n, x, z)
        if instr.name in ("R", "RX"):
            x, z = self.x, self.z
            for q in instr.targets:
                x &= ~(1 << q)
                z &= ~(1 << q)
            return PauliString(self.n, x, z)
        if instr.name in ("M", "MX"):
            for q in instr.targets:
                if ((self.x | self.z) >> q) & 1:
                    raise ValueError(
                        f"cannot push a Pauli past {instr.name} on qubit {q}"
                    )
            return self
        raise ValueError(f"cannot propagate past {instr.name}")

    def propagate_circuit(self, circuit: Circuit) -> "PauliString":
        p = self
        for _, instr in circuit.instructions():
            p = p.propagate(instr)
        return p


def _g_sum(x1, z1, x2, z2) -> int:
    # Phase exponent of multiplying row (x1,z1) into row (x2,z2), summed
    # over qubits; values per qubit are in {-1, 0, +1}.
    x1 = x1.astype(np.int16)
    z1 = z1.astype(np.int16)
    x2 = x2.astype(np.int16)
    z2 = z2.astype(np.int16)
    return int(
        (
            x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2)
        ).sum()
    )


class TableauSimulator:
    """Single-shot stabilizer simulator (tableau with destabilizers).

    Rows 0..n-1 hold destabilizers, rows n..2n-1 stabilizers.  The initial
    state is |0...0>.  Noise instructions are sampled with the supplied RNG.
    """

    def __init__(self, n: int, rng: np.random.Generator | None = None):
        self.n = n
        self.rng = rng if rng is not None else np.random.default_rng()
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for q in range(n):
            self.x[q, q] = 1
            self.z[n + q, q] = 1

    # -- elementary updates ------------------------------------------------

    def cx(self, c: int, t: int) -> None:
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_x(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def apply_z(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def _rowsum(self, h: int, i: int) -> None:
        g = _g_sum(self.x[i], self.z[i], self.x[h], self.z[h])
        self.r[h] = ((2 * int(self.r[h]) + 2 * int(self.r[i]) + g) % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def measure_z(self, q: int) -> int:
        n = self.n
        stab_hits = np.nonzero(self.x[n:, q])[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            for i in range(2 * n):
                if i != p and self.x[i, q]:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            outcome = int(self.rng.integers(0, 2))
            self.r[p] = outcome
            return outcome
        # deterministic: accumulate stabilizer rows flagged by destabilizers
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr4 = 0
        for i in range(n):
            if self.x[i, q]:
                g = _g_sum(self.x[n + i], self.z[n + i], sx, sz)
                sr4 = (sr4 + 2 * int(self.r[n + i]) + g) % 4
                sx ^= self.x[n + i]
                sz ^= self.z[n + i]
        return sr4 // 2

    def reset_z(self, q: int) -> None:
        if self.measure_z(q):
            self.apply_x(q)

    def reset_x(self, q: int) -> None:
        self.reset_z(q)
        self.h(q)

    def measure_x(self, q: int) -> int:
        self.h(q)
        outcome = self.measure_z(q)
        self.h(q)
        return outcome

    # -- circuit execution ---------------------------------------------------

    def apply_instruction(self, instr: Instruction) -> list[tuple[int, int]]:
        """Apply one instruction; returns (qubit, outcome) for measurements."""
        name = instr.name
        if name == "CX":
            for c, t in instr.pairs():
                self.cx(c, t)
        elif name == "R":
            for q in instr.targets:
                self.reset_z(q)
        elif name == "RX":
            for q in instr.targets:
                self.reset_x(q)
        elif name == "M":
            return [(q, self.measure_z(q)) for q in instr.targets]
        elif name == "MX":
            return [(q, self.measure_x(q)) for q in instr.targets]
        elif name == "X_ERROR":
            for q in instr.targets:
                if self.rng.random() < instr.arg:
                    self.apply_x(q)
        elif name == "Z_ERROR":
            for q in instr.targets:
                if self.rng.random() < instr.arg:
                    self.apply_z(q)
        elif name == "DEPOLARIZE2":
            for a, b in instr.pairs():
                if self.rng.random() < instr.arg:
                    k = int(self.rng.integers(1, 16))
                    if (k >> 3) & 1:
                        self.apply_x(a)
                    if (k >> 2) & 1:
                        self.apply_z(a)
                    if (k >> 1) & 1:
                        self.apply_x(b)
                    if k & 1:
                        self.apply_z(b)
        else:
            raise ValueError(f"unsupported instruction {name}")
        return []

    def run_circuit(self, circuit: Circuit) -> list[tuple[int, int]]:
        if circuit.n_qubits != self.n:
            raise ValueError("circuit qubit count does not match simulator")
        records: list[tuple[int, int]] = []
        for _, instr in circuit.instructions():
            records.extend(self.apply_instruction(instr))
        return records

    def expectation(self, pauli: PauliString):
        """Expectation of a Pauli observable: +1, -1, or None if random."""
        n = self.n
        px = np.array([(pauli.x >> q) & 1 for q in range(n)], dtype=np.uint8)
        pz = np.array([(pauli.z >> q) & 1 for q in range(n)], dtype=np.uint8)
        anti = ((self.x & pz) ^ (self.z & px)).sum(axis=1) % 2
        if anti[n:].any():
            return None
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr4 = 0
        for i in range(n):
            if anti[i]:
                g = _g_sum(self.x[n + i], self.z[n + i], sx, sz)
                sr4 = (sr4 + 2 * int(self.r[n + i]) + g) % 4
                sx ^= self.x[n + i]
                sz ^= self.z[n + i]
        if not (np.array_equal(sx, px) and np.array_equal(sz, pz)):
            raise ValueError("observable is not in the stabilizer group span")
        return 1 if sr4 == 0 else -1


class BatchTableau:
    """Tableau simulation of many shots of one circuit.

    The circuit's Clifford structure (CX, resets, measurement pattern) is
    the same in every shot; only Pauli noise and measurement outcomes vary.
    Pauli gates and outcome randomness touch sign bits alone, so the binary
    tableau is stored once while signs are per shot: r has shape
    (shots, 2n).  All updates reproduce TableauSimulator exactly.
    """

    def __init__(self, n: int, shots: int, rng: np.random.Generator):
        self.n = n
        self.shots = shots
        self.rng = rng
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((shots, 2 * n), dtype=np.uint8)
        for q in range(n):
            self.x[q, q] = 1
            self.z[n + q, q] = 1
        self.measurements: list[tuple[int, np.ndarray]] = []

    def cx(self, c: int, t: int) -> None:
        v = self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.r ^= v[None, :]
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def h(self, q: int) -> None:
        self.r ^= (self.x[:, q] & self.z[:, q])[None, :]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_x_masked(self, q: int, mask: np.ndarray) -> None:
        self.r ^= mask[:, None] & self.z[:, q][None, :]

    def apply_z_masked(self, q: int, mask: np.ndarray) -> None:
        self.r ^= mask[:, None] & self.x[:, q][None, :]

    def measure_z(self, q: int) -> np.ndarray:
        n = self.n
        stab_hits = np.nonzero(self.x[n:, q])[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            for i in range(2 * n):
                if i != p and self.x[i, q]:
                    g = _g_sum(self.x[p], self.z[p], self.x[i], self.z[i])
                    self.r[:, i] = (
                        2 * self.r[:, i].astype(np.int16)
                        + 2 * self.r[:, p].astype(np.int16)
                        + g
                    ) % 4 // 2
                    self.x[i] ^= self.x[p]
                    self.z[i] ^= self.z[p]
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[:, p - n] = self.r[:, p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            outcome = self.rng.integers(0, 2, self.shots, dtype=np.uint8)
            self.r[:, p] = outcome
            return outcome
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr4 = np.zeros(self.shots, dtype=np.int16)
        for i in range(n):
            if self.x[i, q]:
                g = _g_sum(self.x[n + i], self.z[n + i], sx, sz)
                sr4 = (sr4 + 2 * self.r[:, n + i].astype(np.int16) + g) % 4
                sx ^= self.x[n + i]
                sz ^= self.z[n + i]
        return (sr4 // 2).astype(np.uint8)

    def reset_z(self, q: int) -> None:
        self.apply_x_masked(q, self.measure_z(q))

    def reset_x(self, q: int) -> None:
        self.reset_z(q)
        self.h(q)

    def measure_x(self, q: int) -> np.ndarray:
        self.h(q)
        outcome = self.measure_z(q)
        self.h(q)
        return outcome

    def apply_instruction(self, instr: Instruction) -> None:
        name = instr.name
        if name == "CX":
            for c, t in instr.pairs():
                self.cx(c, t)
        elif name == "R":
            for q in instr.targets:
                self.reset_z(q)
        elif name == "RX":
            for q in instr.targets:
                self.reset_x(q)
        elif name == "M":
            for q in instr.targets:
                self.measurements.append((q, self.measure_z(q)))
        elif name == "MX":
            for q in instr.targets:
                self.measurements.append((q, self.measure_x(q)))
        elif name == "X_ERROR":
            for q in instr.targets:
                mask = (self.rng.random(self.shots) < instr.arg).astype(np.uint8)
                self.apply_x_masked(q, mask)
        elif name == "Z_ERROR":
            for q in instr.targets:
                mask = (self.rng.random(self.shots) < instr.arg).astype(np.uint8)
                self.apply_z_masked(q, mask)
        elif name == "DEPOLARIZE2":
            for a, b in instr.pairs():
                mask = self.rng.random(self.shots) < instr.arg
                k = self.rng.integers(1, 16, self.shots)
                self.apply_x_masked(a, (mask & (((k >> 3) & 1) == 1)).astype(np.uint8))
                self.apply_z_masked(a, (mask & (((k >> 2) & 1) == 1)).astype(np.uint8))
                self.apply_x_masked(b, (mask & (((k >> 1) & 1) == 1)).astype(np.uint8))
                self.apply_z_masked(b, (mask & ((k & 1) == 1)).astype(np.uint8))
        else:
            raise ValueError(f"unsupported instruction {name}")

    def run_circuit(self, circuit: Circuit) -> None:
        if circuit.n_qubits != self.n:
            raise ValueError("circuit qubit count does not match simulator")
        for _, instr in circuit.instructions():
            self.apply_instruction(instr)

    def expectation(self, pauli: PauliString) -> np.ndarray:
        """Per-shot expectation (+1/-1 int8).  Raises if the value is random."""
        n = self.n
        px = np.array([(pauli.x >> q) & 1 for q in range(n)], dtype=np.uint8)
        pz = np.array([(pauli.z >> q) & 1 for q in range(n)], dtype=np.uint8)
        anti = ((self.x & pz) ^ (self.z & px)).sum(axis=1) % 2
        if anti[n:].any():
            raise ValueError("observable anticommutes with a stabilizer")
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr4 = np.zeros(self.shots, dtype=np.int16)
        for i in range(n):
            if anti[i]:
                g = _g_sum(self.x[n + i], self.z[n + i], sx, sz)
                sr4 = (sr4 + 2 * self.r[:, n + i].astype(np.int16) + g) % 4
                sx ^= self.x[n + i]
                sz ^= self.z[n + i]
        if not (np.array_equal(sx, px) and np.array_equal(sz, pz)):
            raise ValueError("observable is not in the stabilizer group span")
        return np.where(sr4 == 0, 1, -1).astype(np.int8)


def _sample_hits(
    rng: np.random.Generator, sites: int, shots: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """(site, shot) indices of the hits when each site fails with p per shot.

    The hit count is Binomial(sites * shots, p) and the hits are a uniform
    subset of that size, which together is exactly an independent
    Bernoulli(p) draw per site and shot.
    """
    trials = sites * shots
    hits = rng.binomial(trials, p)
    flat = rng.choice(trials, size=hits, replace=False, shuffle=False)
    return np.divmod(flat, shots)


# DEPOLARIZE2 Pauli k in 1..15, bits most significant first: X on a, Z on a,
# X on b, Z on b.  Bit j of that order is frame component j % 2 (0 = X,
# 1 = Z) on pair side j // 2.
_DEPOL_SHIFTS = np.array([3, 2, 1, 0])


def sample_packed_frames(
    circuit: Circuit, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pauli-frame Monte Carlo: packed (x_frame, z_frame), (n, ceil(shots/64)).

    Frames are qubit-major with 64 shots per uint64 word: shot s of qubit q
    is bit s % 64 of word [q, s // 64], and the padding bits past `shots`
    stay zero.  The frame is the accumulated Pauli error relative to the
    noiseless run.  A CX is two row XORs and a reset zeroes two rows;
    measurements leave the frame untouched.  Noise is sampled sparsely: a
    noise instruction draws its hit count, then the distinct hit positions
    over its sites x shots, then (for DEPOLARIZE2) one Pauli in 1..15 per
    hit, so the draws scale with the number of errors, not of shots.
    """
    n = circuit.n_qubits
    words = (shots + 63) // 64
    frames = np.zeros((2, n, words), dtype=np.uint64)
    fx, fz = frames
    flat = frames.reshape(-1)

    def flip(component, qubit, shot):
        # XOR one bit per hit; ufunc.at so that hits sharing a word all land
        bits = np.left_shift(np.uint64(1), (shot & 63).astype(np.uint64))
        np.bitwise_xor.at(flat, (component * n + qubit) * words + (shot >> 6), bits)

    for _, instr in circuit.instructions():
        name = instr.name
        if name == "CX":
            for c, t in instr.pairs():
                fx[t] ^= fx[c]
                fz[c] ^= fz[t]
        elif name in ("R", "RX"):
            frames[:, list(instr.targets)] = 0
        elif name in ("M", "MX"):
            pass
        elif name in ("X_ERROR", "Z_ERROR"):
            targets = np.array(instr.targets)
            site, shot = _sample_hits(rng, len(targets), shots, instr.arg)
            flip(0 if name == "X_ERROR" else 1, targets[site], shot)
        elif name == "DEPOLARIZE2":
            pairs = np.array(instr.targets).reshape(-1, 2)
            site, shot = _sample_hits(rng, len(pairs), shots, instr.arg)
            k = rng.integers(1, 16, len(site))
            hit, j = np.nonzero((k[:, None] >> _DEPOL_SHIFTS) & 1)
            flip(j % 2, pairs[site[hit], j // 2], shot[hit])
        else:
            raise ValueError(f"unsupported instruction {name}")
    return fx, fz


def unpack_shots(packed: np.ndarray, shots: int) -> np.ndarray:
    """Bool bits (..., shots) of packed uint64 words (..., ceil(shots/64))."""
    as_bytes = packed.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=shots, bitorder="little").view(bool)


def sample_final_frames(
    circuit: Circuit, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """sample_packed_frames unpacked to (x_frame, z_frame) bool arrays (shots, n)."""
    fx, fz = sample_packed_frames(circuit, shots, rng)
    return (
        np.ascontiguousarray(unpack_shots(fx, shots).T),
        np.ascontiguousarray(unpack_shots(fz, shots).T),
    )
