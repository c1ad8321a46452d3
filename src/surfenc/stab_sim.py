"""Stabilizer simulation: Pauli algebra, tableau simulator, Pauli-frame sampler.

Three independent execution routes over the same circuit IR:

* PauliString.propagate: conjugate a single Pauli through Clifford
  instructions (the oracle used by the fault enumeration tests).
* BatchTableau: Aaronson-Gottesman tableau with destabilizers, many shots
  at once; supports mid-circuit measurement and reset, noise channels are
  sampled.  CX and reset patterns are identical across shots, so the
  binary part of the tableau is shared and only the per-shot sign bits
  (plus measurement outcomes) are batched.
* sample_final_frames: sparse-noise Pauli-frame Monte Carlo on bool
  frames; returns the accumulated X and Z frame components at the end of
  the circuit.  It is the reference for the Monte Carlo harness, not its
  hot path: the harness XORs per-fault syndrome keys instead of
  propagating frames, and both take their noise from noise_draws, so for
  one rng they see the same faults in the same shots.

Conventions: qubit q's X/Z component is bit q of an integer mask
(PauliString) or column q of a bool array (tableau, frames).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit_ir import CHANNELS, Circuit, Instruction


def qubit_mask(qubits) -> int:
    """Integer bitmask with bit q set for every qubit q."""
    return sum(1 << q for q in set(qubits))


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli modulo phase, as X and Z bitmasks (bit q = qubit q)."""

    n: int
    x: int = 0
    z: int = 0

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        for ch in label:
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli letter {ch!r}")
        x = qubit_mask(q for q, ch in enumerate(label) if ch in "XY")
        z = qubit_mask(q for q, ch in enumerate(label) if ch in "ZY")
        return cls(len(label), x, z)

    @classmethod
    def from_support(cls, n: int, qubits, kind: str) -> "PauliString":
        mask = qubit_mask(qubits)
        if kind == "X":
            return cls(n, mask, 0)
        if kind == "Z":
            return cls(n, 0, mask)
        raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")

    def label(self) -> str:
        return "".join(
            "IXZY"[(self.x >> q & 1) + 2 * (self.z >> q & 1)] for q in range(self.n)
        )

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes_with(self, other: "PauliString") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

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
            for c, t in instr.sites():
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


class BatchTableau:
    """Aaronson-Gottesman tableau (with destabilizers) for many shots of one circuit.

    Rows 0..n-1 hold destabilizers, rows n..2n-1 stabilizers; the initial
    state is |0...0>.  The circuit's Clifford structure (CX, resets,
    measurement pattern) is the same in every shot; only Pauli noise and
    measurement outcomes vary.  Pauli gates and outcome randomness touch
    sign bits alone, so the binary tableau is stored once while signs are
    per shot: r has shape (shots, 2n).  Whether an outcome or observable is
    random depends on the binary part only, so it is the same for every
    shot.  A single shot is BatchTableau(n, 1, rng).
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

    def _stabilizer_product(self, flags) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X bits, Z bits and per-shot sign bit of the product of the
        stabilizer rows n + i for every i with flags[i] set."""
        n = self.n
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr4 = np.zeros(self.shots, dtype=np.int16)
        for i in np.flatnonzero(flags):
            g = _g_sum(self.x[n + i], self.z[n + i], sx, sz)
            sr4 = (sr4 + 2 * self.r[:, n + i].astype(np.int16) + g) % 4
            sx ^= self.x[n + i]
            sz ^= self.z[n + i]
        return sx, sz, (sr4 // 2).astype(np.uint8)

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
        # deterministic: destabilizers flag the stabilizer rows whose product is +-Z_q
        return self._stabilizer_product(self.x[:n, q])[2]

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

    def apply_instruction(self, instr: Instruction) -> list[tuple[int, np.ndarray]]:
        """Apply one instruction; returns (qubit, per-shot outcomes) for measurements."""
        name = instr.name
        if name == "CX":
            for c, t in instr.sites():
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
                mask = (self.rng.random(self.shots) < instr.arg).astype(np.uint8)
                self.apply_x_masked(q, mask)
        elif name == "Z_ERROR":
            for q in instr.targets:
                mask = (self.rng.random(self.shots) < instr.arg).astype(np.uint8)
                self.apply_z_masked(q, mask)
        elif name == "DEPOLARIZE2":
            for a, b in instr.sites():
                mask = self.rng.random(self.shots) < instr.arg
                k = self.rng.integers(1, 16, self.shots)
                self.apply_x_masked(a, (mask & (((k >> 3) & 1) == 1)).astype(np.uint8))
                self.apply_z_masked(a, (mask & (((k >> 2) & 1) == 1)).astype(np.uint8))
                self.apply_x_masked(b, (mask & (((k >> 1) & 1) == 1)).astype(np.uint8))
                self.apply_z_masked(b, (mask & ((k & 1) == 1)).astype(np.uint8))
        else:
            raise ValueError(f"unsupported instruction {name}")
        return []

    def run_circuit(self, circuit: Circuit) -> list[tuple[int, np.ndarray]]:
        """Run every instruction; returns the measurement records in order."""
        if circuit.n_qubits != self.n:
            raise ValueError("circuit qubit count does not match simulator")
        records: list[tuple[int, np.ndarray]] = []
        for _, instr in circuit.instructions():
            records.extend(self.apply_instruction(instr))
        return records

    def expectation(self, pauli: PauliString) -> np.ndarray | None:
        """Per-shot expectation (+1/-1 int8), or None if the value is random."""
        n = self.n
        px = np.array([(pauli.x >> q) & 1 for q in range(n)], dtype=np.uint8)
        pz = np.array([(pauli.z >> q) & 1 for q in range(n)], dtype=np.uint8)
        anti = ((self.x & pz) ^ (self.z & px)).sum(axis=1) % 2
        if anti[n:].any():
            return None
        sx, sz, sign = self._stabilizer_product(anti[:n])
        if not (np.array_equal(sx, px) and np.array_equal(sz, pz)):
            raise ValueError("observable is not in the stabilizer group span")
        return 1 - 2 * sign.astype(np.int8)


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


def noise_draws(
    instr: Instruction, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random draws of one noise instruction over `shots` shots.

    Returns (site, shot, b): the hit sites (indices into instr.sites()), the
    shot of each hit and its basis fault, drawn uniformly, as an index into
    CHANNELS[instr.name] (zero, with no draw, for a one-fault channel).  The
    frame sampler (sample_final_frames) and the key sampler
    (harness.sample_fault_keys) both take their noise from here, so handed
    equal generators they consume them identically.
    """
    bases = len(CHANNELS[instr.name])
    site, shot = _sample_hits(rng, instr.n_sites, shots, instr.arg)
    b = rng.integers(0, bases, len(site)) if bases > 1 else np.zeros_like(site)
    return site, shot, b


# The frame sampler's own reading of a DEPOLARIZE2 draw b: bits of b + 1,
# most significant first, are X on a, Z on a, X on b, Z on b.  Bit j of that
# order is frame component j % 2 (0 = X, 1 = Z) on pair side j // 2.
_DEPOL_SHIFTS = np.array([3, 2, 1, 0])


def sample_final_frames(
    circuit: Circuit, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pauli-frame Monte Carlo: final (x_frame, z_frame) bool arrays (shots, n).

    The frame is the accumulated Pauli error relative to the noiseless run,
    kept as one bool array (component, qubit, shot) with component 0 = X and
    1 = Z.  A CX is two row XORs and a reset zeroes two rows; measurements
    leave the frame untouched.  Noise is sampled sparsely by noise_draws: a
    noise instruction draws its hit count, then the distinct hit positions
    over its sites x shots, then (for DEPOLARIZE2) one of its 15 Paulis per
    hit, so the draws scale with the number of errors, not of shots.
    """
    frames = np.zeros((2, circuit.n_qubits, shots), dtype=bool)
    fx, fz = frames
    for _, instr in circuit.instructions():
        name = instr.name
        if name == "CX":
            for c, t in instr.sites():
                fx[t] ^= fx[c]
                fz[c] ^= fz[t]
        elif name in ("R", "RX"):
            frames[:, list(instr.targets)] = False
        elif name in ("M", "MX"):
            pass
        elif name in ("X_ERROR", "Z_ERROR"):
            site, shot, _ = noise_draws(instr, shots, rng)
            qubit = np.array(instr.targets)[site]
            # ufunc.at, so that hits on one frame bit all land
            np.bitwise_xor.at(frames, (0 if name == "X_ERROR" else 1, qubit, shot), True)
        elif name == "DEPOLARIZE2":
            site, shot, b = noise_draws(instr, shots, rng)
            pairs = np.array(instr.targets).reshape(-1, 2)
            hit, j = np.nonzero(((b[:, None] + 1) >> _DEPOL_SHIFTS) & 1)
            np.bitwise_xor.at(frames, (j % 2, pairs[site[hit], j // 2], shot[hit]), True)
        else:
            raise ValueError(f"unsupported instruction {name}")
    return np.ascontiguousarray(fx.T), np.ascontiguousarray(fz.T)
