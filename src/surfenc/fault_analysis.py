"""Exhaustive fault enumeration over noisy encoding circuits.

Every noise instruction defines fault sites: one per qubit for single-qubit
flip channels, one per pair for two-qubit depolarizing (with 15 basis
faults).  A single backward sweep computes, for every qubit q, the final
image of an X or Z inserted at the current position; recording the images at
each noise site yields all single-fault residuals in one pass.  Residuals of
fault combinations are XORs of the single-fault residuals.

A residual is judged by the target's CheckMatrix (decoder.py), which gives
its syndrome and its protected-logical parity as Python ints of any width.
A combination fails if after minimum-weight matching the corrected residual
still flips the protected logical.  The complementary analysis uses the dual
target's matrix, which for measurement-based circuits also reads the
measured ancillas' outcome flips.

A fault's class is its (syndrome, logical parity); the U distinct syndromes
are decoded once, so there are at most 2U classes.  Since syndrome and
parity are linear in the residual, whether a pair fails depends on its two
classes alone: the pair of classes (s, p) and (t, q) fails iff
p ^ q ^ decode(s ^ t), and one U x U table of decoded XORs fills the class
failure table.  Only faults whose class has a failing partner class are
expanded to fault pairs; there the pairs from two distinct sites are listed
in row-major order of the fault list.  When no class pair fails, as in the
protected analysis at d >= 5, nothing of size F x F is built for the F
basis faults.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit_ir import Circuit, Instruction
from .code_model import SurfaceCode
from .decoder import CheckMatrix, SyndromeDecoder
from .encoders import EncodingPlan, Scheme, Target, gadget_gates
from .stab_sim import PauliString, pauli_letter, qubit_mask

# the 15 two-qubit basis faults of DEPOLARIZE2 as (label, xa, za, xb, zb)
_PAIR_BASES = tuple(
    (pauli_letter(xa, za) + pauli_letter(xb, zb), xa, za, xb, zb)
    for xa, za, xb, zb in itertools.product((0, 1), repeat=4)
)[1:]


@dataclass(frozen=True)
class FaultSite:
    """One elementary noise channel: a flip qubit or a depolarizing pair."""

    index: int
    layer: int
    channel: str
    qubits: tuple[int, ...]

    def describe(self, basis: str) -> str:
        qs = ",".join(str(q) for q in self.qubits)
        return f"L{self.layer}:{self.channel}({qs}):{basis}"


@dataclass(frozen=True)
class BasisFault:
    site: FaultSite
    basis: str
    res_x: int
    res_z: int


def backward_images(circuit: Circuit) -> list[BasisFault]:
    """All single basis faults with their end-of-circuit residuals."""
    n = circuit.n_qubits
    img_x = [1 << q for q in range(n)]
    img_z = [1 << q for q in range(n)]
    recorded: list[tuple[int, str, tuple[int, ...], list[tuple[str, int, int]]]] = []

    for layer, instr in reversed(list(circuit.instructions())):
        name = instr.name
        if name == "CX":
            for c, t in reversed(instr.pairs()):
                img_x[c] ^= img_x[t]
                img_z[t] ^= img_z[c]
        elif name in ("R", "RX"):
            for q in instr.targets:
                img_x[q] = 0
                img_z[q] = 0
        elif name == "M":
            # Z before a Z-basis readout is absorbed; X flips the outcome
            # and survives as the bit at the measured qubit.
            for q in instr.targets:
                img_z[q] = 0
        elif name == "MX":
            for q in instr.targets:
                img_x[q] = 0
        elif name == "DEPOLARIZE2":
            # record in reversed qubit order so the final global reverse
            # leaves sites in forward reading order
            for a, b in reversed(instr.pairs()):
                faults = []
                for basis, xa, za, xb, zb in _PAIR_BASES:
                    rx = (img_x[a] if xa else 0) ^ (img_x[b] if xb else 0)
                    rz = (img_z[a] if za else 0) ^ (img_z[b] if zb else 0)
                    faults.append((basis, rx, rz))
                recorded.append((layer, name, (a, b), faults))
        elif name == "X_ERROR":
            for q in reversed(instr.targets):
                recorded.append((layer, name, (q,), [("X", img_x[q], 0)]))
        elif name == "Z_ERROR":
            for q in reversed(instr.targets):
                recorded.append((layer, name, (q,), [("Z", 0, img_z[q])]))
        else:
            raise ValueError(f"unsupported instruction {name}")

    recorded.reverse()
    out: list[BasisFault] = []
    for idx, (layer, channel, qubits, faults) in enumerate(recorded):
        site = FaultSite(idx, layer, channel, qubits)
        for basis, rx, rz in faults:
            out.append(BasisFault(site, basis, rx, rz))
    return out


@dataclass
class FaultReport:
    variant: str
    d: int
    scheme: str
    target: str
    analysis: str  # 'protected' or 'complementary'
    max_weight_checked: int
    n_sites: int
    n_basis_faults: int
    failing_combinations: list[tuple[str, ...]]
    certified_fault_distance_lower_bound: int

    def summary(self) -> str:
        head = (
            f"{self.variant} d={self.d} {self.scheme}/{self.target} "
            f"[{self.analysis}] sites={self.n_sites} "
            f"basis_faults={self.n_basis_faults} checked<=w{self.max_weight_checked}"
        )
        if not self.failing_combinations:
            return (
                f"{head}: no failures, fault distance >= "
                f"{self.certified_fault_distance_lower_bound}"
            )
        return (
            f"{head}: {len(self.failing_combinations)} failing combinations, "
            f"first {self.failing_combinations[0]}"
        )


def analyze_faults(
    circuit: Circuit,
    code: SurfaceCode,
    target: Target | str,
    scheme: Scheme | str,
    max_weight: int = 1,
    complementary: bool = False,
    decoder: SyndromeDecoder | None = None,
) -> FaultReport:
    """Exhaustively test all fault combinations up to max_weight (1 or 2).

    Pairs combine basis faults from two distinct sites (two faults inside
    one depolarizing channel are mutually exclusive outcomes of a single
    event, so same-site pairs are excluded).  A supplied decoder must
    protect the same target as the analysis.  The circuit must have the
    code's qubit count, and any variant, distance, scheme or target header
    it carries must agree with the arguments.
    """
    if max_weight not in (1, 2):
        raise ValueError("max_weight must be 1 or 2")
    target, scheme = Target(target), Scheme(scheme)
    if circuit.n_qubits != code.n_qubits:
        raise ValueError(
            f"the circuit has {circuit.n_qubits} qubits, the code {code.n_qubits}"
        )
    expected = {
        "variant": code.variant.value,
        "distance": str(code.d),
        "scheme": scheme.value,
        "target": target.value,
    }
    for key, value in expected.items():
        if circuit.metadata.get(key, value) != value:
            raise ValueError(
                f"the circuit's {key} is {circuit.metadata[key]!r}, expected {value!r}"
            )
    matrix = CheckMatrix.of(code, target, scheme, complementary)
    if decoder is None:
        decoder = SyndromeDecoder(code, matrix.target.value)
    elif decoder.matrix.target is not matrix.target:
        raise ValueError(f"the decoder must protect {matrix.target.value!r}")
    faults = backward_images(circuit)
    n_sites = len({f.site.index for f in faults})

    # A fault's class is (syndrome index, logical parity), numbered in order
    # of first appearance.  A depolarizing site reads at most four distinct
    # residuals among its 15 bases, so each residual is judged once.
    index: dict[int, int] = {}
    classes: dict[tuple[int, int], int] = {}
    class_of: dict[int, int] = {}
    cls = []
    for f in faults:
        res = matrix.read(f.res_x, f.res_z)
        c = class_of.get(res)
        if c is None:
            u = index.setdefault(matrix.syndrome(res), len(index))
            key = (u, matrix.logical_parity(res))
            c = class_of[res] = classes.setdefault(key, len(classes))
        cls.append(c)
    cls = np.array(cls, dtype=np.intp)
    uniq = list(index)
    corr = np.array([decoder.decode_syndrome(s) for s in uniq], dtype=np.uint8)
    syn, parity = np.array(list(classes), dtype=np.intp).reshape(-1, 2).T
    parity = parity.astype(np.uint8)

    failing: list[tuple[str, ...]] = []
    for i in np.flatnonzero((parity ^ corr[syn])[cls]):
        f = faults[i]
        failing.append((f.site.describe(f.basis),))

    if max_weight == 2:
        # syndrome and parity are linear in the residual, so a pair's fate
        # depends on its two classes alone
        decode = decoder.decode_syndrome
        table = np.zeros((len(uniq), len(uniq)), dtype=np.uint8)
        for a, sa in enumerate(uniq):
            table[a, a:] = [decode(sa ^ sb) for sb in uniq[a:]]
        table |= table.T
        class_fail = parity[:, None] ^ parity[None, :] ^ table[syn[:, None], syn[None, :]]
        class_fail = class_fail.view(bool)
        # expand to fault pairs only the faults whose class has a failing
        # partner class
        involved = np.flatnonzero(class_fail.any(axis=1)[cls])
        if len(involved):
            sub = cls[involved]
            sites = np.array([faults[i].site.index for i in involved])
            fail = class_fail[sub[:, None], sub[None, :]]
            fail &= sites[:, None] != sites[None, :]
            text = [faults[i].site.describe(faults[i].basis) for i in involved]
            for i, j in zip(*np.nonzero(np.triu(fail, k=1))):
                failing.append((text[i], text[j]))

    if failing:
        bound = min(len(c) for c in failing)
    else:
        bound = max_weight + 1
    return FaultReport(
        variant=code.variant.value,
        d=code.d,
        scheme=scheme.value,
        target=target.value,
        analysis="complementary" if complementary else "protected",
        max_weight_checked=max_weight,
        n_sites=n_sites,
        n_basis_faults=len(faults),
        failing_combinations=failing,
        certified_fault_distance_lower_bound=bound,
    )


@dataclass(frozen=True)
class HookFault:
    """A depolarizing fault inside one fan, propagated to the fan's end."""

    gate_index: int
    basis: str
    protected_data: tuple[int, ...]
    protected_reduced_weight: int
    complementary_data: tuple[int, ...]


def hook_catalogue(plan: EncodingPlan) -> dict[int, list[HookFault]]:
    """Per-check catalogue of all depolarizing faults inside its own fan.

    Residuals are taken at the end of the fan, split into the protected and
    complementary components on data, and the protected one is reduced
    modulo the fan's own check (whichever representative is lighter).
    """
    code = plan.code
    protected = CheckMatrix.of(code, plan.target)
    complementary = CheckMatrix.of(code, plan.target, complementary=True)
    data_mask = qubit_mask(code.data_ids)

    out: dict[int, list[HookFault]] = {}
    for g in itertools.chain.from_iterable(plan.stages):
        gates = [gate for gate in gadget_gates(g, plan.kind) if gate is not None]
        cmask = qubit_mask(g.check.support)
        cxs = [Instruction("CX", gate) for gate in gates]
        entries = []
        for gi, (c, t) in enumerate(gates):
            for basis, xa, za, xb, zb in _PAIR_BASES:
                pauli = PauliString(code.n_qubits, (xa << c) | (xb << t), (za << c) | (zb << t))
                for cx in cxs[gi + 1 :]:
                    pauli = pauli.propagate(cx)
                prot = protected.read(pauli.x, pauli.z) & data_mask
                comp = complementary.read(pauli.x, pauli.z) & data_mask
                reduced = min(prot.bit_count(), (prot ^ cmask).bit_count())
                entries.append(
                    HookFault(
                        gate_index=gi,
                        basis=basis,
                        protected_data=_bits(prot),
                        protected_reduced_weight=reduced,
                        complementary_data=_bits(comp),
                    )
                )
        out[g.check.ancilla] = entries
    return out


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(mask.bit_length()) if (mask >> q) & 1)
