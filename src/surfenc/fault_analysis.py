"""Exhaustive fault enumeration over noisy encoding circuits.

Every noise instruction defines fault sites (Instruction.sites), each with
the basis faults that circuit_ir.CHANNELS lists for its channel.  A single
backward sweep computes, for every qubit q, the final image of an X or Z
inserted at the current position; recording the images at each noise site
yields all single-fault residuals in one pass.  Residuals of
fault combinations are XORs of the single-fault residuals.  Propagation is
linear, so the sweep runs in any image space: started from unit masks it
gives the residuals themselves, started from a linear map of the final
residual (such as CheckMatrix.key_images) it gives that map of every
residual, at the same cost.

backward_images returns the sweep as one FaultTable: the fault sites, and
per basis fault its site, its Pauli label and the images of its residual.
A residual is judged by the target's CheckMatrix (decoder.py) through its
key, syndrome | logical parity << m for m detecting checks, a Python int of
any width.  Run in key space, the table holds every fault's key, read as
matrix.read(res_x, res_z); the enumeration below and the Monte Carlo
harness both take their keys from it that way.  A combination fails if
after minimum-weight matching the corrected residual still flips the
protected logical.  The complementary analysis uses the dual target's
matrix, which for measurement-based circuits also reads the measured
ancillas' outcome flips.

A fault's class is its key, (syndrome, logical parity), and the C distinct
keys are packed by CheckMatrix.pack.  SyndromeDecoder.failures judges
them, and so every single fault.  Syndrome and parity are linear in
the residual, so a pair fails iff the XOR of its two class keys does:
failures over the C x C class-key XORs fills the class failure table.
Only faults whose class has a failing partner class are expanded to fault
pairs; there the pairs from two distinct sites are listed in row-major
order of the fault list.  When no class pair fails, as in the protected
analysis at d >= 5, nothing of size F x F is built for the F basis faults.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .circuit_ir import CHANNELS, Circuit, Instruction
from .code_model import SurfaceCode
from .decoder import CheckMatrix, SyndromeDecoder
from .encoders import EncodingPlan, Scheme, Target, gadget_gates
from .stab_sim import qubit_mask


# per site width: entry s of a site's subset images is the XOR of the images
# of the site qubits i in the bits of s
_SUBSETS = {
    1: lambda img, qs: (0, img[qs[0]]),
    2: lambda img, qs: (0, img[qs[0]], img[qs[1]], img[qs[0]] ^ img[qs[1]]),
}


def _reader(bases):
    """A channel's labels, its subset images, and getters of each basis
    fault's X part and Z part from those."""
    labels, xs, zs = zip(*bases)
    if len(bases) == 1:  # a slice, so that the getters still return tuples
        xs, zs = [(slice(i, i + 1),) for i in xs + zs]
    return labels, _SUBSETS[len(labels[0])], itemgetter(*xs), itemgetter(*zs)


_READERS = {name: _reader(bases) for name, bases in CHANNELS.items()}


@dataclass(frozen=True)
class FaultTable:
    """Every basis fault of a circuit in reading order, as columns.

    A site is one elementary noise channel, (layer, channel, qubits): a flip
    qubit or a depolarizing pair.  Entry f of site, basis, res_x and res_z is
    basis fault f's index into sites, its Pauli label and the images of its
    residual's X and Z parts.
    """

    sites: tuple[tuple[int, str, tuple[int, ...]], ...]
    site: list[int]
    basis: list[str]
    res_x: list[int]
    res_z: list[int]

    def describe(self, f: int) -> str:
        layer, channel, qubits = self.sites[self.site[f]]
        qs = ",".join(str(q) for q in qubits)
        return f"L{layer}:{channel}({qs}):{self.basis[f]}"


def backward_images(circuit: Circuit, images: tuple[list[int], list[int]]) -> FaultTable:
    """All single basis faults with the images of their end-of-circuit residuals.

    images = (img_x, img_z) gives the image of an X and of a Z on each
    qubit at the end of the circuit, as ints in any image space.  Unit
    masks (bit q for qubit q) make res_x and res_z the residual's X and Z
    masks; CheckMatrix.key_images makes read(res_x, res_z) the residual's
    key.
    """
    img_x, img_z = list(images[0]), list(images[1])
    # (site, labels, res_x, res_z) per site, last site first
    recorded = []
    for layer, instr in reversed(list(circuit.instructions())):
        name = instr.name
        if name == "CX":
            for c, t in reversed(instr.sites()):
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
        elif name in CHANNELS:
            labels, subsets, pick_x, pick_z = _READERS[name]
            for qs in reversed(instr.sites()):
                recorded.append((
                    (layer, name, qs),
                    labels,
                    pick_x(subsets(img_x, qs)),
                    pick_z(subsets(img_z, qs)),
                ))
        else:
            raise ValueError(f"unsupported instruction {name}")
    recorded.reverse()
    site, basis, res_x, res_z = [], [], [], []
    for i, (_, labels, rx, rz) in enumerate(recorded):
        site += [i] * len(labels)
        basis += labels
        res_x += rx
        res_z += rz
    return FaultTable(tuple(s for s, *_ in recorded), site, basis, res_x, res_z)


_NO_PAIRS = np.empty(0, dtype=np.intp)


class FailingCombinations(Sequence):
    """A report's failing combinations: the failing singles, as 1-tuples of
    fault descriptions, then the failing pairs (text[i[n]], text[j[n]]).

    A read-only list that builds each pair's tuple only when it is read, so
    a report with a million failing pairs holds two index arrays, not a
    million tuples.  Indexing, slicing (a list), len, iteration, == against
    a list or another view, and repr behave as on the list it stands for.
    """

    __slots__ = ("_singles", "_text", "_i", "_j")

    def __init__(self, singles: list[tuple[str]], text=(), i=_NO_PAIRS, j=_NO_PAIRS):
        self._singles, self._text, self._i, self._j = singles, text, i, j

    def __len__(self) -> int:
        return len(self._singles) + len(self._i)

    def __getitem__(self, index):
        # a range of our length indexes as a list does: negative indices,
        # slices, IndexError past either end, TypeError on a non-integer
        if isinstance(index, slice):
            return [self[n] for n in range(len(self))[index]]
        n = range(len(self))[index]
        if n < len(self._singles):
            return self._singles[n]
        n -= len(self._singles)
        return (self._text[self._i[n]], self._text[self._j[n]])

    def __iter__(self):
        yield from self._singles
        text = self._text
        for a, b in zip(self._i.tolist(), self._j.tolist()):
            yield (text[a], text[b])

    def __eq__(self, other):
        if isinstance(other, FailingCombinations):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return len(self) == len(other) and list(self) == other

    __hash__ = None  # unhashable, as a list

    def __repr__(self) -> str:
        return repr(list(self))


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
    failing_combinations: FailingCombinations
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
    """Exhaustively test all fault combinations up to max_weight, the int 1 or 2.

    Pairs combine basis faults from two distinct sites (two faults inside
    one depolarizing channel are mutually exclusive outcomes of a single
    event, so same-site pairs are excluded).  A supplied decoder must
    protect the same target as the analysis, and have the code's check
    matrix and data qubits.  The circuit must have the code's qubit count,
    and any variant, distance, scheme or target header it carries must
    agree with the arguments.
    """
    if type(max_weight) is not int or max_weight not in (1, 2):
        raise ValueError(f"max_weight must be 1 or 2, got {max_weight!r}")
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
    # past its target, a decoder's CheckMatrix follows from the code's checks
    # and logical, so those two are compared
    elif (decoder.matrix.checks, decoder.matrix.logical_support) != (
        matrix.checks, matrix.logical_support
    ):
        raise ValueError(
            f"the decoder's check matrix is not the analysed code's: decoder "
            f"{decoder.code.variant.value} d={decoder.code.d}, code "
            f"{code.variant.value} d={code.d}"
        )
    elif decoder.code.data_ids != code.data_ids:
        raise ValueError("the decoder's data qubits are not the analysed code's")
    table = backward_images(circuit, matrix.key_images(circuit.n_qubits))

    # A fault's class is its key, numbered in order of first appearance.
    keys = list(map(matrix.read, table.res_x, table.res_z))
    index = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    cls = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
    classes = matrix.pack(index)
    singles = [(table.describe(f),) for f in np.flatnonzero(decoder.failures(classes)[cls])]
    failing = FailingCombinations(singles)

    if max_weight == 2:
        # syndrome and parity are linear in the residual, so a pair's fate
        # depends on its two classes alone
        words, n = classes.shape
        xor = (classes[:, :, None] ^ classes[:, None, :]).reshape(words, n * n)
        class_fail = decoder.failures(xor).reshape(n, n)
        # expand to fault pairs only the faults whose class has a failing
        # partner class
        involved = np.flatnonzero(class_fail.any(axis=1)[cls])
        if len(involved):
            sub = cls[involved]
            sites = np.array(table.site)[involved]
            fail = class_fail[sub[:, None], sub[None, :]]
            fail &= sites[:, None] != sites[None, :]
            text = [table.describe(f) for f in involved]
            # index arrays, not one tuple per pair: a million Python objects
            # would cost their memory and the collections they trigger
            failing = FailingCombinations(singles, text, *np.nonzero(np.triu(fail, k=1)))

    # the smallest failing combination: singles come first
    bound = len(failing[0]) if failing else max_weight + 1
    return FaultReport(
        variant=code.variant.value,
        d=code.d,
        scheme=scheme.value,
        target=target.value,
        analysis="complementary" if complementary else "protected",
        max_weight_checked=max_weight,
        n_sites=len(table.sites),
        n_basis_faults=len(table.site),
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
    They come from backward_images over the fan alone, a DEPOLARIZE2 after
    each of its gates, so gate_index is the fault's site.
    """
    code = plan.code
    protected = CheckMatrix.of(code, plan.target)
    complementary = CheckMatrix.of(code, plan.target, complementary=True)
    data_mask = qubit_mask(code.data_ids)
    unit = [1 << q for q in range(code.n_qubits)]

    out: dict[int, list[HookFault]] = {}
    for g in itertools.chain.from_iterable(plan.stages):
        gates = [gate for gate in gadget_gates(g, plan.kind) if gate is not None]
        cmask = qubit_mask(g.check.support)
        fan = [[Instruction("CX", pair), Instruction("DEPOLARIZE2", pair, 0.0)] for pair in gates]
        table = backward_images(Circuit(code.n_qubits, fan), (unit, unit))
        entries = []
        for gi, basis, x, z in zip(table.site, table.basis, table.res_x, table.res_z):
            prot = protected.read(x, z) & data_mask
            comp = complementary.read(x, z) & data_mask
            reduced = min(prot.bit_count(), (prot ^ cmask).bit_count())
            entries.append(HookFault(gi, basis, _bits(prot), reduced, _bits(comp)))
        out[g.check.ancilla] = entries
    return out


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(mask.bit_length()) if (mask >> q) & 1)
