"""Encoding-circuit generators for surface codes.

Three schemes prepare a logical basis state from a product state:

* ue: unitary encoder.  One CNOT fan per stabilizer check of one kind,
  controlled (X checks) or targeted (Z checks) on a designated pivot qubit.
* uea: unitary encoder with ancilla.  Each fan is routed through the
  check's ancilla, which is disentangled again by the closing CNOT; data
  qubits then interact with the ancilla instead of with each other.
* me: measurement-based encoder.  One round of parallel check measurements
  of the kind the initial product state does not already satisfy.

Preparing logical |0> (target zero) needs only the X-check structure, since
|0...0> already satisfies every Z check; logical |+> is the exact dual.

The circuits are scheduled so that every two-qubit depolarizing fault on a
single CNOT leaves a residual on the data that is, modulo the check being
prepared, either a single error or a pair aligned PERPENDICULAR to the
protected logical operator's error chains.  Such pairs advance no chain, so
one fault never produces distance-halving damage.  The within-fan target
orders below are load-bearing for exactly this reason; permuting them can
re-orient a hook pair along the harmful direction (see scramble_plan, which
does so deliberately to produce a negative control).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .circuit_ir import Circuit, Instruction
from .code_model import (
    CodeVariant,
    StabilizerCheck,
    SurfaceCode,
    build_code,
    x_check_rows,
    z_check_columns,
)


class Scheme(Enum):
    UE = "ue"
    UEA = "uea"
    ME = "me"


class Target(Enum):
    ZERO = "zero"
    PLUS = "plus"


def prepared_check_kind(target: Target) -> str:
    """The check kind the encoder must actively prepare for this target."""
    return "X" if target is Target.ZERO else "Z"


@dataclass(frozen=True)
class GadgetPlan:
    """One CNOT fan: a check, its pivot, and the remaining support order."""

    check: StabilizerCheck
    pivot: int
    order: tuple[int, ...]
    ancilla: int | None = None


@dataclass(frozen=True)
class MeasureBlock:
    """One measured check: data qubit per CNOT time slot (None = unused)."""

    check: StabilizerCheck
    slots: tuple[int | None, int | None, int | None, int | None]


@dataclass
class EncodingPlan:
    code: SurfaceCode
    scheme: Scheme
    target: Target
    stages: list[list[GadgetPlan]]
    blocks: list[MeasureBlock]

    @property
    def kind(self) -> str:
        return prepared_check_kind(self.target)


def _ab(code: SurfaceCode, qid: int, kind: str) -> tuple[int, int]:
    # Adapter coordinates: X-kind fans grow downward (a = row), Z-kind fans
    # grow rightward (a = col).  All order rules below are written in (a, b).
    q = code.qubits[qid]
    return (q.row, q.col) if kind == "X" else (q.col, q.row)


def _gadget_plan(code: SurfaceCode, check: StabilizerCheck, scheme: Scheme) -> GadgetPlan:
    kind = check.kind
    ab = {q: _ab(code, q, kind) for q in check.support}
    pivot = max(check.support, key=lambda q: (ab[q][0], -ab[q][1]))
    above = [q for q in check.support if q != pivot and ab[q][1] == ab[pivot][1]]
    if len(above) != 1:
        raise ValueError(f"check {check} has no unique in-line partner")
    above = above[0]
    rest = sorted(
        (q for q in check.support if q not in (pivot, above)),
        key=lambda q: ab[q],
    )

    if len(rest) == 1:
        # weight-3 check: one cross qubit is cut off by the lattice boundary.
        low_side_missing = ab[rest[0]][1] > ab[pivot][1]
        above_first = low_side_missing if scheme is Scheme.UE else not low_side_missing
    else:
        above_first = scheme is Scheme.UEA

    order = [above] + rest if above_first else rest + [above]
    ancilla = check.ancilla if scheme is Scheme.UEA else None
    return GadgetPlan(check=check, pivot=pivot, order=tuple(order), ancilla=ancilla)


def gadget_gates(gadget: GadgetPlan, kind: str) -> list[tuple[int, int]]:
    """CNOTs of one fan as (control, target), in time order."""
    p = gadget.pivot
    a = gadget.ancilla
    if a is None:
        if kind == "X":
            return [(p, t) for t in gadget.order]
        return [(t, p) for t in gadget.order]
    if kind == "X":
        return [(p, a)] + [(a, t) for t in gadget.order] + [(p, a)]
    return [(a, p)] + [(t, a) for t in gadget.order] + [(a, p)]


_ME_SLOTS = {
    (CodeVariant.ROTATED, "X"): {(1, -1): 0, (-1, -1): 1, (1, 1): 2, (-1, 1): 3},
    (CodeVariant.ROTATED, "Z"): {(-1, -1): 0, (-1, 1): 1, (1, -1): 2, (1, 1): 3},
    (CodeVariant.UNROTATED, "X"): {(0, -1): 0, (0, 1): 1, (-1, 0): 2, (1, 0): 3},
    (CodeVariant.UNROTATED, "Z"): {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3},
}


def _measure_block(code: SurfaceCode, check: StabilizerCheck) -> MeasureBlock:
    anc = code.qubits[check.ancilla]
    slot_map = _ME_SLOTS[(code.variant, check.kind)]
    slots: list[int | None] = [None, None, None, None]
    for q in check.support:
        dq = code.qubits[q]
        delta = (
            (dq.row > anc.row) - (dq.row < anc.row),
            (dq.col > anc.col) - (dq.col < anc.col),
        )
        slot = slot_map[delta]
        if slots[slot] is not None:
            raise ValueError(f"slot collision inside check {check}")
        slots[slot] = q
    return MeasureBlock(check=check, slots=tuple(slots))


def measure_block_gates(block: MeasureBlock) -> list[tuple[int, int]]:
    """CNOTs of one measured check in slot order (skipping empty slots)."""
    anc = block.check.ancilla
    gates = []
    for q in block.slots:
        if q is None:
            continue
        gates.append((anc, q) if block.check.kind == "X" else (q, anc))
    return gates


def build_plan(code: SurfaceCode, scheme: Scheme, target: Target) -> EncodingPlan:
    kind = prepared_check_kind(target)
    groups = x_check_rows(code) if kind == "X" else z_check_columns(code)
    if scheme is Scheme.ME:
        blocks = [_measure_block(code, c) for grp in groups for c in grp]
        return EncodingPlan(code, scheme, target, stages=[], blocks=blocks)
    stages = [[_gadget_plan(code, c, scheme) for c in grp] for grp in groups]
    return EncodingPlan(code, scheme, target, stages=stages, blocks=[])


def scramble_plan(plan: EncodingPlan) -> EncodingPlan:
    """Negative control: re-orient one fan's hook pair along the harmful axis.

    Swaps the last two targets of the first full-weight fan in the second
    stage.  The resulting circuit is still a correct noiseless encoder (the
    fan's CNOTs commute), but a single depolarizing fault on its middle CNOT
    now leaves a data pair parallel to the protected logical operator.
    """
    if plan.scheme is not Scheme.UE:
        raise ValueError("scrambling is defined for the plain unitary encoder")
    stages = [list(stage) for stage in plan.stages]
    for i, g in enumerate(stages[1]):
        if len(g.order) == 3:
            o = g.order
            stages[1][i] = replace(g, order=(o[0], o[2], o[1]))
            break
    else:
        raise ValueError("no full-weight fan found to scramble")
    return EncodingPlan(plan.code, plan.scheme, plan.target, stages, blocks=[])


def _noisy_reset_layer(groups: list[tuple[str, list[int]]], p: float) -> list[Instruction]:
    layer = []
    for basis, qubits in groups:
        if not qubits:
            continue
        targets = tuple(sorted(qubits))
        layer.append(Instruction(basis, targets))
        noise = "X_ERROR" if basis == "R" else "Z_ERROR"
        layer.append(Instruction(noise, targets, p))
    return layer


def plan_to_circuit(plan: EncodingPlan, p: float) -> Circuit:
    """Emit the time-sliced noisy circuit for a plan.

    Noise model: every CNOT is followed by DEPOLARIZE2(p) on its qubit pair,
    every reset by a flip of the opposite basis with probability p, in the
    same layer.  Measurements are noiseless.  Noise instructions are emitted
    even at p = 0 so that fault enumeration sees the same site structure at
    every noise strength.
    """
    code = plan.code
    kind = plan.kind
    data = list(code.data_ids)
    zero = plan.target is Target.ZERO
    layers: list[list[Instruction]] = []

    if plan.scheme is Scheme.ME:
        ancillas = [b.check.ancilla for b in plan.blocks]
        layers.append(
            _noisy_reset_layer(
                [("R" if zero else "RX", data), ("RX" if zero else "R", ancillas)], p
            )
        )
        for slot in range(4):
            layer: list[Instruction] = []
            for block in plan.blocks:
                q = block.slots[slot]
                if q is None:
                    continue
                anc = block.check.ancilla
                pair = (anc, q) if kind == "X" else (q, anc)
                layer.append(Instruction("CX", pair))
                layer.append(Instruction("DEPOLARIZE2", pair, p))
            layers.append(layer)
        layers.append([Instruction("MX" if zero else "M", tuple(sorted(ancillas)))])
    else:
        pivots = {g.pivot for stage in plan.stages for g in stage}
        plain = [q for q in data if q not in pivots]
        groups = [
            ("R" if zero else "RX", plain),
            ("RX" if zero else "R", sorted(pivots)),
        ]
        if plan.scheme is Scheme.UEA:
            ancillas = [g.ancilla for stage in plan.stages for g in stage]
            groups.append(("R" if zero else "RX", ancillas))
        layers.append(_noisy_reset_layer(groups, p))

        slots_per_stage = 3 if plan.scheme is Scheme.UE else 5
        for stage in plan.stages:
            slot_layers: list[list[Instruction]] = [[] for _ in range(slots_per_stage)]
            for g in stage:
                for slot, (c, t) in enumerate(gadget_gates(g, kind)):
                    slot_layers[slot].append(Instruction("CX", (c, t)))
                    slot_layers[slot].append(Instruction("DEPOLARIZE2", (c, t), p))
            layers.extend(slot_layers)

    meta = {
        "variant": code.variant.value,
        "distance": str(code.d),
        "scheme": plan.scheme.value,
        "target": plan.target.value,
        "p": repr(float(p)),
    }
    return Circuit(n_qubits=code.n_qubits, layers=layers, metadata=meta)


def generate_circuit(
    variant: CodeVariant | str,
    d: int,
    scheme: Scheme | str,
    target: Target | str,
    p: float,
    scrambled: bool = False,
) -> Circuit:
    variant = CodeVariant(variant) if isinstance(variant, str) else variant
    scheme = Scheme(scheme) if isinstance(scheme, str) else scheme
    target = Target(target) if isinstance(target, str) else target
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise strength must be in [0, 1], got {p}")
    code = build_code(variant, d)
    plan = build_plan(code, scheme, target)
    if scrambled:
        plan = scramble_plan(plan)
    circuit = plan_to_circuit(plan, p)
    if scrambled:
        circuit.metadata["scrambled"] = "true"
    return circuit
