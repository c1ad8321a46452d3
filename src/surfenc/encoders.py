"""Encoding-circuit generators for surface codes.

All three schemes are built from one shape, the CNOT fan: a pivot qubit
is the control (X checks) or the target (Z checks) of one CNOT per time
slot, one to each remaining data qubit of one check.

* ue: unitary encoder.  One fan per stabilizer check of one kind, run from
  a designated pivot data qubit; nothing is measured.
* uea: unitary encoder with ancilla.  Each fan is relayed through the
  check's ancilla, which is disentangled again by the closing CNOT; data
  qubits then interact with the ancilla instead of with each other.
* me: measurement-based encoder.  A measured check is a fan from its
  ancilla, which is then read out: one stage of parallel check
  measurements of the kind the initial product state does not already
  satisfy.

Every scheme resets its pivots in the basis opposite to the target's and
all other qubits in the target's basis; only me reads its pivots out.

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

import itertools
import numbers
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
    """One CNOT fan: a check, its pivot, and the pivot's partner per slot.

    For ue and uea the pivot is a data qubit of the check and order holds
    the rest of the support; uea relays the fan through ancilla.  A measured
    check (me) is a fan whose pivot is the check's ancilla and whose order
    has one entry per CNOT slot, None where the slot is idle.
    """

    check: StabilizerCheck
    pivot: int
    order: tuple[int | None, ...]
    ancilla: int | None = None


@dataclass
class EncodingPlan:
    code: SurfaceCode
    scheme: Scheme
    target: Target
    stages: list[list[GadgetPlan]]

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


def gadget_gates(gadget: GadgetPlan, kind: str) -> list[tuple[int, int] | None]:
    """CNOTs of one fan as (control, target) per time slot; None if idle."""
    p = gadget.pivot
    a = gadget.ancilla
    if a is None:
        if kind == "X":
            return [None if t is None else (p, t) for t in gadget.order]
        return [None if t is None else (t, p) for t in gadget.order]
    if kind == "X":
        return [(p, a)] + [(a, t) for t in gadget.order] + [(p, a)]
    return [(a, p)] + [(t, a) for t in gadget.order] + [(a, p)]


_ME_SLOTS = {
    (CodeVariant.ROTATED, "X"): {(1, -1): 0, (-1, -1): 1, (1, 1): 2, (-1, 1): 3},
    (CodeVariant.ROTATED, "Z"): {(-1, -1): 0, (-1, 1): 1, (1, -1): 2, (1, 1): 3},
    (CodeVariant.UNROTATED, "X"): {(0, -1): 0, (0, 1): 1, (-1, 0): 2, (1, 0): 3},
    (CodeVariant.UNROTATED, "Z"): {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3},
}


def _measured_check(code: SurfaceCode, check: StabilizerCheck) -> GadgetPlan:
    anc = code.qubits[check.ancilla]
    slot_map = _ME_SLOTS[(code.variant, check.kind)]
    order: list[int | None] = [None, None, None, None]
    for q in check.support:
        dq = code.qubits[q]
        delta = (
            (dq.row > anc.row) - (dq.row < anc.row),
            (dq.col > anc.col) - (dq.col < anc.col),
        )
        slot = slot_map[delta]
        if order[slot] is not None:
            raise ValueError(f"slot collision inside check {check}")
        order[slot] = q
    return GadgetPlan(check=check, pivot=check.ancilla, order=tuple(order))


def build_plan(code: SurfaceCode, scheme: Scheme, target: Target) -> EncodingPlan:
    kind = prepared_check_kind(target)
    groups = x_check_rows(code) if kind == "X" else z_check_columns(code)
    if scheme is Scheme.ME:
        stages = [[_measured_check(code, c) for grp in groups for c in grp]]
    else:
        stages = [[_gadget_plan(code, c, scheme) for c in grp] for grp in groups]
    return EncodingPlan(code, scheme, target, stages)


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
    return replace(plan, stages=stages)


def noise_strength(p, name: str = "p") -> float:
    """p as a Python float; a bool, a non-real or a value outside [0, 1] raises ValueError."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise strength must be in [0, 1], got {p}")
    return float(p)


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
    p = noise_strength(p)
    code = plan.code
    kind = plan.kind
    zero = plan.target is Target.ZERO
    fans = [g for stage in plan.stages for g in stage]
    pivots = sorted(g.pivot for g in fans)
    pivot_set = set(pivots)
    groups = [
        ("R" if zero else "RX", [q for q in code.data_ids if q not in pivot_set]),
        ("RX" if zero else "R", pivots),
        ("R" if zero else "RX", [g.ancilla for g in fans if g.ancilla is not None]),
    ]
    layers = [_noisy_reset_layer(groups, p)]

    for stage in plan.stages:
        # one layer per slot, as many as the longest fan has; None is idle
        for column in itertools.zip_longest(*(gadget_gates(g, kind) for g in stage)):
            layer: list[Instruction] = []
            for gate in column:
                if gate is not None:
                    layer.append(Instruction("CX", gate))
                    layer.append(Instruction("DEPOLARIZE2", gate, p))
            layers.append(layer)
    if plan.scheme is Scheme.ME:
        layers.append([Instruction("MX" if zero else "M", tuple(pivots))])

    meta = {
        "variant": code.variant.value,
        "distance": str(code.d),
        "scheme": plan.scheme.value,
        "target": plan.target.value,
        "p": repr(p),
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
    code = build_code(variant, d)
    plan = build_plan(code, Scheme(scheme), Target(target))
    if scrambled:
        plan = scramble_plan(plan)
    circuit = plan_to_circuit(plan, p)
    if scrambled:
        circuit.metadata["scrambled"] = "true"
    return circuit
