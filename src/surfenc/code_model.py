"""Surface-code lattices: qubit layout, stabilizer checks, logical operators.

Two planar variants are supported, both at arbitrary odd distance d >= 3:

* rotated: d*d data qubits, (d*d - 1)/2 checks of each kind, weights {2, 4}.
* unrotated: d*d + (d-1)*(d-1) data qubits, d*(d-1) checks of each kind,
  weights {3, 4}.

Coordinates live on a doubled integer grid so that check ancillas (which sit
at plaquette centers) get integer coordinates too.  For the rotated code,
data qubits occupy odd-odd sites (2r+1, 2c+1) and ancillas even-even sites;
for the unrotated code, data qubits occupy sites with even coordinate sum and
ancillas the sites with odd coordinate sum.

Orientation is fixed: the logical Z is the leftmost vertical column of data
qubits, the logical X the topmost horizontal row, overlapping in exactly one
qubit.  Weight-2 X checks of the rotated code sit on the left/right
boundaries (the first X-check row's on the left, alternating downward) and
weight-2 Z checks on the top/bottom.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum


class CodeVariant(Enum):
    ROTATED = "rotated"
    UNROTATED = "unrotated"


class QubitRole(Enum):
    DATA = "data"
    ANCILLA = "ancilla"


@dataclass(frozen=True)
class Qubit:
    """A lattice site: stable integer id plus doubled-grid coordinates."""

    id: int
    role: QubitRole
    row: int
    col: int


@dataclass(frozen=True)
class StabilizerCheck:
    """One stabilizer generator.

    support is ordered row-major (top to bottom, then left to right).
    row_index is the geometric row for X checks and the geometric column for
    Z checks; it is the grouping key used by x_check_rows / z_check_columns.
    """

    kind: str
    support: tuple[int, ...]
    ancilla: int
    row_index: int

    @property
    def weight(self) -> int:
        return len(self.support)


@dataclass
class SurfaceCode:
    variant: CodeVariant
    d: int
    qubits: tuple[Qubit, ...]
    x_checks: tuple[StabilizerCheck, ...]
    z_checks: tuple[StabilizerCheck, ...]
    logical_x: tuple[int, ...]
    logical_z: tuple[int, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def data_ids(self) -> tuple[int, ...]:
        return tuple(q.id for q in self.qubits if q.role is QubitRole.DATA)

    @property
    def n_data(self) -> int:
        return len(self.data_ids)

    def checks(self, kind: str) -> tuple[StabilizerCheck, ...]:
        if kind == "X":
            return self.x_checks
        if kind == "Z":
            return self.z_checks
        raise ValueError(f"check kind must be 'X' or 'Z', got {kind!r}")


def validate_distance(d) -> int:
    """d as a Python int; anything but an odd integer >= 3 raises ValueError."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 3 or d % 2 == 0:
        raise ValueError(f"distance must be an odd integer >= 3, got {d!r}")
    return int(d)


def build_code(variant: CodeVariant | str, d: int) -> SurfaceCode:
    """Construct the lattice, checks, and logicals for the given variant."""
    d = validate_distance(d)
    if CodeVariant(variant) is CodeVariant.ROTATED:
        return _build_rotated(d)
    return _build_unrotated(d)


def _build_rotated(d: int) -> SurfaceCode:
    # Data qubit (r, c) -> id r*d + c, coordinate (2r+1, 2c+1).
    qubits = [
        Qubit(r * d + c, QubitRole.DATA, 2 * r + 1, 2 * c + 1)
        for r in range(d)
        for c in range(d)
    ]

    def data_id(r: int, c: int) -> int:
        return r * d + c

    # Plaquette cell (r, c) covers data rows r..r+1, cols c..c+1.  Cells with
    # odd r+c hold X checks, even r+c hold Z checks; the pattern extends one
    # virtual ring outward, truncated to weight-2 checks on the boundaries.
    cells: list[tuple[int, int, str]] = []
    for r in range(-1, d):
        for c in range(-1, d):
            kind = "X" if (r + c) % 2 else "Z"
            interior = 0 <= r <= d - 2 and 0 <= c <= d - 2
            left_right = c in (-1, d - 1) and 0 <= r <= d - 2 and kind == "X"
            top_bottom = r in (-1, d - 1) and 0 <= c <= d - 2 and kind == "Z"
            if interior or left_right or top_bottom:
                cells.append((r, c, kind))

    cells.sort(key=lambda rc: (rc[0], rc[1]))
    ancilla_start = d * d
    x_checks, z_checks = [], []
    for offset, (r, c, kind) in enumerate(cells):
        aid = ancilla_start + offset
        support = tuple(
            data_id(rr, cc)
            for rr in (r, r + 1)
            for cc in (c, c + 1)
            if 0 <= rr < d and 0 <= cc < d
        )
        row_index = r if kind == "X" else c
        check = StabilizerCheck(kind, support, aid, row_index)
        (x_checks if kind == "X" else z_checks).append(check)
        qubits.append(Qubit(aid, QubitRole.ANCILLA, 2 * r + 2, 2 * c + 2))

    return SurfaceCode(
        variant=CodeVariant.ROTATED,
        d=d,
        qubits=tuple(qubits),
        x_checks=tuple(x_checks),
        z_checks=tuple(z_checks),
        logical_x=tuple(data_id(0, c) for c in range(d)),
        logical_z=tuple(data_id(r, 0) for r in range(d)),
    )


def _build_unrotated(d: int) -> SurfaceCode:
    span = 2 * d - 1
    qubits: list[Qubit] = []
    data_ids: dict[tuple[int, int], int] = {}
    for i in range(span):
        for j in range(span):
            if (i + j) % 2 == 0:
                data_ids[(i, j)] = len(qubits)
                qubits.append(Qubit(len(qubits), QubitRole.DATA, i, j))

    ancilla_sites = [
        (i, j) for i in range(span) for j in range(span) if (i + j) % 2 == 1
    ]
    ancilla_sites.sort()

    x_checks, z_checks = [], []
    for i, j in ancilla_sites:
        aid = len(qubits)
        qubits.append(Qubit(aid, QubitRole.ANCILLA, i, j))
        support = tuple(
            data_ids[(ii, jj)]
            for ii, jj in ((i - 1, j), (i, j - 1), (i, j + 1), (i + 1, j))
            if (ii, jj) in data_ids
        )
        if i % 2 == 1:  # odd row, even column: X check
            x_checks.append(StabilizerCheck("X", support, aid, (i - 1) // 2))
        else:  # even row, odd column: Z check
            z_checks.append(StabilizerCheck("Z", support, aid, (j - 1) // 2))

    return SurfaceCode(
        variant=CodeVariant.UNROTATED,
        d=d,
        qubits=tuple(qubits),
        x_checks=tuple(x_checks),
        z_checks=tuple(z_checks),
        logical_x=tuple(data_ids[(0, j)] for j in range(0, span, 2)),
        logical_z=tuple(data_ids[(i, 0)] for i in range(0, span, 2)),
    )


def check_commutation(code: SurfaceCode) -> bool:
    """True iff all checks commute pairwise and with the opposite logicals.

    Two Pauli products of opposite kind commute exactly when their supports
    overlap on an even number of qubits.  Same-kind operators always commute.
    """
    z_supports = [set(c.support) for c in code.z_checks]
    sets_x = [set(c.support) for c in code.x_checks] + [set(code.logical_x)]
    sets_z = z_supports + [set(code.logical_z)]
    for sx in sets_x:
        for sz in sets_z:
            if sx == set(code.logical_x) and sz == set(code.logical_z):
                continue  # the logical pair must anticommute instead
            if len(sx & sz) % 2:
                return False
    return len(set(code.logical_x) & set(code.logical_z)) % 2 == 1


def x_check_rows(code: SurfaceCode) -> list[list[StabilizerCheck]]:
    """X checks grouped by geometric row, top to bottom, left to right."""
    return _grouped(code, code.x_checks)


def z_check_columns(code: SurfaceCode) -> list[list[StabilizerCheck]]:
    """Z checks grouped by geometric column, left to right, top to bottom."""
    return _grouped(code, code.z_checks)


def _grouped(code: SurfaceCode, checks) -> list[list[StabilizerCheck]]:
    indices = sorted({c.row_index for c in checks})
    groups = []
    for idx in indices:
        group = [c for c in checks if c.row_index == idx]
        group.sort(key=lambda c: (code.qubits[c.ancilla].row, code.qubits[c.ancilla].col))
        groups.append(group)
    return groups

