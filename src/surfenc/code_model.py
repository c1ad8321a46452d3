"""Surface-code lattices: qubit layout, stabilizer checks, logical operators.

Two planar variants are supported, both at arbitrary odd distance d >= 3:

* rotated: d*d data qubits, (d*d - 1)/2 checks of each kind, weights {2, 4}.
* unrotated: d*d + (d-1)*(d-1) data qubits, d*(d-1) checks of each kind,
  weights {3, 4}.

Both come from one rule set on a doubled integer grid of side s, so that
check ancillas (which sit at plaquette centers) get integer coordinates too.
The variants differ only in five parameters:

  variant    s      data sites    check sites   support     X check iff
  rotated    2d+1   odd-odd       even-even     diagonal    (row+col)/2 odd
  unrotated  2d-1   row+col even  row+col odd   orthogonal  row odd

A check's support is its data neighbours (diagonal or orthogonal), in
row-major order.  A check site with at least 3 of them holds a check; one
with exactly 2 holds one only on the boundary its kind truncates (column 0
or s-1 for X, row 0 or s-1 for Z); lighter sites hold none.  Data qubits are
numbered row-major from 0, and the ancillas of the checks follow them in
row-major order.  row_index is (row-1)//2 for an X check and (col-1)//2 for
a Z check.

Orientation is fixed: the logical Z is the leftmost vertical column of data
qubits, the logical X the topmost horizontal row, overlapping in exactly one
qubit.  Weight-2 X checks of the rotated code sit on the left/right
boundaries (the first X-check row's on the left, alternating downward) and
weight-2 Z checks on the top/bottom.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
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
    Z checks; it is the grouping key of check_groups.
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
    # derived from qubits once per construction, dataclasses.replace included
    data_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.data_ids = tuple(q.id for q in self.qubits if q.role is QubitRole.DATA)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

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


# The module docstring's rule table, one row per variant: s - 2d, data site?,
# check site?, neighbour offsets (row-major), X check?
_RULES = {
    CodeVariant.ROTATED: (
        1,
        lambda r, c: r % 2 == 1 and c % 2 == 1,
        lambda r, c: r % 2 == 0 and c % 2 == 0,
        ((-1, -1), (-1, 1), (1, -1), (1, 1)),
        lambda r, c: (r + c) // 2 % 2 == 1,
    ),
    CodeVariant.UNROTATED: (
        -1,
        lambda r, c: (r + c) % 2 == 0,
        lambda r, c: (r + c) % 2 == 1,
        ((-1, 0), (0, -1), (0, 1), (1, 0)),
        lambda r, c: r % 2 == 1,
    ),
}


def build_code(variant: CodeVariant | str, d: int) -> SurfaceCode:
    """Construct the lattice, checks, and logicals for the given variant."""
    d = validate_distance(d)
    variant = CodeVariant(variant)
    grow, is_data, is_check, offsets, is_x = _RULES[variant]
    side = 2 * d + grow
    sites = [(r, c) for r in range(side) for c in range(side)]
    data_ids = {site: i for i, site in enumerate(s for s in sites if is_data(*s))}
    qubits = [Qubit(i, QubitRole.DATA, r, c) for (r, c), i in data_ids.items()]
    checks: dict[str, list[StabilizerCheck]] = {"X": [], "Z": []}
    for r, c in sites:
        if not is_check(r, c):
            continue
        kind = "X" if is_x(r, c) else "Z"
        support = tuple(
            data_ids[r + dr, c + dc] for dr, dc in offsets if (r + dr, c + dc) in data_ids
        )
        truncated_edge = (c if kind == "X" else r) in (0, side - 1)
        if len(support) < 2 or (len(support) == 2 and not truncated_edge):
            continue
        aid = len(qubits)
        qubits.append(Qubit(aid, QubitRole.ANCILLA, r, c))
        row_index = (r - 1) // 2 if kind == "X" else (c - 1) // 2
        checks[kind].append(StabilizerCheck(kind, support, aid, row_index))

    top, left = qubits[0].row, qubits[0].col
    return SurfaceCode(
        variant=variant,
        d=d,
        qubits=tuple(qubits),
        x_checks=tuple(checks["X"]),
        z_checks=tuple(checks["Z"]),
        logical_x=tuple(i for (r, _), i in data_ids.items() if r == top),
        logical_z=tuple(i for (_, c), i in data_ids.items() if c == left),
    )


def check_groups(code: SurfaceCode, kind: str) -> list[list[StabilizerCheck]]:
    """The checks of one kind bucketed by row_index, ascending.

    X checks come out as geometric rows, top to bottom; Z checks as geometric
    columns, left to right.  Each bucket keeps the builder's row-major order.
    """
    groups: dict[int, list[StabilizerCheck]] = {}
    for check in code.checks(kind):
        groups.setdefault(check.row_index, []).append(check)
    return [groups[i] for i in sorted(groups)]
