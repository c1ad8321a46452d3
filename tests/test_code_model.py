"""Lattice construction invariants and frozen geometry values."""

import itertools

import pytest

from surfenc.code_model import (
    CodeVariant,
    QubitRole,
    build_code,
    check_commutation,
    x_check_rows,
    z_check_columns,
)

ALL_DISTANCES = (3, 5, 7, 9, 11, 13)


@pytest.mark.parametrize("d", ALL_DISTANCES)
def test_rotated_counts(d):
    code = build_code(CodeVariant.ROTATED, d)
    assert code.n_data == d * d
    assert len(code.x_checks) == (d * d - 1) // 2
    assert len(code.z_checks) == (d * d - 1) // 2
    assert code.n_qubits == d * d + (d * d - 1)
    weights = sorted(c.weight for c in code.x_checks)
    assert set(weights) == {2, 4}
    assert weights.count(2) == d - 1


@pytest.mark.parametrize("d", ALL_DISTANCES)
def test_unrotated_counts(d):
    code = build_code(CodeVariant.UNROTATED, d)
    assert code.n_data == d * d + (d - 1) * (d - 1)
    assert len(code.x_checks) == d * (d - 1)
    assert len(code.z_checks) == d * (d - 1)
    weights = sorted(c.weight for c in code.x_checks)
    assert set(weights) == {3, 4}
    assert weights.count(3) == 2 * (d - 1)


def test_rotated_d5_row_structure():
    # frozen by hand from the layout convention: data id r*5+c, X cells where
    # the plaquette row+col is odd, weight-2 X on the left of row 0
    code = build_code(CodeVariant.ROTATED, 5)
    rows = x_check_rows(code)
    assert [[c.support for c in row] for row in rows] == [
        [(0, 5), (1, 2, 6, 7), (3, 4, 8, 9)],
        [(5, 6, 10, 11), (7, 8, 12, 13), (9, 14)],
        [(10, 15), (11, 12, 16, 17), (13, 14, 18, 19)],
        [(15, 16, 20, 21), (17, 18, 22, 23), (19, 24)],
    ]
    cols = z_check_columns(code)
    # first Z column: two interior plaquettes then the weight-2 at the bottom
    assert [c.support for c in cols[0]] == [(0, 1, 5, 6), (10, 11, 15, 16), (20, 21)]
    assert [c.support for c in cols[1]] == [(1, 2), (6, 7, 11, 12), (16, 17, 21, 22)]


def test_rotated_weight2_sides_alternate():
    code = build_code(CodeVariant.ROTATED, 7)
    for row_idx, row in enumerate(x_check_rows(code)):
        w2 = [c for c in row if c.weight == 2]
        assert len(w2) == 1
        cols = {code.qubits[q].col for q in w2[0].support}
        expected = {1} if row_idx % 2 == 0 else {2 * 7 - 1}
        assert cols == expected


def test_unrotated_d3_structure():
    code = build_code(CodeVariant.UNROTATED, 3)
    assert code.n_data == 13
    # X check in the top-left: site (1,0), weight 3 (west neighbor missing)
    first_x = code.x_checks[0]
    anc = code.qubits[first_x.ancilla]
    assert (anc.row, anc.col) == (1, 0)
    assert first_x.weight == 3
    # interior X check at (1,2) has all four neighbors
    interior = [c for c in code.x_checks if code.qubits[c.ancilla].col == 2]
    assert all(c.weight == 4 for c in interior)


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("d", ALL_DISTANCES)
def test_commutation(variant, d):
    assert check_commutation(build_code(variant, d))


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("d", ALL_DISTANCES)
def test_logicals_cross_once(variant, d):
    code = build_code(variant, d)
    assert len(code.logical_x) == d
    assert len(code.logical_z) == d
    assert len(set(code.logical_x) & set(code.logical_z)) == 1


@pytest.mark.parametrize("variant", list(CodeVariant))
def test_minimum_logical_weight_bruteforce(variant):
    # exhaustive search over all X-type error patterns at d=3: anything that
    # commutes with every Z check and anticommutes with logical Z must weigh
    # at least d, and some pattern of weight exactly d must exist
    code = build_code(variant, 3)
    n = code.n_data
    z_masks = []
    for c in code.z_checks:
        m = 0
        for q in c.support:
            m |= 1 << q
        z_masks.append(m)
    lmask = 0
    for q in code.logical_z:
        lmask |= 1 << q
    best = n + 1
    for pattern in range(1, 1 << n):
        if any((pattern & m).bit_count() % 2 for m in z_masks):
            continue
        if (pattern & lmask).bit_count() % 2 == 0:
            continue
        best = min(best, pattern.bit_count())
    assert best == 3


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("d", (3, 5, 7))
def test_data_in_one_or_two_checks_per_kind(variant, d):
    code = build_code(variant, d)
    for kind in ("X", "Z"):
        counts = {q: 0 for q in code.data_ids}
        for c in code.checks(kind):
            for q in c.support:
                counts[q] += 1
        assert set(counts.values()) <= {1, 2}


def test_coords_unique_and_nonnegative():
    for variant, d in itertools.product(CodeVariant, (3, 5)):
        code = build_code(variant, d)
        coords = [(q.row, q.col) for q in code.qubits]
        assert len(set(coords)) == len(coords)
        assert all(r >= 0 and c >= 0 for r, c in coords)
        data_roles = [q for q in code.qubits if q.role is QubitRole.DATA]
        assert [q.id for q in data_roles] == list(range(code.n_data))


@pytest.mark.parametrize("d", (2, 4, 1, 0, -3))
def test_rejects_bad_distance(d):
    with pytest.raises(ValueError):
        build_code(CodeVariant.ROTATED, d)


def test_rejects_non_integer_distance():
    with pytest.raises(ValueError):
        build_code(CodeVariant.ROTATED, 3.0)
