"""Matching decoder: exactness against brute force, caching, engine parity."""

import numpy as np
import pytest

from surfenc.code_model import CodeVariant, build_code
from surfenc.decoder import (
    CheckMatrix,
    MatchingGraph,
    SyndromeDecoder,
    _match_blossom,
    _match_dp,
    match_defects_bruteforce,
)


def _random_error(rng, data_ids, weight):
    qs = rng.choice(list(data_ids), size=weight, replace=False)
    mask = 0
    for q in qs:
        mask |= 1 << int(q)
    return mask


def test_single_errors_decode_to_weight_one():
    for variant in CodeVariant:
        code = build_code(variant, 5)
        for kind in ("X", "Z"):
            graph = MatchingGraph(code, kind)
            for q in code.data_ids:
                syn = graph.syndrome_of(1 << q)
                mask, weight = graph.decode(syn)
                assert weight == 1
                assert graph.syndrome_of(mask) == syn


def test_correctable_errors_are_corrected():
    # any error of weight <= (d-1)/2, after correction, acts trivially
    rng = np.random.default_rng(11)
    for variant in CodeVariant:
        code = build_code(variant, 5)
        dec = SyndromeDecoder(code, "zero")
        for _ in range(200):
            w = int(rng.integers(0, 3))
            err = _random_error(rng, code.data_ids, w)
            corr, corr_par = dec.decode_syndrome(dec.syndrome_of(err))
            residual = err ^ corr
            assert dec.syndrome_of(residual) == 0
            assert dec.error_logical_parity(residual) == 0
            assert not dec.is_logical_failure(err)
            assert corr_par == dec.error_logical_parity(corr)


def test_pure_logical_operator_is_a_failure():
    code = build_code(CodeVariant.ROTATED, 5)
    dec = SyndromeDecoder(code, "zero")
    # an undetected X error along the horizontal logical flips the vertical one
    mask = 0
    for q in code.logical_x:
        mask |= 1 << q
    assert dec.syndrome_of(mask) == 0
    assert dec.is_logical_failure(mask)


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("kind", ["X", "Z"])
def test_decode_weight_matches_bruteforce(variant, kind):
    code = build_code(variant, 5)
    graph = MatchingGraph(code, kind)
    m = len(graph.checks)
    rng = np.random.default_rng(17)
    for _ in range(150):
        k = int(rng.integers(1, min(9, m + 1)))
        defects = sorted(rng.choice(m, size=k, replace=False).tolist())
        syn = 0
        for i in defects:
            syn |= 1 << i
        mask, weight = graph.decode(syn)
        assert graph.syndrome_of(mask) == syn
        assert weight == mask.bit_count()
        assert weight == match_defects_bruteforce(graph, defects)


def test_blossom_engine_agrees_with_dp_above_limit():
    # decode() switches engines at 15 defects; check them against each other
    code = build_code(CodeVariant.UNROTATED, 7)
    graph = MatchingGraph(code, "X")
    m = len(graph.checks)
    rng = np.random.default_rng(23)
    for _ in range(3):
        defects = sorted(rng.choice(m, size=16, replace=False).tolist())
        dd = [[graph.dist[a][b] for b in defects] for a in defects]
        bd = [graph.dist[a][graph.boundary] for a in defects]
        _, w_dp = _match_dp(dd, bd)
        _, w_bl = _match_blossom(dd, bd)
        assert w_dp == w_bl
        syn = 0
        for i in defects:
            syn |= 1 << i
        mask, weight = graph.decode(syn)
        assert weight == w_dp
        assert graph.syndrome_of(mask) == syn


def test_decoding_is_deterministic_and_cached():
    code = build_code(CodeVariant.ROTATED, 3)
    dec = SyndromeDecoder(code, "plus")
    err = 0b101
    syn = dec.syndrome_of(err)
    first = dec.decode_syndrome(syn)
    assert dec.decode_syndrome(syn) == first
    assert syn in dec._cache and len(dec._cache) == 1
    fresh = SyndromeDecoder(code, "plus")
    assert fresh.decode_syndrome(syn) == first


def test_path_mask_endpoints():
    code = build_code(CodeVariant.ROTATED, 5)
    graph = MatchingGraph(code, "Z")
    for a in range(len(graph.checks)):
        mask = graph.path_mask(a, graph.boundary)
        assert mask.bit_count() == graph.dist[a][graph.boundary]
        # flipping exactly those qubits toggles check a and nothing else
        assert graph.syndrome_of(mask) == 1 << a


@pytest.mark.parametrize("target", ["zero", "plus"])
def test_check_matrix_syndromes_wider_than_64_bits(target):
    # unrotated d=9 has 72 checks of each kind
    code = build_code(CodeVariant.UNROTATED, 9)
    matrix = CheckMatrix.of(code, target)
    assert matrix.axis == ("X" if target == "zero" else "Z")
    assert len(matrix.checks) == 72
    for q in code.data_ids:
        want = sum(1 << i for i, c in enumerate(matrix.checks) if q in c.support)
        assert matrix.syndrome(1 << q) == want
    assert max(matrix.syndrome(1 << q) for q in code.data_ids).bit_length() == 72
    logical = code.logical_z if target == "zero" else code.logical_x
    assert matrix.logical_parity(1 << logical[0]) == 1
    dec = SyndromeDecoder(code, target)
    last = matrix.checks[-1].support[0]
    assert not dec.is_logical_failure(1 << last)


def test_check_matrix_complementary_is_the_dual_target():
    code = build_code(CodeVariant.ROTATED, 5)
    for target, dual in (("zero", "plus"), ("plus", "zero")):
        comp = CheckMatrix.of(code, target, "ue", complementary=True)
        assert comp == CheckMatrix.of(code, dual)


def test_decoder_rejects_unknown_target():
    code = build_code(CodeVariant.ROTATED, 3)
    with pytest.raises(ValueError):
        SyndromeDecoder(code, "one")
