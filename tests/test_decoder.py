"""Matching decoder: exactness against brute force, caching, engine parity."""

import collections
import dataclasses
import functools

import numpy as np
import pytest

from surfenc import decoder
from surfenc.code_model import CodeVariant, build_code
from surfenc.decoder import (
    CheckMatrix,
    MatchingGraph,
    SyndromeDecoder,
    _match_blossom,
    _match_dp,
    _near,
    match_defects_bruteforce,
)
from surfenc.encoders import Scheme, Target, generate_circuit
from surfenc.fault_analysis import analyze_faults
from surfenc.harness import _PointEngine, chunk_rng, sample_fault_keys


def _reference_dp(dd, bd):
    """The full bottom-up table over all 2^k subsets that _match_dp prunes."""
    k = len(bd)
    full = (1 << k) - 1
    cost = [0] * (full + 1)
    choice: list[tuple[int, int | None]] = [(0, None)] * (full + 1)
    for s in range(1, full + 1):
        i = (s & -s).bit_length() - 1
        rest = s ^ (1 << i)
        best = bd[i] + cost[rest]
        pick: tuple[int, int | None] = (i, None)
        t = rest
        while t:
            j = (t & -t).bit_length() - 1
            t ^= 1 << j
            c = dd[i][j] + cost[rest ^ (1 << j)]
            if c < best:
                best, pick = c, (i, j)
        cost[s] = best
        choice[s] = pick
    pairs = []
    s = full
    while s:
        i, j = choice[s]
        pairs.append((i, j))
        s ^= 1 << i
        if j is not None:
            s ^= 1 << j
    return pairs, cost[full]


def _cells(dd, bd, pp, bp, dtype):
    """_match_dp_batch's (k, k + 1, N) cells from (k, k, N) pair and (k, N)
    boundary distances and path parities."""
    dist = np.concatenate([bd[:, None], dd], axis=1).astype(dtype)
    return dist << 7 | np.concatenate([bp[:, None], pp], axis=1).astype(dtype)


def _dp(dd, bd):
    """_match_dp over all the defects of dd and bd."""
    return _match_dp(dd, bd, (1 << len(bd)) - 1, _near(dd, bd))


def _random_error(rng, data_ids, weight):
    qs = rng.choice(list(data_ids), size=weight, replace=False)
    mask = 0
    for q in qs:
        mask |= 1 << int(q)
    return mask


def _graph(code, target):
    matrix = CheckMatrix.of(code, target)
    return matrix, MatchingGraph(matrix, code.data_ids)


def test_single_errors_decode_to_weight_one():
    for variant in CodeVariant:
        code = build_code(variant, 5)
        for target in ("plus", "zero"):
            matrix, graph = _graph(code, target)
            for q in code.data_ids:
                syn = matrix.syndrome(1 << q)
                mask, weight = graph.decode(syn)
                assert weight == 1
                assert matrix.syndrome(mask) == syn


def test_correctable_errors_are_corrected():
    # any error of weight <= (d-1)/2, after correction, acts trivially
    rng = np.random.default_rng(11)
    for variant in CodeVariant:
        code = build_code(variant, 5)
        dec = SyndromeDecoder(code, "zero")
        for _ in range(200):
            w = int(rng.integers(0, 3))
            err = _random_error(rng, code.data_ids, w)
            syn = dec.matrix.syndrome(err)
            corr, _ = dec.graph.decode(syn)
            residual = err ^ corr
            assert dec.matrix.syndrome(residual) == 0
            assert dec.matrix.logical_parity(residual) == 0
            assert not dec.is_logical_failure(err)
            assert dec.decode_syndrome(syn) == dec.matrix.logical_parity(corr)


def test_pure_logical_operator_is_a_failure():
    code = build_code(CodeVariant.ROTATED, 5)
    dec = SyndromeDecoder(code, "zero")
    # an undetected X error along the horizontal logical flips the vertical one
    mask = 0
    for q in code.logical_x:
        mask |= 1 << q
    assert dec.matrix.syndrome(mask) == 0
    assert dec.is_logical_failure(mask)


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("kind", ["X", "Z"])
def test_decode_weight_matches_bruteforce(variant, kind):
    code = build_code(variant, 5)
    # X checks detect for target plus, Z checks for target zero
    matrix, graph = _graph(code, "plus" if kind == "X" else "zero")
    m = graph.boundary
    rng = np.random.default_rng(17)
    for _ in range(150):
        k = int(rng.integers(1, min(9, m + 1)))
        defects = sorted(rng.choice(m, size=k, replace=False).tolist())
        syn = 0
        for i in defects:
            syn |= 1 << i
        mask, weight = graph.decode(syn)
        assert matrix.syndrome(mask) == syn
        assert weight == mask.bit_count()
        assert weight == match_defects_bruteforce(graph, defects)


def test_dp_pairs_equal_the_full_table_on_ties():
    # distances 0..3 tie often, so the order in which partners are tried
    # and the strict comparison both show in the pairs
    rng = np.random.default_rng(29)
    for k in range(1, decoder._BATCH_LIMIT + 1):
        for _ in range(12):
            upper = np.triu(rng.integers(0, 4, size=(k, k)), 1)
            dd = (upper + upper.T).tolist()
            bd = rng.integers(0, 4, size=k).tolist()
            assert _dp(dd, bd) == _reference_dp(dd, bd)


def _reference_decode(graph, defects):
    """decode() through the full table: (data mask, weight, pairs by check)."""
    dd = [[graph.dist[a][b] for b in defects] for a in defects]
    bd = [graph.dist[a][graph.boundary] for a in defects]
    local, weight = _reference_dp(dd, bd)
    pairs = [(defects[i], None if j is None else defects[j]) for i, j in local]
    mask = 0
    for a, b in pairs:
        mask ^= graph.paths[a][graph.boundary if b is None else b]
    return mask, weight, pairs


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("target", ["zero", "plus"])
def test_one_and_two_defects_equal_the_full_table(variant, target):
    # every single defect and every pair of defects, ties
    # dist[a][b] == bd[a] + bd[b] included, gets the full table's mask and
    # weight
    for d in (3, 5):
        _, graph = _graph(build_code(variant, d), target)
        m = graph.boundary
        ties = 0
        for a in range(m):
            mask, weight, _ = _reference_decode(graph, [a])
            assert graph.decode(1 << a) == (mask, weight)
            for b in range(a + 1, m):
                mask, weight, _ = _reference_decode(graph, [a, b])
                assert graph.decode(1 << a | 1 << b) == (mask, weight), (a, b)
                ties += graph.dist[a][b] == graph.dist[a][m] + graph.dist[b][m]
        assert ties > 0


def test_dp_pairs_equal_the_full_table_on_a_sampled_chunk(monkeypatch, chunk_syndromes):
    seen = []

    def both(dd, bd, s, near):
        # decode() passes whole-graph tables and the syndrome as defect set
        got = _match_dp(dd, bd, s, near)
        defects = [i for i in range(len(bd)) if s >> i & 1]
        assert dd is graph.dist and bd is graph.bdist
        _, weight, pairs = _reference_decode(graph, defects)
        assert got == (pairs, weight)
        seen.append(len(defects))
        return got

    monkeypatch.setattr(decoder, "_match_dp", both)
    new_graph, syndromes = chunk_syndromes
    graph = new_graph()
    for s in syndromes:
        graph.decode(s)
    assert len(seen) > 500
    assert max(seen) == decoder._BATCH_LIMIT


@pytest.fixture(scope="module")
def chunk_syndromes():
    """A new-graph factory for unrotated d=7 target zero and the distinct
    syndromes of at most _BATCH_LIMIT defects of one sampled uea chunk there."""
    engine = _PointEngine("unrotated", "uea", "zero", 7)
    matrix = engine.decoder.matrix
    keys = sample_fault_keys(engine, 2048, 1e-2, chunk_rng(7, 0, 0))
    assert keys.shape[0] == 1
    syndromes = np.unique(keys[0] & np.uint64((1 << len(matrix.rows)) - 1)).tolist()
    new_graph = functools.partial(MatchingGraph, matrix, engine.code.data_ids)
    return new_graph, [s for s in syndromes if 0 < s.bit_count() <= decoder._BATCH_LIMIT]


@pytest.mark.parametrize("syndrome", [(1 << 15) - 1 | 1 << 24, 1 << 24, 1 << 30 | 1, -1])
def test_a_syndrome_outside_the_checks_is_rejected(syndrome):
    # rotated d=7 has 24 checks of each kind; 15 low bits plus bit 24 once
    # reached blossom with the boundary node as a defect and cached parity 0
    dec = SyndromeDecoder(build_code(CodeVariant.ROTATED, 7), "zero")
    assert dec.graph.boundary == 24
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*24\)"):
        dec.decode_syndrome(syndrome)
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*24\)"):
        dec.graph.decode(syndrome)
    assert not dec.graph.cache


def test_blossom_engine_agrees_with_dp_above_limit(monkeypatch):
    # decode() sends a syndrome to blossom only above _DP_LIMIT defects; on
    # both sides of that guard the two engines find equal weights
    code = build_code(CodeVariant.UNROTATED, 7)
    matrix, graph = _graph(code, "plus")
    m = graph.boundary
    rng = np.random.default_rng(23)
    calls = []

    def blossom(*args):
        calls.append(args[2])
        return _match_blossom(*args)

    monkeypatch.setattr(decoder, "_match_blossom", blossom)
    for k in (16, decoder._DP_LIMIT, decoder._DP_LIMIT + 1, decoder._DP_LIMIT + 4):
        for _ in range(3):
            defects = sorted(rng.choice(m, size=k, replace=False).tolist())
            dd = [[graph.dist[a][b] for b in defects] for a in defects]
            bd = [graph.dist[a][graph.boundary] for a in defects]
            _, w_dp = _dp(dd, bd)
            syn = 0
            for i in defects:
                syn |= 1 << i
            _, w_bl = _match_blossom(graph.dist, graph.bdist, syn)
            assert w_dp == w_bl
            calls.clear()
            mask, weight = graph.decode(syn)
            assert calls == ([syn] if k > decoder._DP_LIMIT else [])
            assert weight == w_dp == mask.bit_count()
            assert matrix.syndrome(mask) == syn
            assert graph.parities([syn], None).tolist() == [matrix.logical_parity(mask) == 1]


def test_decoding_is_deterministic_and_cached():
    code = build_code(CodeVariant.ROTATED, 3)
    dec = SyndromeDecoder(code, "plus")
    err = 0b101
    syn = dec.matrix.syndrome(err)
    first = dec.decode_syndrome(syn)
    assert type(first) is int
    assert dec.decode_syndrome(syn) == first
    assert syn in dec.graph.cache and len(dec.graph.cache) == 1
    fresh = SyndromeDecoder(code, "plus")
    assert fresh.decode_syndrome(syn) == first


def test_syndrome_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(decoder, "_CACHE_LIMIT", 2)
    code = build_code(CodeVariant.ROTATED, 5)
    dec = SyndromeDecoder(code, "zero")
    syndromes = [dec.matrix.syndrome(1 << q | 1 << r) for q, r in ((0, 7), (3, 12), (5, 20))]
    assert len(set(syndromes)) == 3
    want = [dec.matrix.logical_parity(dec.graph.decode(syn)[0]) for syn in syndromes]
    got = []
    for syn in syndromes + syndromes:
        got.append(dec.decode_syndrome(syn))
        assert 0 < len(dec.graph.cache) <= 2
    assert got == want + want


def _judge_keys(dec):
    """The keys of test_failures_equal_parity_xor_decode_per_column: 80 of
    1 to 6 defects with random parity, plus empty syndromes with the parity
    clear and set, repeated keys, and a repeated syndrome with the other
    parity, shuffled."""
    m = len(dec.matrix.rows)
    rng = np.random.default_rng(13)
    keys = []
    for _ in range(80):
        defects = rng.choice(m, size=rng.integers(1, 7), replace=False)
        keys.append(sum(1 << int(i) for i in defects) | int(rng.integers(2)) << m)
    keys += [0, 1 << m, 0, 1 << m] + keys[:20] + [keys[0] ^ 1 << m]
    return [keys[i] for i in rng.permutation(len(keys))]


@pytest.mark.parametrize("variant, d, checks", [("rotated", 5, 12), ("unrotated", 9, 72)])
def test_failures_equal_parity_xor_decode_per_column(variant, d, checks):
    # second route for the packed-key judge, in one and in two words: each
    # column's parity XOR one decode_syndrome of its syndrome
    dec = SyndromeDecoder(build_code(variant, d), "zero")
    m = len(dec.matrix.rows)
    assert m == checks
    rng = np.random.default_rng(13)
    keys = []
    for _ in range(80):
        defects = rng.choice(m, size=rng.integers(1, 7), replace=False)
        keys.append(sum(1 << int(i) for i in defects) | int(rng.integers(2)) << m)
    # empty syndromes with the parity clear and set, repeated keys, and a
    # repeated syndrome with the other parity
    keys += [0, 1 << m, 0, 1 << m] + keys[:20] + [keys[0] ^ 1 << m]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    packed = dec.matrix.pack(keys)
    assert packed.dtype == np.uint64 and packed.shape == (m // 64 + 1, len(keys))
    if m > 64:
        assert packed[1].any() and (packed[1] & ~np.uint64(1 << (m - 64))).any()
    before = packed.copy()
    got = dec.failures(packed)
    np.testing.assert_array_equal(packed, before)
    syndrome = (1 << m) - 1
    want = [bool(key >> m ^ dec.decode_syndrome(key & syndrome)) for key in keys]
    assert got.dtype == bool and got.tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("variant, d, checks", [("rotated", 5, 12), ("unrotated", 9, 72)])
def test_failures_of_a_chunk_without_a_nonempty_syndrome(variant, d, checks):
    # only empty syndromes, so nothing is decoded: each key fails iff its
    # parity is set, in one word and in two, and for a chunk of no keys
    dec = SyndromeDecoder(build_code(variant, d), "zero")
    m = len(dec.matrix.rows)
    assert m == checks
    for keys in ([0, 0, 0], [0, 1 << m, 0, 1 << m], []):
        got = dec.failures(dec.matrix.pack(keys))
        assert got.dtype == bool and got.tolist() == [key == 1 << m for key in keys]


@pytest.mark.parametrize("variant, d", [("rotated", 5), ("unrotated", 9)])
def test_failures_are_equal_batched_and_one_by_one(monkeypatch, variant, d):
    code = build_code(variant, d)
    answers = []
    for batch_min in (1, 10**9):
        # a new shared state each time, so no answer is read from a cache
        decoder._shared_state.cache_clear()
        monkeypatch.setattr(decoder, "_BATCH_MIN", batch_min)
        dec = SyndromeDecoder(code, "zero")
        answers.append(dec.failures(dec.matrix.pack(_judge_keys(dec))))
    batched, one_by_one = answers
    assert batched.dtype == one_by_one.dtype == bool
    np.testing.assert_array_equal(batched, one_by_one)
    assert 0 < batched.sum() < len(batched)


def _batched_parities(monkeypatch, dec, syndromes):
    """dec.failures of parity-clear keys with every defect count batched:
    per syndrome, the parity of the batched DP's correction."""
    monkeypatch.setattr(decoder, "_BATCH_MIN", 1)

    def unbatched(self, syndrome):
        raise AssertionError(f"syndrome {syndrome:#x} was decoded one by one")

    # match is the one scalar route of MatchingGraph.parities
    monkeypatch.setattr(MatchingGraph, "match", unbatched)
    return dec.failures(dec.matrix.pack(syndromes)).tolist()


def _scalar_parities(dec, syndromes):
    """Per syndrome, the parity of graph.decode's correction on a new graph."""
    graph = MatchingGraph(dec.matrix, dec.code.data_ids)
    return [dec.matrix.logical_parity(graph.decode(s)[0]) == 1 for s in syndromes]


def test_batched_parities_equal_decode_on_a_sampled_chunk(monkeypatch, chunk_syndromes):
    _, syndromes = chunk_syndromes
    assert {s.bit_count() for s in syndromes} == set(range(1, decoder._BATCH_LIMIT + 1))
    dec = SyndromeDecoder(build_code(CodeVariant.UNROTATED, 7), "zero")
    want = _scalar_parities(dec, syndromes)
    assert _batched_parities(monkeypatch, dec, syndromes) == want
    assert 0 < sum(want) < len(want)
    # the batched answers join the cache as decode_syndrome's ints
    cached = [dec.graph.cache[s] for s in syndromes]
    assert cached == want and {type(p) for p in cached} == {int}


def test_batched_answers_keep_the_cache_bounded(monkeypatch, chunk_syndromes):
    _, syndromes = chunk_syndromes
    dec = SyndromeDecoder(build_code(CodeVariant.UNROTATED, 7), "zero")
    limit = 100
    monkeypatch.setattr(decoder, "_CACHE_LIMIT", limit)
    sizes = collections.Counter(s.bit_count() for s in syndromes)
    assert sum(size >= decoder._BATCH_MIN for size in sizes.values()) > 2
    seen = []
    real = dict.update

    class Cache(dict):
        def update(self, answers):
            real(self, answers)
            seen.append(len(self))

    dec.graph.cache = Cache()
    want = _scalar_parities(dec, syndromes)
    assert dec.failures(dec.matrix.pack(syndromes)).tolist() == want
    assert seen and max(seen) <= limit
    assert len(dec.graph.cache) <= limit


def test_a_batched_group_larger_than_the_cache_is_not_stored(monkeypatch, chunk_syndromes):
    # groups go in ascending defect count, so the largest group of this
    # chunk, which alone holds more syndromes than the cache may, comes last
    _, syndromes = chunk_syndromes
    k, largest = collections.Counter(s.bit_count() for s in syndromes).most_common(1)[0]
    syndromes = [s for s in syndromes if s.bit_count() <= k]
    limit = largest - 1
    assert limit >= decoder._BATCH_MIN
    monkeypatch.setattr(decoder, "_CACHE_LIMIT", limit)
    dec = SyndromeDecoder(build_code(CodeVariant.UNROTATED, 7), "zero")
    want = _scalar_parities(dec, syndromes)
    for _ in range(2):  # cold, then from the cache the first call left
        assert _batched_parities(monkeypatch, dec, syndromes) == want
        assert len(dec.graph.cache) <= limit


def test_batched_parities_equal_decode_in_two_words(monkeypatch):
    dec = SyndromeDecoder(build_code(CodeVariant.UNROTATED, 9), "zero")
    m = len(dec.matrix.rows)
    assert m == 72
    rng = np.random.default_rng(31)
    syndromes = [
        sum(1 << int(i) for i in rng.choice(m, size=k, replace=False))
        for k in range(1, decoder._BATCH_LIMIT + 1)
        for _ in range(24)
    ]
    assert sum(s >> 64 != 0 for s in syndromes) > len(syndromes) // 2
    want = _scalar_parities(dec, syndromes)
    assert _batched_parities(monkeypatch, dec, syndromes) == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("k", [0, decoder._BATCH_LIMIT + 1])
def test_the_batched_dp_rejects_defect_counts_outside_its_range(k):
    _, graph = _graph(build_code(CodeVariant.UNROTATED, 7), "zero")
    defects = np.tile(np.arange(k), (3, 1))
    with pytest.raises(ValueError, match=r"outside \[1, 14\]"):
        graph.correction_parities(defects)


def test_the_batched_dp_visits_the_subsets_the_dp_reaches():
    # the subsets that dropping the lowest defect, alone or with one
    # partner, reaches from the full set, searched directly
    counts = []
    for k in range(1, decoder._BATCH_LIMIT + 1):
        reached, stack = set(), [(1 << k) - 1]
        while stack:
            s = stack.pop()
            if s not in reached:
                reached.add(s)
                rest = s & (s - 1)
                stack += [rest] + [rest ^ 1 << j for j in range(k) if rest >> j & 1]
        order = sorted(reached, key=lambda s: (s.bit_count(), s))
        row = {s: n for n, s in enumerate(order)}
        steps, rows = decoder._dp_plan(k)
        assert rows == len(order)
        for r, (lo, hi, src, dst) in enumerate(steps, 1):
            block = order[lo:hi]
            assert [s.bit_count() for s in block] == [r] * len(block)
            assert src.shape == dst.shape == (hi - lo, r)
            for n, s in enumerate(block):
                i = (s & -s).bit_length() - 1
                partners = [j for j in range(i + 1, k) if s >> j & 1]
                # column 0: the lowest defect to the boundary, with the rest row
                assert src[n, 0] == i * (k + 1) and dst[n, 0] == row[s ^ 1 << i]
                assert src[n, 1:].tolist() == [i * (k + 1) + j + 1 for j in partners]
                assert dst[n, 1:].tolist() == [row[s ^ 1 << i ^ 1 << j] for j in partners]
        counts.append(rows - 1)
    assert counts == [1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609, 986]


def test_batched_dp_parities_equal_the_full_table_on_ties():
    # the tie cases of test_dp_pairs_equal_the_full_table_on_ties, drawn
    # from the same stream, one column each, with a random parity per path
    # from another: a pick that differs from the full table's shows in
    # about half of its columns
    rng = np.random.default_rng(29)
    flips = np.random.default_rng(30)
    for k in range(1, decoder._BATCH_LIMIT + 1):
        cases = []
        for _ in range(12):
            upper = np.triu(rng.integers(0, 4, size=(k, k)), 1)
            cases.append(((upper + upper.T).tolist(), rng.integers(0, 4, size=k).tolist()))
        pp = flips.integers(0, 2, size=(k, k, len(cases))).astype(bool)
        pp = pp | pp.transpose(1, 0, 2)
        bp = flips.integers(0, 2, size=(k, len(cases))).astype(bool)
        want = []
        for n, (dd, bd) in enumerate(cases):
            pairs, _ = _reference_dp(dd, bd)
            assert _dp(dd, bd)[0] == pairs
            want.append(bool(sum(bp[i, n] if j is None else pp[i, j, n] for i, j in pairs) % 2))
        got = decoder._match_dp_batch(
            _cells(
                np.array([dd for dd, _ in cases]).transpose(1, 2, 0),
                np.array([bd for _, bd in cases]).T,
                pp,
                bp,
                np.uint16,
            )
        )
        assert got.tolist() == want, k


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
def test_packed_cells_keep_rank_and_parity_at_the_top_of_the_cost_field(dtype):
    # Two families of distances per k: every pair 2b and every boundary b,
    # where every candidate of every subset ties, and all distances b,
    # where the partners tie with each other and, on odd subsets, with the
    # boundary.  b puts the largest candidate at the top of the cost field,
    # past uint16 in the wider types, and a random parity per path and
    # column shows a carry or a cost spilling into the rank or parity bits
    top = np.iinfo(dtype).max >> 7
    flips = np.random.default_rng(37)
    cols = 16
    for k in range(1, decoder._BATCH_LIMIT + 1):
        for scale, largest in ((2, k), (1, k // 2 + 1)):
            b = top // largest
            dd = [[0 if i == j else scale * b for j in range(k)] for i in range(k)]
            bd = [b] * k
            pairs, weight = _reference_dp(dd, bd)
            assert weight <= largest * b <= top
            pp = flips.integers(0, 2, size=(k, k, cols)).astype(bool)
            pp = pp | pp.transpose(1, 0, 2)
            bp = flips.integers(0, 2, size=(k, cols)).astype(bool)
            want = [
                bool(sum(bp[i, n] if j is None else pp[i, j, n] for i, j in pairs) % 2)
                for n in range(cols)
            ]
            cells = _cells(
                np.broadcast_to(np.array(dd, dtype)[:, :, None], (k, k, cols)),
                np.broadcast_to(np.array(bd, dtype)[:, None], (k, cols)),
                pp,
                bp,
                dtype,
            )
            assert cells.dtype == dtype
            assert dtype is np.uint16 or cells.max() > np.iinfo(np.uint16).max
            got = decoder._match_dp_batch(cells)
            assert got.tolist() == want, (k, scale)


def test_decoders_of_one_code_and_target_share_graph_and_cache():
    a = SyndromeDecoder(build_code(CodeVariant.ROTATED, 5), "zero")
    b = SyndromeDecoder(build_code(CodeVariant.ROTATED, 5), "zero")
    assert a.graph is b.graph and a.graph.cache is b.graph.cache
    syn = a.matrix.syndrome(1 << a.code.data_ids[3])
    a.decode_syndrome(syn)
    assert syn in b.graph.cache


@pytest.mark.parametrize(
    "variant,d,target",
    [("rotated", 5, "plus"), ("unrotated", 5, "zero"), ("rotated", 3, "zero")],
)
def test_decoders_of_another_code_or_target_share_nothing(variant, d, target):
    base = SyndromeDecoder(build_code(CodeVariant.ROTATED, 5), "zero")
    other = SyndromeDecoder(build_code(variant, d), target)
    assert other.graph is not base.graph and other.graph.cache is not base.graph.cache


def test_a_modified_code_shares_nothing():
    # same variant, distance and qubits, Z checks in reverse order: the
    # syndrome bits mean other checks, so the base answers must not be read
    code = build_code(CodeVariant.ROTATED, 5)
    base = SyndromeDecoder(code, "zero")
    modified = SyndromeDecoder(dataclasses.replace(code, z_checks=code.z_checks[::-1]), "zero")
    assert modified.graph is not base.graph and modified.graph.cache is not base.graph.cache
    for dec in (base, modified):
        for q in code.data_ids:
            # a single flip is corrected exactly, so the correction's parity
            # is the flip's own
            want = dec.matrix.logical_parity(1 << q)
            assert dec.decode_syndrome(dec.matrix.syndrome(1 << q)) == want, q


@pytest.mark.parametrize("variant", list(CodeVariant))
@pytest.mark.parametrize("complementary", [False, True])
def test_pair_reports_are_equal_with_a_warm_shared_cache(variant, complementary):
    code = build_code(variant, 3)
    for target in Target:
        circuits = {s: generate_circuit(variant, 3, s, target, 1e-3) for s in Scheme}

        def report(scheme):
            return analyze_faults(
                circuits[scheme], code, target, scheme, max_weight=2,
                complementary=complementary,
            )

        cold = {}
        for scheme in Scheme:
            decoder._shared_state.cache_clear()
            cold[scheme] = report(scheme)
        for scheme in Scheme:
            decoder._shared_state.cache_clear()
            for other in Scheme:
                if other is not scheme:
                    report(other)
            assert decoder._shared_state.cache_info().currsize == 1
            assert report(scheme) == cold[scheme], (target, scheme)


def test_path_mask_endpoints():
    code = build_code(CodeVariant.ROTATED, 5)
    matrix, graph = _graph(code, "zero")
    for a in range(graph.boundary):
        mask = graph.paths[a][graph.boundary]
        assert mask.bit_count() == graph.dist[a][graph.boundary]
        # flipping exactly those qubits toggles check a and nothing else
        assert matrix.syndrome(mask) == 1 << a


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
