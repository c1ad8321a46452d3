"""Monte Carlo harness: intervals, determinism, CSV contract, comparisons."""

import io
import json
import math
import multiprocessing

import numpy as np
import pytest

from surfenc import harness
from surfenc.decoder import SyndromeDecoder
from surfenc.code_model import CodeVariant, build_code
from surfenc.encoders import Scheme, Target, generate_circuit, scramble_plan
from surfenc.harness import (
    ExperimentConfig,
    PointResult,
    _chunk_plan,
    chunk_rng,
    compare_schemes,
    read_results_csv,
    run_experiment,
    wilson_interval,
    write_results_csv,
)
from surfenc.stab_sim import sample_final_frames


def test_wilson_against_statsmodels():
    # statsmodels derives z from alpha; feed it our fixed z = 1.96 exactly
    sm = pytest.importorskip("statsmodels.stats.proportion")
    scipy_stats = pytest.importorskip("scipy.stats")
    alpha = 2 * float(scipy_stats.norm.sf(1.96))
    for failures, shots in [(0, 100), (1, 100), (50, 100), (100, 100), (7, 10**6)]:
        lo, hi = wilson_interval(failures, shots)
        ref_lo, ref_hi = sm.proportion_confint(failures, shots, alpha, method="wilson")
        assert lo == pytest.approx(ref_lo, abs=1e-9)
        assert hi == pytest.approx(ref_hi, abs=1e-9)


def _score_endpoint(phat, n, z, inside, outside):
    """The p between inside and outside where |phat - p| = z*sqrt(p(1-p)/n)."""
    def accepted(p):
        return abs(phat - p) <= z * math.sqrt(p * (1 - p) / n)

    if accepted(outside):
        return outside
    for _ in range(100):
        mid = (inside + outside) / 2
        inside, outside = (mid, outside) if accepted(mid) else (inside, mid)
    return inside


@pytest.mark.parametrize(
    "failures, shots", [(0, 100), (1, 100), (50, 100), (100, 100), (7, 10**6)]
)
def test_wilson_interval_inverts_the_score_test(failures, shots):
    # second route without statsmodels: the Wilson interval is the set of p
    # that the score test at z accepts; find its ends by bisection
    phat = failures / shots
    lo, hi = wilson_interval(failures, shots)
    assert lo == pytest.approx(_score_endpoint(phat, shots, 1.96, phat, 0.0), abs=1e-9)
    assert hi == pytest.approx(_score_endpoint(phat, shots, 1.96, phat, 1.0), abs=1e-9)


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and 0 < hi < 0.01
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0 and lo > 0.99
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    for failures in (11, -1):
        with pytest.raises(ValueError, match="failures"):
            wilson_interval(failures, 10)


def test_chunk_rng_streams_are_stable_and_distinct():
    a = chunk_rng(7, 2, 5).integers(0, 1 << 30, 8)
    b = chunk_rng(7, 2, 5).integers(0, 1 << 30, 8)
    c = chunk_rng(7, 2, 6).integers(0, 1 << 30, 8)
    d = chunk_rng(7, 3, 5).integers(0, 1 << 30, 8)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_chunk_plan_covers_all_shots():
    assert _chunk_plan(10, 4) == [4, 4, 2]
    assert _chunk_plan(8, 4) == [4, 4]
    assert _chunk_plan(3, 10) == [3]


def test_config_validation_and_roundtrip():
    cfg = ExperimentConfig(distances=(3,), noise_strengths=(0.01,), shots=10)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"distances": [3], "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig(shots=0)
    with pytest.raises(ValueError):
        ExperimentConfig(distances=(4,))
    with pytest.raises(ValueError):
        ExperimentConfig(noise_strengths=(1.5,))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("seed", 2**64),
        ("min_failures", 0),
        ("min_failures", -1),
        ("workers", 0),
        ("seed", 1.5),
        ("seed", True),
        ("shots", 1.5),
        ("shots", True),
        ("shots", 1e6),
        ("chunk", 4096.0),
        ("workers", 2.0),
        ("workers", None),
        ("min_failures", 1.5),
        ("distances", (3.7,)),
        ("distances", (3, "5")),
        ("noise_strengths", (True,)),
        ("noise_strengths", ("1e-3",)),
        ("noise_strengths", (0.01, None)),
        ("distances", ()),
        ("noise_strengths", ()),
        ("distances", 5),
        ("distances", "35"),
        ("noise_strengths", 1e-3),
        ("distances", (3, 3)),
        ("noise_strengths", (1e-3, 0.001)),
    ],
)
def test_config_rejects_out_of_range_value(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_stores_enum_members_as_their_values():
    base = dict(distances=(3,), noise_strengths=(0.02,), shots=500, seed=4, workers=1)
    named = ExperimentConfig(variant="rotated", scheme="ue", target="zero", **base)
    enums = ExperimentConfig(
        variant=CodeVariant.ROTATED, scheme=Scheme.UE, target=Target.ZERO, **base
    )
    assert enums.to_dict() == named.to_dict()
    json.dumps(enums.to_dict())
    a, b = io.StringIO(), io.StringIO()
    write_results_csv(run_experiment(named), a)
    write_results_csv(run_experiment(enums), b)
    assert b.getvalue() == a.getvalue()
    assert b.getvalue().splitlines()[1].startswith("rotated,ue,zero,3,")


def test_config_accepts_range_edges():
    ExperimentConfig(seed=2**64 - 1, min_failures=1, workers=1)
    ExperimentConfig(min_failures=None)
    chunk_rng(2**64 - 1, 0, 0)  # the largest seed still keys Philox


def _per_shot_failures(variant, scheme, d, p, shots, seed):
    """Failures of one chunk decoded shot by shot, and the top syndrome bit."""
    circ = generate_circuit(variant, d, scheme, "zero", p)
    fx, _ = sample_final_frames(circ, shots, chunk_rng(seed, 0, 0))
    code = build_code(variant, d)
    dec = SyndromeDecoder(code, "zero")
    failures = top_bit = 0
    for s in range(shots):
        mask = 0
        for q in code.data_ids:
            if fx[s, q]:
                mask |= 1 << q
        failures += dec.is_logical_failure(mask)
        top_bit = max(top_bit, dec.matrix.syndrome(mask).bit_length())
    return failures, top_bit


def test_failure_count_matches_per_shot_decoding():
    # the chunked engine must agree with straightforward shot-by-shot decoding
    cfg = ExperimentConfig(
        variant="rotated",
        scheme="ue",
        target="zero",
        distances=(3,),
        noise_strengths=(0.05,),
        shots=2000,
        seed=13,
    )
    (res,) = run_experiment(cfg)
    assert res.shots == 2000
    direct, _ = _per_shot_failures("rotated", "ue", 3, 0.05, 2000, 13)
    assert res.failures == direct
    lo, hi = wilson_interval(res.failures, res.shots)
    assert (res.ci_lo, res.ci_hi) == (lo, hi)
    assert res.p_l == res.failures / res.shots


@pytest.mark.parametrize(
    "variant, d, p, shots, checks",
    [("rotated", 5, 0.03, 400, 12), ("unrotated", 9, 0.04, 200, 72)],
)
def test_failure_count_matches_per_shot_decoding_on_multibyte_syndromes(
    variant, d, p, shots, checks
):
    # pins the bit order between the packed syndrome and the decoder's int:
    # 12 checks span two bytes, 72 checks more than one 64-bit word
    cfg = ExperimentConfig(
        variant=variant,
        scheme="uea",
        target="zero",
        distances=(d,),
        noise_strengths=(p,),
        shots=shots,
        seed=13,
    )
    (res,) = run_experiment(cfg)
    direct, top_bit = _per_shot_failures(variant, "uea", d, p, shots, 13)
    assert res.failures == direct
    assert res.failures > 0
    assert top_bit > checks - 8  # the last byte of the syndrome is in use


def _frame_keys(matrix, circuit, shots, rng):
    """Per-shot syndrome | parity << m of sample_final_frames' frames,
    read through the CheckMatrix one shot at a time."""
    m = len(matrix.rows)
    keys = []
    for row in matrix.read(*sample_final_frames(circuit, shots, rng)):
        mask = sum(1 << q for q, bit in enumerate(row) if bit)
        keys.append(matrix.syndrome(mask) | matrix.logical_parity(mask) << m)
    return keys


_KEY_SAMPLER_CASES = [
    (variant, 3, scheme, target)
    for variant in ("rotated", "unrotated")
    for scheme in ("ue", "uea", "me")
    for target in ("zero", "plus")
] + [("unrotated", 9, "uea", "zero")]


@pytest.mark.parametrize("p", [1e-2, 1.0])
@pytest.mark.parametrize("variant, d, scheme, target", _KEY_SAMPLER_CASES)
def test_fault_key_sampler_equals_the_frame_sampler_shot_for_shot(variant, d, scheme, target, p):
    # second route for the Monte Carlo sampler: on one rng stream, every
    # shot's syndrome and parity equal those of its propagated frame
    engine = harness._PointEngine(variant, scheme, target, d)
    shots = 200
    rng_keys, rng_frames = chunk_rng(3, 1, 2), chunk_rng(3, 1, 2)
    sampled = harness.sample_fault_keys(engine, shots, p, rng_keys)
    got = [int.from_bytes(col.tobytes(), "little") for col in np.ascontiguousarray(sampled.T)]
    circuit = generate_circuit(variant, d, scheme, target, p)
    want = _frame_keys(engine.decoder.matrix, circuit, shots, rng_frames)
    assert got == want
    # both consumed the stream alike, and the shots carry syndromes
    assert rng_keys.integers(1 << 62) == rng_frames.integers(1 << 62)
    assert sum(key != 0 for key in got) > shots // 20
    assert sampled.shape == (len(engine.decoder.matrix.rows) // 64 + 1, shots)
    if d == 9:
        assert sampled.shape[0] == 2 and max(got).bit_length() > 64


@pytest.mark.parametrize(
    "variant, d, scheme, p, scrambled",
    [
        ("rotated", 3, "ue", 0.0, False),
        ("rotated", 3, "ue", 1e-2, False),
        ("rotated", 3, "ue", 1.0, False),
        ("unrotated", 9, "uea", 2e-2, False),
        # the only model here with failing single faults
        ("rotated", 3, "ue", 1e-2, True),
    ],
)
def test_chunk_failure_count_equals_judging_every_shot(
    monkeypatch, variant, d, scheme, p, scrambled
):
    # second route for the per-fault verdict table: a chunk's count, which
    # judges a shot hit once by its fault's verdict, equals judging every
    # shot's key on the same stream
    if scrambled:
        plan = harness.build_plan
        monkeypatch.setattr(harness, "build_plan", lambda *args: scramble_plan(plan(*args)))
    engine = harness._PointEngine(variant, scheme, "zero", d)
    shots = 2000
    rng_count, rng_keys = chunk_rng(9, 0, 1), chunk_rng(9, 0, 1)
    got = engine.count_chunk_failures(shots, p, rng_count)
    keys = harness.sample_fault_keys(engine, shots, p, rng_keys)
    assert got == np.count_nonzero(engine.decoder.failures(keys))
    assert rng_count.integers(1 << 62) == rng_keys.integers(1 << 62)
    assert keys.shape[0] == (2 if d == 9 else 1)
    assert engine.verdict.any() == scrambled
    if scrambled:
        # shots hit once by a failing fault are among the failures
        shot, fault = engine.hits(shots, p, chunk_rng(9, 0, 1))
        once = np.bincount(shot, minlength=shots)[shot] == 1
        assert 0 < np.count_nonzero(engine.verdict[fault[once]]) <= got


def test_one_model_per_p_free_point(monkeypatch):
    built = []
    build_code = harness.build_code
    monkeypatch.setattr(harness, "build_code", lambda *args: built.append(args) or build_code(*args))
    harness._engine.cache_clear()
    run_experiment(
        ExperimentConfig(distances=(3, 5), noise_strengths=(1e-3, 1e-2), shots=1000, seed=2)
    )
    assert harness._engine.cache_info().misses == 2
    assert len(built) == 2


def test_results_identical_across_worker_counts():
    base = dict(
        variant="unrotated",
        scheme="me",
        target="plus",
        distances=(3,),
        noise_strengths=(0.02, 0.05),
        shots=3000,
        seed=5,
        chunk=1000,
    )
    solo = run_experiment(ExperimentConfig(workers=1, **base))
    pooled = run_experiment(ExperimentConfig(workers=3, **base))
    a, b = io.StringIO(), io.StringIO()
    write_results_csv(solo, a)
    write_results_csv(pooled, b)
    assert a.getvalue() == b.getvalue()


class _InlinePool:
    """multiprocessing.Pool's surface for run_experiment, run in this process:
    it records the size it was asked for and starts no process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def apply_async(self, func, args):
        value = func(*args)
        return type("Result", (), {"get": lambda self: value})()

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize(
    "workers, shots, pool",
    [(8, 1000, None), (8, 3000, 3), (2, 5000, 2), (3, 3000, 3), (1, 5000, None)],
)
def test_the_pool_has_no_more_workers_than_chunks(monkeypatch, workers, shots, pool):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(harness.multiprocessing, "Pool", _InlinePool)
    base = dict(distances=(3,), noise_strengths=(0.02, 0.05), shots=shots, seed=6, chunk=1000)
    pooled = run_experiment(ExperimentConfig(workers=workers, **base))
    assert _InlinePool.sizes == ([] if pool is None else [pool])
    assert pooled == run_experiment(ExperimentConfig(workers=1, **base))


@pytest.mark.parametrize("variant, d", [("rotated", 3), ("unrotated", 9)])
def test_a_noiseless_point_fails_no_shot(variant, d):
    # every chunk of a p=0 point holds empty syndromes only, in one key word
    # and in two, and the short last chunk of a p=1e-4 point (one shot) is
    # very likely empty as well
    cfg = ExperimentConfig(
        variant=variant,
        scheme="uea",
        target="zero",
        distances=(d,),
        noise_strengths=(0.0, 1e-4),
        shots=2001,
        chunk=1000,
        seed=6,
        workers=1,
    )
    noiseless, low = run_experiment(cfg)
    assert (noiseless.shots, noiseless.failures) == (2001, 0)
    assert low.shots == 2001 and low.failures == 0


# Failure counts of small fixed-seed runs at two noise strengths, three
# chunks per point, so they pin the noise draws of six chunk streams each.
# A change to how or in which order the noise is drawn shows here.  The
# unrotated d=9 code has 72 checks, so its keys take two uint64 words, and
# many of its syndromes have more than 14 defects; its counts were frozen
# anew when the DP took syndromes of 15 to 21 defects over from blossom,
# which breaks some ties between minimum-weight matchings differently.
FROZEN_FAILURES = {
    ("rotated", "ue", "zero", 3, (0.01, 0.03), 3000): (7, 57),
    ("rotated", "uea", "plus", 5, (0.01, 0.03), 3000): (14, 145),
    ("unrotated", "me", "zero", 3, (0.01, 0.03), 3000): (36, 183),
    ("unrotated", "uea", "zero", 9, (0.02, 0.025), 600): (3, 15),
}


@pytest.mark.parametrize(
    "key", sorted(FROZEN_FAILURES), ids=lambda k: "-".join(map(str, k[:4]))
)
def test_failure_counts_are_frozen(key):
    variant, scheme, target, d, strengths, shots = key
    cfg = ExperimentConfig(
        variant=variant,
        scheme=scheme,
        target=target,
        distances=(d,),
        noise_strengths=strengths,
        shots=shots,
        seed=11,
        chunk=shots // 3,
        workers=1,
    )
    assert tuple(r.failures for r in run_experiment(cfg)) == FROZEN_FAILURES[key]


def test_adaptive_stopping_trims_shots():
    cfg = ExperimentConfig(
        variant="rotated",
        scheme="ue",
        target="zero",
        distances=(3,),
        noise_strengths=(0.1,),
        shots=50_000,
        seed=1,
        chunk=500,
        min_failures=10,
    )
    (res,) = run_experiment(cfg)
    assert res.failures >= 10
    assert res.shots < 50_000
    assert res.shots % 500 == 0


_real_chunk_task = harness._chunk_task
_chunk_runs = None


def _counting_chunk_task(task):
    # reached through harness._chunk_task in forked workers, which inherit
    # the patch and the shared counter
    with _chunk_runs.get_lock():
        _chunk_runs.value += 1
    return _real_chunk_task(task)


def test_min_failures_stops_pooled_work(monkeypatch):
    ctx = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "Pool", ctx.Pool)
    chunk, workers = 4096, 2
    base = dict(
        variant="rotated",
        scheme="ue",
        target="zero",
        distances=(3, 5),
        noise_strengths=(1e-2,),
        shots=300 * chunk,
        seed=3,
        chunk=chunk,
        min_failures=20,
    )
    solo = run_experiment(ExperimentConfig(workers=1, **base))
    runs = ctx.Value("i", 0)
    monkeypatch.setitem(globals(), "_chunk_runs", runs)
    monkeypatch.setattr(harness, "_chunk_task", _counting_chunk_task)
    pooled = run_experiment(ExperimentConfig(workers=workers, **base))
    assert pooled == solo
    used = sum(math.ceil(r.shots / chunk) for r in solo)
    assert used < 20
    assert used <= runs.value <= used + workers * len(solo)


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_reports_each_point_once_in_point_order(workers):
    # one call per point, in point order, with the very results the run
    # returns, including a point that min_failures stopped early
    cfg = ExperimentConfig(
        distances=(3, 5),
        noise_strengths=(1e-3, 0.1),
        shots=4000,
        seed=4,
        chunk=500,
        min_failures=10,
        workers=workers,
    )
    seen = []
    results = run_experiment(cfg, progress=seen.append)
    assert [(r.d, r.p) for r in results] == [(3, 1e-3), (3, 0.1), (5, 1e-3), (5, 0.1)]
    assert len(seen) == len(results) and all(a is b for a, b in zip(seen, results))
    assert any(r.shots < cfg.shots for r in results)
    assert any(r.shots == cfg.shots for r in results)


def test_point_order_is_distance_major():
    cfg = ExperimentConfig(
        distances=(3, 5),
        noise_strengths=(0.05, 0.1),
        shots=200,
        seed=2,
    )
    results = run_experiment(cfg)
    assert [(r.d, r.p) for r in results] == [(3, 0.05), (3, 0.1), (5, 0.05), (5, 0.1)]


def test_csv_golden_format_and_roundtrip():
    row = PointResult(
        variant="rotated",
        scheme="uea",
        target="zero",
        d=5,
        p=1e-3,
        shots=1_000_000,
        failures=7,
        p_l=7e-06,
        ci_lo=3.3923762276291384e-06,
        ci_hi=1.4442273534525e-05,
    )
    buf = io.StringIO()
    write_results_csv([row], buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "variant,scheme,target,d,p,shots,failures,p_l,ci_lo,ci_hi"
    assert lines[1].startswith("rotated,uea,zero,5,1.000000e-03,1000000,7,7e-06,")
    back = read_results_csv(io.StringIO(text))
    assert back == [row]


@pytest.mark.parametrize("p", [1.23456789e-3, 1e-2 / 3, 2.5e-3, 1e-3, 0.05])
def test_csv_reads_back_every_noise_strength(p):
    row = PointResult("rotated", "ue", "zero", 3, p, 1000, 3, 3e-3, 1e-3, 9e-3)
    buf = io.StringIO()
    write_results_csv([row], buf)
    assert read_results_csv(io.StringIO(buf.getvalue())) == [row]
    # a strength that %e writes exactly keeps that form
    written = buf.getvalue().splitlines()[1].split(",")[4]
    assert written == (f"{p:e}" if float(f"{p:e}") == p else repr(p))


def test_compare_schemes_rejects_a_scheme_twice_at_one_point():
    # the second me result used to replace the first, so the ratio depended
    # on row order
    def mk(scheme, failures):
        p_l = failures / 10**4
        return PointResult("rotated", scheme, "zero", 3, 1e-2, 10**4, failures, p_l, p_l / 2, p_l * 2)

    results = [mk("ue", 20), mk("me", 63), mk("me", 56)]
    for rows in (results, results[::-1]):
        with pytest.raises(ValueError, match=r"two me results at rotated zero d=3 p=0\.01"):
            compare_schemes(rows)
    assert len(compare_schemes(results[:2])) == 2


def test_compare_schemes_ratios():
    def mk(scheme, p_l, lo, hi):
        return PointResult("rotated", scheme, "zero", 3, 1e-3, 10**6, 0, p_l, lo, hi)

    rows = compare_schemes(
        [mk("ue", 1e-5, 5e-6, 2e-5), mk("uea", 1e-4, 6e-5, 1.6e-4)]
    )
    by_pair = {(r.numerator, r.denominator): r for r in rows}
    r = by_pair[("uea", "ue")]
    assert r.ratio == pytest.approx(10.0)
    assert r.ratio_lo == pytest.approx(6e-5 / 2e-5)
    assert r.ratio_hi == pytest.approx(1.6e-4 / 5e-6)
    zero = compare_schemes([mk("ue", 0.0, 0.0, 1e-6), mk("uea", 1e-4, 6e-5, 1.6e-4)])
    z = {(r.numerator, r.denominator): r for r in zero}[("uea", "ue")]
    assert z.ratio == float("inf") and z.ratio_hi == float("inf")
    # no failures at either point: the ratio is unknown, not infinite
    both = compare_schemes([mk("ue", 0.0, 0.0, 3.8e-6), mk("uea", 0.0, 0.0, 3.8e-6)])
    assert len(both) == 2
    for r in both:
        assert math.isnan(r.ratio)
        assert r.ratio_lo == 0.0 and r.ratio_hi == float("inf")
