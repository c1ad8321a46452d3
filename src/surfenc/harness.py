"""Monte Carlo experiment harness: logical failure rates of encoding circuits.

Each experiment point (one distance, one noise strength) is sampled in fixed
chunks of shots.  Chunk c of point i draws from an independent counter-based
RNG stream, Philox keyed by (seed, i) with counter (0, 0, c, 0), so results
are bit-identical no matter how chunks are distributed over workers.

Per chunk: propagate packed Pauli frames, XOR the protected error component
of the qubit rows that each row of the target's CheckMatrix reads into one
syndrome row per check and one logical parity row, count the shots with an
empty syndrome directly, decode each distinct nonempty syndrome once, and
count shots whose corrected residual flips the protected logical.
"""

from __future__ import annotations

import collections
import csv
import functools
import math
import multiprocessing
import numbers
import operator
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .code_model import CodeVariant, build_code
from .decoder import SyndromeDecoder
from .encoders import Scheme, Target, generate_circuit
from .stab_sim import sample_packed_frames, unpack_shots

# sample_final_frames stays importable from here: perfbench/rep.py wraps
# harness.sample_final_frames by that name.
from .stab_sim import sample_final_frames  # noqa: F401

CHUNK_SHOTS = 65536

# one (column, parser) pair per PointResult field, in CSV order
_CSV_FIELDS = (
    ("variant", str),
    ("scheme", str),
    ("target", str),
    ("d", int),
    ("p", float),
    ("shots", int),
    ("failures", int),
    ("p_l", float),
    ("ci_lo", float),
    ("ci_hi", float),
)
CSV_COLUMNS = tuple(column for column, _ in _CSV_FIELDS)


def _integer(name: str, value) -> int:
    """value as a Python int; floats, bools and strings raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """value as a float; bools, strings and other non-reals raise ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass
class ExperimentConfig:
    variant: str = "rotated"
    scheme: str = "ue"
    target: str = "zero"
    distances: tuple[int, ...] = (3, 5)
    noise_strengths: tuple[float, ...] = (1e-3,)
    shots: int = 100_000
    seed: int = 0
    workers: int | None = None
    min_failures: int | None = None
    chunk: int = CHUNK_SHOTS

    def __post_init__(self):
        self.distances = tuple(_integer("distances", d) for d in self.distances)
        self.noise_strengths = tuple(_real("noise_strengths", p) for p in self.noise_strengths)
        self.shots = _integer("shots", self.shots)
        self.seed = _integer("seed", self.seed)
        self.chunk = _integer("chunk", self.chunk)
        if self.workers is not None:
            self.workers = _integer("workers", self.workers)
        if self.min_failures is not None:
            self.min_failures = _integer("min_failures", self.min_failures)
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.min_failures is not None and self.min_failures <= 0:
            raise ValueError(f"min_failures must be positive, got {self.min_failures}")
        for d in self.distances:
            if d < 3 or d % 2 == 0:
                raise ValueError(f"distance must be an odd integer >= 3, got {d}")
        for p in self.noise_strengths:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"noise strength must be in [0, 1], got {p}")
        for name in ("distances", "noise_strengths"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        self.variant = CodeVariant(self.variant).value
        self.scheme = Scheme(self.scheme).value
        self.target = Target(self.target).value

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(payload) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**payload)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["distances"] = list(self.distances)
        d["noise_strengths"] = list(self.noise_strengths)
        return d


@dataclass(frozen=True)
class PointResult:
    variant: str
    scheme: str
    target: str
    d: int
    p: float
    shots: int
    failures: int
    p_l: float
    ci_lo: float
    ci_hi: float


def wilson_interval(failures: int, shots: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    phat = failures / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / shots + z * z / (4.0 * shots * shots)
    )
    return max(0.0, center - half), min(1.0, center + half)


def chunk_rng(seed: int, point_index: int, chunk_id: int) -> np.random.Generator:
    bits = np.random.Philox(
        key=np.array([seed, point_index], dtype=np.uint64),
        counter=np.array([0, 0, chunk_id, 0], dtype=np.uint64),
    )
    return np.random.Generator(bits)


class _PointEngine:
    """Per-point compiled state: circuit, decoder, check and logical rows."""

    def __init__(self, variant: str, scheme: str, target: str, d: int, p: float):
        self.code = build_code(CodeVariant(variant), d)
        self.circuit = generate_circuit(variant, d, scheme, target, p)
        self.decoder = SyndromeDecoder(self.code, target)
        self.matrix = self.decoder.matrix
        # syndrome bit i is the XOR of frame rows
        # check_rows[check_starts[i]:check_starts[i + 1]]
        self.check_rows = np.concatenate(self.matrix.supports)
        self.check_starts = np.cumsum([0] + [len(s) for s in self.matrix.supports[:-1]])
        self.logical_rows = np.array(self.matrix.logical_support)

    def count_chunk_failures(self, shots: int, rng: np.random.Generator) -> int:
        fx, fz = sample_packed_frames(self.circuit, shots, rng)
        frame = self.matrix.read(fx, fz)
        syn = np.bitwise_xor.reduceat(frame[self.check_rows], self.check_starts, axis=0)
        lpar = unpack_shots(np.bitwise_xor.reduce(frame[self.logical_rows], axis=0), shots)
        flagged = unpack_shots(np.bitwise_or.reduce(syn, axis=0), shots)
        # an empty syndrome decodes to no correction: failure iff parity set
        failures = int((lpar & ~flagged).sum())
        shot_idx = np.flatnonzero(flagged)
        syn_bits = unpack_shots(syn, shots)[:, shot_idx]
        packed = np.packbits(syn_bits.T, axis=1, bitorder="little")
        # one opaque key per row: a 1-D sort, much cheaper than axis=0
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        uniq, inv = np.unique(keys, return_inverse=True)
        corr_lpar = np.empty(len(uniq), dtype=bool)
        for i, row in enumerate(uniq):
            syndrome = int.from_bytes(row.tobytes(), "little")
            corr_lpar[i] = self.decoder.decode_syndrome(syndrome)
        return failures + int((lpar[shot_idx] ^ corr_lpar[inv]).sum())


# a run visits its points in order, so a few engines serve all its chunks
_engine = functools.lru_cache(maxsize=4)(_PointEngine)


def _chunk_task(task: tuple) -> int:
    variant, scheme, target, d, p, seed, point_index, chunk_id, shots = task
    engine = _engine(variant, scheme, target, d, p)
    rng = chunk_rng(seed, point_index, chunk_id)
    return engine.count_chunk_failures(shots, rng)


def _chunk_plan(total_shots: int, chunk: int) -> list[int]:
    sizes = []
    left = total_shots
    while left > 0:
        sizes.append(min(chunk, left))
        left -= sizes[-1]
    return sizes


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return workers
    raw = os.environ.get("SURFENC_WORKERS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"SURFENC_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _in_order(pool, tasks: list[tuple], workers: int):
    """Chunk results in chunk order, with one chunk queued past the busy workers.

    A consumer that stops early leaves at most `workers` chunks running,
    where pool.imap would have queued every chunk of the point.
    """
    pending: collections.deque = collections.deque()
    for task in tasks:
        if len(pending) > workers:
            yield pending.popleft().get()
        pending.append(pool.apply_async(_chunk_task, (task,)))
    while pending:
        yield pending.popleft().get()


def run_experiment(config: ExperimentConfig, progress=None) -> list[PointResult]:
    """Run all (d, p) points of a config; returns results in point order.

    With min_failures set, a point stops after the first chunk (in chunk
    order) at which the cumulative failure count reaches the threshold, so
    low-d points do not burn the full shot budget; a pool computes at most
    `workers` chunks past that one.  Chunk order is also what keeps
    multi-worker runs identical to single-worker runs.
    """
    workers = resolve_workers(config.workers)
    points = [
        (d, p) for d in config.distances for p in config.noise_strengths
    ]
    sizes = _chunk_plan(config.shots, config.chunk)
    results: list[PointResult] = []
    pool = multiprocessing.Pool(workers) if workers > 1 else None
    try:
        for point_index, (d, p) in enumerate(points):
            tasks = [
                (
                    config.variant,
                    config.scheme,
                    config.target,
                    d,
                    p,
                    config.seed,
                    point_index,
                    chunk_id,
                    shots,
                )
                for chunk_id, shots in enumerate(sizes)
            ]
            failures = 0
            shots_done = 0
            stream = _in_order(pool, tasks, workers) if pool else map(_chunk_task, tasks)
            for chunk_id, chunk_failures in enumerate(stream):
                failures += chunk_failures
                shots_done += sizes[chunk_id]
                if (
                    config.min_failures is not None
                    and failures >= config.min_failures
                ):
                    break
            p_l = failures / shots_done
            lo, hi = wilson_interval(failures, shots_done)
            result = PointResult(
                variant=config.variant,
                scheme=config.scheme,
                target=config.target,
                d=d,
                p=p,
                shots=shots_done,
                failures=failures,
                p_l=p_l,
                ci_lo=lo,
                ci_hi=hi,
            )
            results.append(result)
            if progress is not None:
                progress(result)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return results


def write_results_csv(results: list[PointResult], fileobj) -> None:
    # csv writes the other floats through str, which is repr
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        writer.writerow(f"{r.p:e}" if c == "p" else getattr(r, c) for c in CSV_COLUMNS)


def read_results_csv(fileobj) -> list[PointResult]:
    reader = csv.DictReader(fileobj)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"results CSV lacks the columns {missing}")
    return [PointResult(**{c: parse(row[c]) for c, parse in _CSV_FIELDS}) for row in reader]


@dataclass(frozen=True)
class SchemeRatio:
    variant: str
    target: str
    d: int
    p: float
    numerator: str
    denominator: str
    ratio: float
    ratio_lo: float
    ratio_hi: float


def compare_schemes(results: list[PointResult]) -> list[SchemeRatio]:
    """Pairwise failure-rate ratios between schemes at matching points.

    Interval bounds propagate conservatively: [lo_a/hi_b, hi_a/lo_b], with
    infinity when the denominator interval touches zero.
    """
    by_cell: dict[tuple, dict[str, PointResult]] = {}
    for r in results:
        by_cell.setdefault((r.variant, r.target, r.d, r.p), {})[r.scheme] = r
    rows: list[SchemeRatio] = []
    for (variant, target, d, p), cell in sorted(by_cell.items()):
        schemes = sorted(cell)
        for num in schemes:
            for den in schemes:
                if num == den:
                    continue
                a, b = cell[num], cell[den]
                ratio = a.p_l / b.p_l if b.p_l > 0 else math.inf
                lo = a.ci_lo / b.ci_hi if b.ci_hi > 0 else math.inf
                hi = a.ci_hi / b.ci_lo if b.ci_lo > 0 else math.inf
                rows.append(
                    SchemeRatio(variant, target, d, p, num, den, ratio, lo, hi)
                )
    return rows
