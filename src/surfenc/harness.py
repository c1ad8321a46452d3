"""Monte Carlo experiment harness: logical failure rates of encoding circuits.

Each experiment point (one distance, one noise strength) is sampled in fixed
chunks of shots.  Chunk c of point i draws from an independent counter-based
RNG stream, Philox keyed by (seed, i) with counter (0, 0, c, 0), so results
are bit-identical no matter how chunks are distributed over workers.

A shot's syndrome and logical parity are linear in its faults, so no qubit
is simulated.  Per point, one backward pass in the key space of the target's
CheckMatrix (fault_analysis.backward_images, the same table the exhaustive
enumeration reads) gives every basis fault its key, syndrome | logical
parity << m for m checks, packed into uint64 words by CheckMatrix.pack.
Per chunk, each noise instruction draws its hits and their basis faults
through stab_sim.noise_draws, as the reference frame sampler
stab_sim.sample_final_frames does, and bitwise_xor.at XORs the keys of the
hit faults into their shots.  SyndromeDecoder.failures then judges the
shots' keys, as it judges the exhaustive enumeration's.
"""

from __future__ import annotations

import collections
import collections.abc
import csv
import functools
import math
import multiprocessing
import operator
from dataclasses import dataclass, asdict

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that load
# out of the first run_experiment call
from numpy.random import Generator, Philox

from .circuit_ir import CHANNELS, Circuit
from .code_model import CodeVariant, build_code, validate_distance
from .decoder import SyndromeDecoder
from .encoders import Scheme, Target, generate_circuit, noise_strength
from .fault_analysis import backward_images
from .stab_sim import noise_draws

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


def _sequence(name: str, value) -> tuple:
    """value as a tuple; scalars and strings raise ValueError."""
    if isinstance(value, (str, bytes)) or not isinstance(value, collections.abc.Iterable):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


@dataclass
class ExperimentConfig:
    variant: str = "rotated"
    scheme: str = "ue"
    target: str = "zero"
    distances: tuple[int, ...] = (3, 5)
    noise_strengths: tuple[float, ...] = (1e-3,)
    shots: int = 100_000
    seed: int = 0
    workers: int = 1
    min_failures: int | None = None
    chunk: int = CHUNK_SHOTS

    def __post_init__(self):
        self.distances = tuple(
            validate_distance(_integer("distances", d))
            for d in _sequence("distances", self.distances)
        )
        self.noise_strengths = tuple(
            noise_strength(p, "noise_strengths")
            for p in _sequence("noise_strengths", self.noise_strengths)
        )
        self.shots = _integer("shots", self.shots)
        self.seed = _integer("seed", self.seed)
        self.chunk = _integer("chunk", self.chunk)
        self.workers = _integer("workers", self.workers)
        if self.min_failures is not None:
            self.min_failures = _integer("min_failures", self.min_failures)
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.min_failures is not None and self.min_failures <= 0:
            raise ValueError(f"min_failures must be positive, got {self.min_failures}")
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
    if not 0 <= failures <= shots:
        raise ValueError(f"failures must be in [0, shots={shots}], got {failures}")
    phat = failures / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / shots + z * z / (4.0 * shots * shots)
    )
    return max(0.0, center - half), min(1.0, center + half)


def chunk_rng(seed: int, point_index: int, chunk_id: int) -> Generator:
    bits = Philox(
        key=np.array([seed, point_index], dtype=np.uint64),
        counter=np.array([0, 0, chunk_id, 0], dtype=np.uint64),
    )
    return Generator(bits)


def sample_fault_keys(
    circuit: Circuit, keys: np.ndarray, shots: int, rng: Generator
) -> np.ndarray:
    """Per shot, the XOR of the keys of the basis faults that hit it.

    keys is word-major, (W, F) uint64: column f belongs to basis fault f of
    the circuit's fault_analysis.backward_images table, which lists each
    noise site's basis faults in CHANNELS order, as noise_draws numbers them.
    The result is (W, shots) in the same layout.  The draws come from
    stab_sim.noise_draws, so for an equal rng column s is the linear map
    behind keys applied to shot s of stab_sim.sample_final_frames.
    """
    acc = np.zeros((len(keys), shots), dtype=keys.dtype)
    base = 0
    for _, instr in circuit.instructions():
        if not instr.is_noise:
            continue
        site, shot, b = noise_draws(instr, shots, rng)
        per_site = len(CHANNELS[instr.name])
        fault = base + per_site * site + b
        base += per_site * instr.n_sites
        # ufunc.at, so that faults hitting one shot all land
        for row, key in zip(acc, keys):
            np.bitwise_xor.at(row, shot, key[fault])
    return acc


class _PointEngine:
    """Per-point compiled state: circuit, decoder and one key per basis fault.

    keys[:, f] is fault f's key in the decoder's CheckMatrix, packed by
    CheckMatrix.pack.
    """

    def __init__(self, variant: str, scheme: str, target: str, d: int, p: float):
        self.code = build_code(CodeVariant(variant), d)
        self.circuit = generate_circuit(variant, d, scheme, target, p)
        self.decoder = SyndromeDecoder(self.code, target)
        matrix = self.decoder.matrix
        table = backward_images(self.circuit, matrix.key_images(self.circuit.n_qubits))
        self.keys = matrix.pack(map(matrix.read, table.res_x, table.res_z))

    def count_chunk_failures(self, shots: int, rng: Generator) -> int:
        syn = sample_fault_keys(self.circuit, self.keys, shots, rng)
        return int(np.count_nonzero(self.decoder.failures(syn)))


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
    points = [
        (d, p) for d in config.distances for p in config.noise_strengths
    ]
    sizes = _chunk_plan(config.shots, config.chunk)
    results: list[PointResult] = []
    # a worker past the chunk count of a point would never get a chunk
    workers = min(config.workers, len(sizes))
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


def _csv_p(p: float) -> str:
    """p as %e where that reads back as p, else as repr(p), which always does."""
    text = f"{p:e}"
    return text if float(text) == p else repr(p)


def write_results_csv(results: list[PointResult], fileobj) -> None:
    # csv writes the other floats through str, which is repr
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        writer.writerow(_csv_p(r.p) if c == "p" else getattr(r, c) for c in CSV_COLUMNS)


def read_results_csv(fileobj) -> list[PointResult]:
    reader = csv.DictReader(fileobj)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"results CSV lacks the columns {missing}")
    results = []
    for row in reader:
        line = f"results CSV line {reader.line_num}"
        # DictReader files extra fields under None and pads a short row with None
        if None in row or None in row.values():
            raise ValueError(f"{line} has {'extra' if None in row else 'too few'} fields")
        fields = {}
        for c, parse in _CSV_FIELDS:
            try:
                fields[c] = parse(row[c])
            except ValueError as exc:
                raise ValueError(f"{line}, column {c!r}: {exc}") from None
        results.append(PointResult(**fields))
    return results


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
    infinity when the denominator interval touches zero.  The ratio is
    infinite when only the denominator saw no failures, and nan when neither
    point did.  Two results of one scheme at one point raise ValueError.
    """
    by_cell: dict[tuple, dict[str, PointResult]] = {}
    for r in results:
        cell = by_cell.setdefault((r.variant, r.target, r.d, r.p), {})
        if r.scheme in cell:
            raise ValueError(
                f"two {r.scheme} results at {r.variant} {r.target} d={r.d} p={r.p!r}"
            )
        cell[r.scheme] = r
    rows: list[SchemeRatio] = []
    for (variant, target, d, p), cell in sorted(by_cell.items()):
        schemes = sorted(cell)
        for num in schemes:
            for den in schemes:
                if num == den:
                    continue
                a, b = cell[num], cell[den]
                if b.p_l > 0:
                    ratio = a.p_l / b.p_l
                else:
                    ratio = math.inf if a.p_l > 0 else math.nan
                lo = a.ci_lo / b.ci_hi if b.ci_hi > 0 else math.inf
                hi = a.ci_hi / b.ci_lo if b.ci_lo > 0 else math.inf
                rows.append(
                    SchemeRatio(variant, target, d, p, num, den, ratio, lo, hi)
                )
    return rows
