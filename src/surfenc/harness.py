"""Monte Carlo experiment harness: logical failure rates of encoding circuits.

Each experiment point (one distance, one noise strength) is sampled in fixed
chunks of shots.  Chunk c of point i draws from an independent counter-based
RNG stream, Philox keyed by (seed, i) with counter (0, 0, c, 0), so results
are bit-identical no matter how chunks are distributed over workers.

A shot's syndrome and logical parity are linear in its faults, so no qubit
is simulated, and the fault model is p-free.  Per (variant, scheme, target,
d), one backward pass in the key space of the target's CheckMatrix
(fault_analysis.backward_images, the same table the exhaustive enumeration
reads) over the circuit built at p = 0, which has every noise site, gives
every basis fault its key, syndrome | logical parity << m for m checks,
packed into uint64 words by CheckMatrix.pack, and its verdict: whether that
key alone fails.  Per chunk, each noise instruction (one per reset group
and one per CNOT slot, as encoders.plan_to_circuit emits them) draws its
hits at the point's p through stab_sim.noise_draws, as the reference frame
sampler stab_sim.sample_final_frames does.  A shot hit once fails iff its
fault's verdict does; bitwise_xor.at XORs the keys of the shots hit more
often, and SyndromeDecoder.failures judges them.
"""

from __future__ import annotations

import collections
import collections.abc
import csv
import functools
import math
import operator
from dataclasses import dataclass, asdict

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that load
# out of the first run_experiment call
from numpy.random import Generator, Philox

from .circuit_ir import CHANNELS
from .code_model import CodeVariant, build_code, validate_distance
from .decoder import SyndromeDecoder
from .encoders import Scheme, Target, build_plan, noise_strength, plan_to_circuit
from .fault_analysis import backward_images
from .stab_sim import noise_draws

# generate_circuit and sample_final_frames stay importable from here:
# perfbench/rep.py wraps them as harness attributes by those names.
from .encoders import generate_circuit  # noqa: F401
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
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{name} repeats the value {repeats[0]!r}")
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


def _scatter(keys: np.ndarray, fault: np.ndarray, column: np.ndarray, n: int) -> np.ndarray:
    """(W, n) table whose column c is the XOR of keys[:, f] over the hits (f, c)."""
    acc = np.zeros((len(keys), n), dtype=keys.dtype)
    # ufunc.at, so that faults hitting one column all land
    for row, key in zip(acc, keys):
        np.bitwise_xor.at(row, column, key[fault])
    return acc


def sample_fault_keys(engine: _PointEngine, shots: int, p: float, rng: Generator) -> np.ndarray:
    """Per shot, the XOR of the keys of the basis faults that hit it at p.

    The result is (W, shots), laid out as engine.keys.  For an equal rng,
    column s is the linear map behind the keys applied to shot s of
    stab_sim.sample_final_frames on the circuit generated at p.
    """
    shot, fault = engine.hits(shots, p, rng)
    return _scatter(engine.keys, fault, shot, shots)


class _PointEngine:
    """The p-free fault model of one (variant, scheme, target, d), and its decoder.

    keys[:, f] is basis fault f's key in the decoder's CheckMatrix, packed
    by CheckMatrix.pack; faults are numbered as backward_images and
    noise_draws number them.  verdict[f] is whether that key alone fails.
    schedule holds per noise instruction its channel, basis count, site
    count and first fault index.
    """

    def __init__(self, variant: str, scheme: str, target: str, d: int):
        self.code = build_code(CodeVariant(variant), d)
        circuit = plan_to_circuit(build_plan(self.code, Scheme(scheme), Target(target)), 0.0)
        self.decoder = SyndromeDecoder(self.code, target)
        matrix = self.decoder.matrix
        table = backward_images(circuit, matrix.key_images(circuit.n_qubits))
        self.keys = matrix.pack(map(matrix.read, table.res_x, table.res_z))
        self.verdict = self.decoder.failures(self.keys)
        self.schedule, first = [], 0
        for instr in (i for _, i in circuit.instructions() if i.is_noise):
            bases = len(CHANNELS[instr.name])
            self.schedule.append((instr.name, bases, instr.n_sites, first))
            first += bases * instr.n_sites

    def hits(self, shots: int, p: float, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
        """(shot, fault) of every hit of one chunk at p, in draw order."""
        shot, fault = [], []
        for channel, bases, sites, first in self.schedule:
            site, hit, b = noise_draws(channel, sites, p, shots, rng)
            shot.append(hit)
            fault.append(first + bases * site + b)
        # int32 halves the arrays, which are at their largest before the judge
        return np.concatenate(shot, dtype=np.int32), np.concatenate(fault, dtype=np.int32)

    def _split(self, shots: int, p: float, rng: Generator) -> tuple[int, np.ndarray]:
        """(failing shots hit once, keys of the shots hit more often); the hit
        arrays die on return, so they do not stack on the decoder's peak."""
        shot, fault = self.hits(shots, p, rng)
        count = np.bincount(shot, minlength=shots)
        once = count[shot] == 1
        # np.compress, several times cheaper here than indexing by the mask
        failing = int(np.count_nonzero(self.verdict[np.compress(once, fault)]))
        # number the shots hit more than once: their columns of the compact table
        multi = np.flatnonzero(count > 1)
        count[multi] = np.arange(len(multi))
        shot, fault = count[np.compress(~once, shot)], np.compress(~once, fault)
        return failing, _scatter(self.keys, fault, shot, len(multi))

    def count_chunk_failures(self, shots: int, p: float, rng: Generator) -> int:
        failing, table = self._split(shots, p, rng)
        return failing + int(np.count_nonzero(self.decoder.failures(table)))


# one model per p-free point; a run visits its points in order, d by d, so a
# few models serve all its chunks
_engine = functools.lru_cache(maxsize=4)(_PointEngine)


def _chunk_task(task: tuple) -> int:
    variant, scheme, target, d, p, seed, point_index, chunk_id, shots = task
    engine = _engine(variant, scheme, target, d)
    return engine.count_chunk_failures(shots, p, chunk_rng(seed, point_index, chunk_id))


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
    pool = None
    if workers > 1:
        # imported here: a one-worker run would pay its import for nothing
        import multiprocessing

        pool = multiprocessing.Pool(workers)
    try:
        for point_index, (d, p) in enumerate(points):
            point = (config.variant, config.scheme, config.target, d, p, config.seed, point_index)
            tasks = [(*point, chunk_id, shots) for chunk_id, shots in enumerate(sizes)]
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
