"""The check matrix of a protected target and its exact matching decoder.

CheckMatrix alone decides what a residual's syndrome is: from the protected
target (and, for scheme me, the measured checks) it fixes the detecting
checks, the qubits each syndrome bit reads, the logical and the residual
component (X or Z) read.  Syndromes are Python ints of any width, and a
residual's key is syndrome | logical parity << m for m checks; pack lays
keys out for numpy as W = m // 64 + 1 uint64 words per column.

The matching graph has one node per detecting check plus a single boundary
node; every data qubit contributes exactly one edge, between the checks that
contain it (or to the boundary when only one does).  Breadth-first search
from every node fills one path table: paths[a][b] is the data-qubit mask of
one deterministic shortest a-b path, and distances are its popcounts.

Decoding pairs up syndrome defects (and optionally the boundary) with exact
minimum total distance: a memoised subset dynamic program up to _DP_LIMIT
defects, blossom matching on a twin-node reduction above that.  The guard
was measured on sampled unrotated uea chunks at d=9 and d=11, p=1e-2: up to
21 defects the DP's mean call is faster than blossom's, above it slower,
and its slowest call grows fast (BENCH_decode.json, "dp_guard").  networkx,
which blossom runs on, is imported on the first blossom call, so a process
whose syndromes all stay at or below the guard never loads it.  The DP
starts from the full defect set and pairs the lowest remaining defect with
the boundary or with a partner j; it tries only partners closer to it than
the two boundary distances together.  That pruning is exact, because a
farther partner can never strictly beat sending both defects to the
boundary, so the DP picks the same pairs as a full table over all 2^k
subsets while visiting only the subsets that can matter.  Where two
minimum-weight matchings tie, the DP and blossom may pick pairs of
different logical parity, so the guard is part of the decoder's output.
The DP and blossom work on check indices and read the graph's own tables
(blossom's twin of check a is node m + a), so a syndrome is its defect
set.  The correction is the XOR of the matched pairs' path masks.

Callers ask one question of it, whether it flips the protected logical.
That answer, the XOR of the matched pairs' path parities, depends only on
the check matrix, the data qubits and the syndrome, so every decoder of one
(CheckMatrix, data qubits) pair shares one MatchingGraph, whichever scheme
or run_experiment point asked for it: the three encoders of one code and
target decode each syndrome once.  MatchingGraph.parities is the one answer
path and the only reader and writer of the graph's parity cache.  It reads
the cache, groups the misses by defect count k, and decodes each group one
of two ways.  A group of at least _BATCH_MIN syndromes with k <=
_BATCH_LIMIT goes through one numpy subset DP, _match_dp_batch, with one
column per syndrome; the rest go one by one through match.  Small groups
stay scalar because a batch costs a fixed numpy call overhead per subset
size that only a large enough group pays back, and groups above
_BATCH_LIMIT because the batch builds tables of 2^k rows.  It then stores
the group at once, emptying the cache first if the group would take it past
_CACHE_LIMIT syndromes, and keeping no group larger than that.
SyndromeDecoder.failures judges packed keys, Monte Carlo shots and fault
classes alike through it: a key fails when its parity differs from its
correction's, and each distinct syndrome is decoded once;
SyndromeDecoder.decode_syndrome asks it about one syndrome.

The batched DP visits the subsets the scalar DP reaches from the full set,
smallest first, and keeps per subset one unsigned integer, its cost << 7 |
the logical parity of its pairs; MatchingGraph keeps the paths' cells,
dist << 7 | parity, in one table for it.  A subset's options are its lowest
defect to the boundary, ranked 0, and to each partner j, ranked 2(j + 1),
and each option's sum of cells carries its rank in bits 1-6, so one min
picks the least (cost, rank): the boundary unless a partner is strictly
cheaper, else the first cheapest partner, the full table's rule.  Adding
two cells XORs their parities and carries into the rank's low bit, which
no rank uses, so the batch makes the scalar DP's picks, ties included, and
returns the parity match would give.  It only drops the near pruning,
which skips nothing that could win.  match_defects_bruteforce
re-solves the matching by enumerating every pairing and exists purely as an
independent cross-check; nothing in the decode path calls it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .code_model import StabilizerCheck, SurfaceCode
from .encoders import Scheme, Target, prepared_check_kind
from .stab_sim import qubit_mask

# the scalar DP decodes syndromes of at most this many defects, blossom
# those above (module docstring)
_DP_LIMIT = 21
# the batched DP takes syndromes of at most this many defects
_BATCH_LIMIT = 14
# MatchingGraph.parities sends its uncached syndromes of one defect count
# through one batched DP when there are at least this many; fewer go one by one
_BATCH_MIN = 32
# one batched DP call fills at most this many (subset, syndrome) table cells
_BATCH_CELLS = 1 << 18
# a shared parity cache is emptied when it reaches this many syndromes
_CACHE_LIMIT = 1 << 20


@dataclass(frozen=True)
class CheckMatrix:
    """Syndrome and logical parity of residuals for one protected target.

    Target zero protects logical Z against X errors, which flag Z checks;
    target plus is the dual.  Row i reads the qubits in supports[i]: the
    support of detecting check i and, where the circuit measured that check
    (scheme me), its ancilla, since a residual there flips the recorded
    outcome.
    """

    target: Target
    kind: str  # detecting check kind
    axis: str  # 'X' or 'Z': the residual component that is read
    checks: tuple[StabilizerCheck, ...]
    supports: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]  # supports as bitmasks
    logical_support: tuple[int, ...]
    logical: int

    @classmethod
    def of(
        cls,
        code: SurfaceCode,
        target: Target | str,
        scheme: Scheme | str | None = None,
        complementary: bool = False,
    ) -> "CheckMatrix":
        """The matrix that judges a circuit preparing `target`.

        complementary judges the unprotected error type instead: the dual
        target's matrix, with the measured ancillas' outcome bits for me.
        """
        target = Target(target)
        measured = None
        if scheme is not None and Scheme(scheme) is Scheme.ME:
            measured = prepared_check_kind(target)
        if complementary:
            target = Target.PLUS if target is Target.ZERO else Target.ZERO
        kind, axis = ("Z", "X") if target is Target.ZERO else ("X", "Z")
        checks = code.checks(kind)
        supports = tuple(
            c.support + ((c.ancilla,) if c.kind == measured else ()) for c in checks
        )
        logical = tuple(code.logical_z if kind == "Z" else code.logical_x)
        return cls(
            target, kind, axis, checks, supports, tuple(map(qubit_mask, supports)),
            logical, qubit_mask(logical),
        )

    def read(self, x: int, z: int) -> int:
        """The component of a residual (x, z) that this matrix judges."""
        return x if self.axis == "X" else z

    def key_images(self, n: int) -> tuple[list[int], list[int]]:
        """Per-qubit (X, Z) images for fault_analysis.backward_images.

        On the read axis qubit q maps to bit i for every row i that reads
        it, plus bit m = len(rows) if the logical contains it; the other
        axis maps to 0.  A residual's image is then its key,
        syndrome | logical parity << m.
        """
        m = len(self.rows)
        key = [0] * n
        for i, support in enumerate(self.supports):
            for q in support:
                key[q] |= 1 << i
        for q in self.logical_support:
            key[q] |= 1 << m
        return (key, [0] * n) if self.axis == "X" else ([0] * n, key)

    def pack(self, keys) -> np.ndarray:
        """Python-int keys as a (W, N) uint64 array, W = m // 64 + 1.

        Entry [w, n] is word w, least significant first, of the n-th key.
        """
        words = len(self.rows) // 64 + 1
        raw = b"".join(key.to_bytes(8 * words, "little") for key in keys)
        return np.frombuffer(raw, dtype="<u8").reshape(-1, words).T.copy()

    def syndrome(self, mask: int) -> int:
        return sum(((mask & row).bit_count() & 1) << i for i, row in enumerate(self.rows))

    def logical_parity(self, mask: int) -> int:
        return (mask & self.logical).bit_count() & 1


class MatchingGraph:
    """Path table over a CheckMatrix's checks; node len(checks) is the boundary."""

    def __init__(self, matrix: CheckMatrix, data_ids: tuple[int, ...]):
        m = len(matrix.checks)
        self.boundary = m

        containing: dict[int, list[int]] = {}
        for i, c in enumerate(matrix.checks):
            for q in c.support:
                containing.setdefault(q, []).append(i)

        # one edge per data qubit; parallel edges keep the smallest qubit id
        best_edge: dict[tuple[int, int], int] = {}
        for q in data_ids:
            hits = containing.get(q, [])
            if not 1 <= len(hits) <= 2:
                raise ValueError(
                    f"data qubit {q} lies in {len(hits)} {matrix.kind} checks"
                )
            u, v = (hits[0], self.boundary) if len(hits) == 1 else (hits[0], hits[1])
            key = (min(u, v), max(u, v))
            if key not in best_edge or q < best_edge[key]:
                best_edge[key] = q

        adj: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
        for (u, v), q in best_edge.items():
            adj[u].append((v, q))
            adj[v].append((u, q))
        for nbrs in adj:
            nbrs.sort()

        self.paths: list[list[int]] = []
        for src in range(m + 1):
            path: list[int | None] = [None] * (m + 1)
            path[src] = 0
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v, q in adj[u]:
                        if path[v] is None:
                            path[v] = path[u] ^ 1 << q
                            nxt.append(v)
                frontier = nxt
            if None in path:
                raise ValueError("matching graph is disconnected")
            self.paths.append(path)
        self.dist = [[p.bit_count() for p in row] for row in self.paths]
        self.parity = [[matrix.logical_parity(p) for p in row] for row in self.paths]
        # the batched DP's cells, dist << 7 | parity, in the smallest unsigned
        # type that holds a candidate's cost, at most _BATCH_LIMIT distances,
        # above _match_dp_batch's rank and parity bits
        dtype = np.min_scalar_type(_BATCH_LIMIT * max(map(max, self.dist)) << 7 | 127)
        self.cells = np.array(self.dist, dtype) << 7 | np.array(self.parity, dtype)
        # the matchers read these by check index, so a syndrome is its defect set
        self.bdist = [row[m] for row in self.dist[:m]]
        self.near = _near(self.dist, self.bdist)
        # syndrome -> its correction's logical parity; only parities() reads or writes it
        self.cache: dict[int, int] = {}

    def match(self, syndrome: int) -> tuple[list[tuple[int, int | None]], int]:
        """Minimum-weight pairs of a syndrome's defects, and their weight.

        A pair (i, j) names check indices, with j None for the boundary.
        """
        if not 0 <= syndrome < 1 << self.boundary:
            raise ValueError(
                f"syndrome {syndrome:#x} is outside [0, 2**{self.boundary}) "
                f"for {self.boundary} checks"
            )
        k = syndrome.bit_count()
        if k == 0:
            return [], 0
        if k <= _DP_LIMIT:
            return _match_dp(self.dist, self.bdist, syndrome, self.near)
        return _match_blossom(self.dist, self.bdist, syndrome)

    def decode(self, syndrome: int) -> tuple[int, int]:
        """Minimum-weight correction for a syndrome: (data mask, weight)."""
        pairs, weight = self.match(syndrome)
        paths, edge = self.paths, self.boundary
        mask = 0
        for i, j in pairs:
            mask ^= paths[i][edge if j is None else j]
        return mask, weight

    def parities(self, syndromes: list[int], rows: np.ndarray | None) -> np.ndarray:
        """The logical parity of decode()'s correction per syndrome, as a bool array.

        rows[n] is syndromes[n] as little-endian bytes.  Cached answers are
        read, and the misses are grouped by defect count k.  A group of at
        least _BATCH_MIN syndromes with k <= _BATCH_LIMIT goes through
        correction_parities, which reads its defect sets from rows; the rest
        go one by one through match and the path-parity table, so a call of
        fewer than _BATCH_MIN syndromes may pass rows None.  Each group is
        stored at once, after emptying the cache if it would overfill it; a
        group larger than _CACHE_LIMIT is not kept.
        """
        cache, parity, edge = self.cache, self.parity, self.boundary
        # 2: not cached; the misses' answers are written in place
        known = np.array([cache.get(s, 2) for s in syndromes], dtype=np.uint8)
        todo = np.flatnonzero(known == 2)
        count = np.array([syndromes[n].bit_count() for n in todo.tolist()], dtype=np.intp)
        # np.bincount, not np.unique: without return_inverse, np.unique
        # imports numpy.ma on first use, half a megabyte
        for k in np.flatnonzero(np.bincount(count)).tolist():
            group = todo[count == k]
            batch = [syndromes[n] for n in group.tolist()]
            if k <= _BATCH_LIMIT and len(batch) >= _BATCH_MIN:
                bits = np.unpackbits(rows[group], axis=1, bitorder="little")
                defects = np.flatnonzero(bits).reshape(len(batch), k) % bits.shape[1]
                known[group] = self.correction_parities(defects)
            else:
                # the XOR of the matched pairs' path parities, as a sum's low bit
                known[group] = [
                    sum(parity[i][edge if j is None else j] for i, j in self.match(s)[0]) & 1
                    for s in batch
                ]
            if len(cache) + len(batch) > _CACHE_LIMIT:
                cache.clear()
            if len(batch) <= _CACHE_LIMIT:
                cache.update(zip(batch, known[group].tolist()))
        return known == 1

    def correction_parities(self, defects: np.ndarray) -> np.ndarray:
        """The logical parity of decode()'s correction, per row of defects.

        defects is (N, k) check indices, each row ascending, with
        1 <= k <= _BATCH_LIMIT: row n is the defect set of one syndrome.
        """
        n, k = defects.shape
        if not 1 <= k <= _BATCH_LIMIT:
            raise ValueError(f"{k} defects per syndrome is outside [1, {_BATCH_LIMIT}]")
        block = max(1, _BATCH_CELLS // _dp_plan(k)[1])
        if n > block:
            return np.concatenate(
                [self.correction_parities(defects[lo : lo + block]) for lo in range(0, n, block)]
            )
        ends = defects.T
        # column 0 of defect i is its boundary path, column j + 1 its path to j
        return _match_dp_batch(
            self.cells[ends[:, None], np.vstack([np.full((1, n), self.boundary), ends])]
        )


def _near(dd, bd):
    """near[i]: bitmask of the partners j > i with dd[i][j] < bd[i] + bd[j]."""
    k = len(bd)
    return [
        sum(1 << j for j in range(i + 1, k) if dd[i][j] < bd[i] + bd[j]) for i in range(k)
    ]


def _match_dp(dd, bd, s, near):
    """Exact matching of the defect set s, a bitmask of defect indices.

    dd, bd and near = _near(dd, bd) are indexed by defect, and the pairs
    (i, j or None for the boundary) name defects the same way.
    """
    # Top-down over the subsets reachable from the full defect set.  The
    # lowest defect i of a subset goes to the boundary unless some partner j
    # strictly beats that, tried in ascending order.  Since
    # cost(rest) <= bd[j] + cost(rest - j), a partner with
    # dd[i][j] >= bd[i] + bd[j] never does, so it is skipped: every visited
    # subset picks what the full 2^k table would, ties included.
    cost: dict[int, int] = {0: 0}
    pick: dict[int, int | None] = {}
    weight = _dp_cost(s, dd, bd, near, cost, pick)
    pairs = []
    while s:
        i = (s & -s).bit_length() - 1
        j = pick[s]
        pairs.append((i, j))
        s ^= 1 << i
        if j is not None:
            s ^= 1 << j
    return pairs, weight


def _dp_cost(s, dd, bd, near, cost, pick):
    # A module-level function, not a closure: a recursive closure is a
    # reference cycle that only the cyclic garbage collector frees, and on
    # small syndromes that collection costs as much as the DP.
    i = (s & -s).bit_length() - 1
    rest = s ^ (1 << i)
    c = cost.get(rest)
    best = bd[i] + (_dp_cost(rest, dd, bd, near, cost, pick) if c is None else c)
    partner = None
    row = dd[i]
    t = rest & near[i]
    while t:
        low = t & -t
        t ^= low
        c = cost.get(rest ^ low)
        if c is None:
            c = _dp_cost(rest ^ low, dd, bd, near, cost, pick)
        j = low.bit_length() - 1
        if row[j] + c < best:
            best, partner = row[j] + c, j
    cost[s] = best
    pick[s] = partner
    return best


@functools.lru_cache(maxsize=None)
def _dp_plan(k: int):
    """The batched DP's schedule for k defects: (steps, table rows).

    The table has one row per subset of range(k) reachable from the full
    set by dropping the lowest defect alone or with one partner: row 0 is
    the empty set, the rows of the subsets of r defects form one block
    after those of r - 1, and the full set is the last row.  Step r fills
    block r as (lo, hi, src, dst), one row per subset and one column per
    option for its lowest defect i: column 0 sends i to the boundary and
    column c > 0 pairs it with its c-th partner j, ascending.  src is the
    option's cell, i * (k + 1) for the boundary and i * (k + 1) + j + 1
    for j, and dst the row of the subset without i, and without j.

    A subset whose lowest defect is t is reachable iff at most t defects
    above t are missing from it.  Reaching it takes at most t steps, since
    each drops the lowest remaining defect, one below t, and each drops at
    most one defect above t as partner.  Conversely, dropping 0, ..., t - 1
    in turn, each with one missing defect above t as partner while they
    last, reaches it.  The empty set counts as lowest defect k.
    """
    subsets = np.arange(1 << k)
    size = np.zeros_like(subsets)
    low = np.full_like(subsets, k)
    for b in reversed(range(k)):
        bit = subsets >> b & 1
        size += bit
        low[bit == 1] = b
    order = np.flatnonzero(k - low - size <= low)
    order = order[np.argsort(size[order], kind="stable")]
    row = np.zeros(1 << k, dtype=np.intp)
    row[order] = np.arange(len(order))
    bounds = np.searchsorted(size[order], np.arange(k + 2))
    steps = []
    for r in range(1, k + 1):
        lo, hi = bounds[r], bounds[r + 1]
        block = order[lo:hi]
        i = low[block][:, None]
        rest = block[:, None] ^ 1 << i
        j = np.flatnonzero(rest >> np.arange(k) & 1).reshape(hi - lo, r - 1) % k
        src = i * (k + 1) + np.hstack([np.zeros_like(i), j + 1])
        steps.append((lo, hi, src, row[np.hstack([rest, rest ^ 1 << j])]))
    return steps, len(order)


def _match_dp_batch(cells):
    """_match_dp's picks on N defect sets at once, returning their parities.

    cells is a (k, k + 1, N) array of an unsigned type, one column per
    defect set of k defects: cells[i][0][n] is dist << 7 | parity of the
    path from defect i to the boundary, cells[i][j + 1][n] that of its path
    to defect j, and the type holds k of these distances shifted by 7.  The
    result is, per column, the XOR of the parities of the pairs _match_dp
    picks, as a (N,) bool array; cells is overwritten.
    """
    k, _, n = cells.shape
    steps, rows = _dp_plan(k)
    # column c's cells ranked 2c in bits 1-6 (module docstring); keep clears
    # the rank from each subset's least option
    cells += (np.arange(k + 1, dtype=cells.dtype) << 2)[:, None]
    tab = cells.reshape(-1, n)
    keep = cells.dtype.type(np.iinfo(cells.dtype).max ^ 126)
    cost = np.zeros((rows, n), dtype=cells.dtype)
    for lo, hi, src, dst in steps:
        cand = tab[src]
        cand += cost[dst]
        np.bitwise_and(cand.min(axis=1), keep, out=cost[lo:hi])
    return (cost[-1] & 1).astype(bool)


def _match_blossom(dist, bdist, s):
    """_match_dp's weight for the defect set s, by blossom: check a's twin
    m + a costs its boundary distance and twins pair up free, so any subset
    of the defects may go to the boundary while the rest pair up."""
    # imported here, so that a process whose syndromes all stay at or below
    # _DP_LIMIT defects never loads networkx
    import networkx as nx

    m = len(bdist)
    defects = [a for a in range(m) if s >> a & 1]
    g = nx.Graph()
    for n, a in enumerate(defects):
        g.add_edge(a, m + a, weight=bdist[a])
        for b in defects[n + 1 :]:
            g.add_edge(a, b, weight=dist[a][b])
            g.add_edge(m + a, m + b, weight=0)
    pairs = []
    weight = 0
    for a, b in nx.min_weight_matching(g):
        a, b = min(a, b), max(a, b)
        if a < m <= b:
            if b - m != a:
                raise AssertionError("twin matched across defects")
            pairs.append((a, None))
            weight += bdist[a]
        elif b < m:
            pairs.append((a, b))
            weight += dist[a][b]
    return pairs, weight


def match_defects_bruteforce(graph: MatchingGraph, defects: list[int]) -> int:
    """Minimum pairing weight by full enumeration (cross-check oracle)."""
    bd = {a: graph.dist[a][graph.boundary] for a in defects}

    def rec(rem: tuple[int, ...]) -> int:
        if not rem:
            return 0
        i, rest = rem[0], rem[1:]
        best = bd[i] + rec(rest)
        for idx, j in enumerate(rest):
            sub = rest[:idx] + rest[idx + 1 :]
            best = min(best, graph.dist[i][j] + rec(sub))
        return best

    return rec(tuple(defects))


# one matching graph, and so one parity cache, per (CheckMatrix, data qubits)
_shared_state = functools.lru_cache(maxsize=32)(MatchingGraph)


@dataclass
class SyndromeDecoder:
    """Caching decoder bound to a code and a protected preparation target.

    The target's CheckMatrix says which checks flag which errors; the
    matching graph is built on those checks and answers every syndrome
    through MatchingGraph.parities, which caches each answer, the
    protected-logical parity of its correction, so repeated syndromes decode
    once.  One graph, so one cache, is the state of every decoder whose
    CheckMatrix and code.data_ids are equal (_shared_state): they are all
    the answer reads, so a hand-built or modified code never borrows another
    code's answers.  The 32 most recently used graphs are kept.  A cache
    holds at most _CACHE_LIMIT syndromes, about 80 MB of keys and dict, so
    the ceiling is about 2.5 GB, reached only when 32 codes and targets each
    decode 2^20 distinct syndromes.  A graph's tables are under 1 MB up to
    unrotated d=11.  A batched DP call holds _BATCH_CELLS (subset, syndrome)
    cells of packed cost and parity and its temporaries, a few MB at most,
    and frees them.
    """

    code: SurfaceCode
    target: str
    graph: MatchingGraph = field(init=False)
    matrix: CheckMatrix = field(init=False)

    def __post_init__(self):
        self.matrix = CheckMatrix.of(self.code, self.target)
        self.graph = _shared_state(self.matrix, self.code.data_ids)

    def decode_syndrome(self, syndrome: int) -> int:
        """The protected-logical parity of the syndrome's correction."""
        return int(self.graph.parities([syndrome], None)[0])

    def failures(self, keys: np.ndarray) -> np.ndarray:
        """Per column of packed keys (CheckMatrix.pack), whether it fails.

        A key fails when its logical parity differs from the parity of its
        syndrome's correction.  An empty syndrome needs no correction, so it
        fails iff its parity is set; each distinct nonempty syndrome is
        decoded once.  keys is left unchanged.
        """
        word, bit = divmod(len(self.matrix.rows), 64)
        parity_bit = np.uint64(1) << np.uint64(bit)
        top = keys[word]
        # bit m is the top bit of its word, so the word reaches parity_bit
        # exactly when the parity is set
        parity = top >= parity_bit
        nonempty = (top != 0) & (top != parity_bit)
        if word:
            nonempty |= keys[:word].any(axis=0)
        # an index array, not a boolean mask: indexing by a mask that picks
        # about one shot in three costs several times more
        hit = np.flatnonzero(nonempty)
        syn = keys[:, hit]
        syn[word] &= ~parity_bit
        if len(syn) == 1:
            # a plain integer sort, several times cheaper than void keys
            uniq, inv = np.unique(syn[0], return_inverse=True)
            syndromes = uniq.tolist()
        else:
            rows = np.ascontiguousarray(syn.T)
            rows = rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()
            uniq, inv = np.unique(rows, return_inverse=True)
            syndromes = [int.from_bytes(row.tobytes(), "little") for row in uniq]
        # row n: syndrome n's words as little-endian bytes; the row width is
        # explicit, since a chunk without a nonempty syndrome has no rows
        words = uniq.view(np.uint8).reshape(len(uniq), uniq.dtype.itemsize)
        parity[hit] ^= self.graph.parities(syndromes, words)[inv]
        return parity

    def is_logical_failure(self, error_mask: int) -> bool:
        """Decode, correct, and test the residual against the logical.

        Raises if the correction fails to clear the syndrome (it cannot, by
        construction, unless the error mask touches non-data qubits).
        """
        correction, _ = self.graph.decode(self.matrix.syndrome(error_mask))
        residual = error_mask ^ correction
        if self.matrix.syndrome(residual) != 0:
            raise ValueError("correction did not clear the syndrome")
        return self.matrix.logical_parity(residual) == 1
