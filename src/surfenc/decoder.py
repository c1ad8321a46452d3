"""The check matrix of a protected target and its exact matching decoder.

CheckMatrix alone decides what a residual's syndrome is: from the protected
target (and, for scheme me, the measured checks) it fixes the detecting
checks, the qubits each syndrome bit reads, the logical and the residual
component (X or Z) read.  Syndromes are Python ints of any width.

The matching graph has one node per detecting check plus a single boundary
node; every data qubit contributes exactly one edge, between the checks that
contain it (or to the boundary when only one does).  Breadth-first search
from every node fills one path table: paths[a][b] is the data-qubit mask of
one deterministic shortest a-b path, and distances are its popcounts.

Decoding pairs up syndrome defects (and optionally the boundary) with exact
minimum total distance: a memoised subset dynamic program up to 14 defects,
blossom matching on a twin-node reduction above that.  The DP starts from
the full defect set and pairs the lowest remaining defect with the boundary
or with a partner j; it tries only partners closer to it than the two
boundary distances together.  That pruning is exact, because a farther
partner can never strictly beat sending both defects to the boundary, so
the DP picks the same pairs as a full table over all 2^k subsets while
visiting only the subsets that can matter.  The DP works on check indices,
so the syndrome is its defect set and the partner masks are built once per
graph.  The correction is the XOR of the matched pairs' path masks.
Callers ask one question of it, whether it flips the protected logical, so
SyndromeDecoder.decode_syndrome returns and caches that parity bit per
syndrome.  match_defects_bruteforce re-solves the matching by
enumerating every pairing and exists purely as an independent cross-check;
nothing in the decode path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .code_model import StabilizerCheck, SurfaceCode
from .encoders import Scheme, Target, prepared_check_kind
from .stab_sim import qubit_mask

_DP_LIMIT = 14
# SyndromeDecoder._cache is emptied when it reaches this many syndromes
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

    def syndrome(self, mask: int) -> int:
        return sum(((mask & row).bit_count() & 1) << i for i, row in enumerate(self.rows))

    def logical_parity(self, mask: int) -> int:
        return (mask & self.logical).bit_count() & 1


class MatchingGraph:
    """Path table over a CheckMatrix's checks; node len(checks) is the boundary."""

    def __init__(self, code: SurfaceCode, matrix: CheckMatrix):
        m = len(matrix.checks)
        self.boundary = m

        containing: dict[int, list[int]] = {}
        for i, c in enumerate(matrix.checks):
            for q in c.support:
                containing.setdefault(q, []).append(i)

        # one edge per data qubit; parallel edges keep the smallest qubit id
        best_edge: dict[tuple[int, int], int] = {}
        for q in code.data_ids:
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
        # the DP reads these by check index, so a syndrome is its defect set
        self.bdist = [row[m] for row in self.dist[:m]]
        self.near = _near(self.dist, self.bdist)

    def decode(self, syndrome: int) -> tuple[int, int]:
        """Minimum-weight correction for a syndrome: (data mask, weight)."""
        k = syndrome.bit_count()
        if k == 0:
            return 0, 0
        paths, dist, edge = self.paths, self.dist, self.boundary
        if k <= _DP_LIMIT:
            pairs, weight = _match_dp(dist, self.bdist, syndrome, self.near)
        else:
            defects = []
            rest = syndrome
            while rest:
                low = rest & -rest
                defects.append(low.bit_length() - 1)
                rest ^= low
            dd = [[dist[a][c] for c in defects] for a in defects]
            bd = [dist[a][edge] for a in defects]
            pairs, weight = _match_blossom(dd, bd)
            pairs = [(defects[i], None if j is None else defects[j]) for i, j in pairs]
        mask = 0
        for i, j in pairs:
            mask ^= paths[i][edge if j is None else j]
        return mask, weight


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


def _match_blossom(dd, bd):
    # twin construction: defect i also gets twin i'; i-i' costs the boundary
    # distance, twins are free among themselves, so any subset may be routed
    # to the boundary while the rest pair up.
    k = len(bd)
    g = nx.Graph()
    for i in range(k):
        g.add_edge(i, k + i, weight=bd[i])
        for j in range(i + 1, k):
            g.add_edge(i, j, weight=dd[i][j])
            g.add_edge(k + i, k + j, weight=0)
    matching = nx.min_weight_matching(g)
    pairs = []
    weight = 0
    for a, b in matching:
        a, b = min(a, b), max(a, b)
        if a < k <= b:
            if b - k != a:
                raise AssertionError("twin matched across defects")
            pairs.append((a, None))
            weight += bd[a]
        elif b < k:
            pairs.append((a, b))
            weight += dd[a][b]
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


@dataclass
class SyndromeDecoder:
    """Caching decoder bound to a code and a protected preparation target.

    The target's CheckMatrix says which checks flag which errors; the
    matching graph is built on those checks.  Each syndrome's answer, the
    protected-logical parity of its correction, is cached, so repeated
    syndromes decode once.  The cache is emptied when it holds
    _CACHE_LIMIT syndromes; an answer depends on its syndrome alone.
    """

    code: SurfaceCode
    target: str
    graph: MatchingGraph = field(init=False)
    matrix: CheckMatrix = field(init=False)
    _cache: dict[int, int] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.matrix = CheckMatrix.of(self.code, self.target)
        self.graph = MatchingGraph(self.code, self.matrix)

    def decode_syndrome(self, syndrome: int) -> int:
        """The protected-logical parity of the syndrome's correction."""
        parity = self._cache.get(syndrome)
        if parity is None:
            if len(self._cache) >= _CACHE_LIMIT:
                self._cache.clear()
            mask, _ = self.graph.decode(syndrome)
            parity = self._cache[syndrome] = self.matrix.logical_parity(mask)
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
