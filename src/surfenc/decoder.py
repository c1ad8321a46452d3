"""The check matrix of a protected target and its exact matching decoder.

CheckMatrix alone decides what a residual's syndrome is: from the protected
target (and, for scheme me, the measured checks) it fixes the detecting
checks, the qubits each syndrome bit reads, the logical and the residual
component (X or Z) read.  Syndromes are Python ints of any width.

The matching graph has one node per detecting check plus a single boundary
node; every data qubit contributes exactly one edge, between the checks that
contain it (or to the boundary when only one does).  Distances and
deterministic shortest paths come from breadth-first search.

Decoding pairs up syndrome defects (and optionally the boundary) with exact
minimum total distance: a subset dynamic program up to 14 defects, blossom
matching on a twin-node reduction above that.  match_defects_bruteforce
re-solves the same problem by enumerating every pairing and exists purely as
an independent cross-check; nothing in the decode path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .code_model import StabilizerCheck, SurfaceCode
from .encoders import Scheme, Target, prepared_check_kind
from .stab_sim import qubit_mask

_DP_LIMIT = 14


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

    def syndrome(self, mask: int) -> int:
        return sum(((mask & row).bit_count() & 1) << i for i, row in enumerate(self.rows))

    def logical_parity(self, mask: int) -> int:
        return (mask & self.logical).bit_count() & 1


class MatchingGraph:
    def __init__(self, code: SurfaceCode, check_kind: str):
        if check_kind not in ("X", "Z"):
            raise ValueError(f"check kind must be 'X' or 'Z', got {check_kind!r}")
        self.code = code
        self.matrix = CheckMatrix.of(code, "zero" if check_kind == "Z" else "plus")
        self.checks = self.matrix.checks
        m = len(self.checks)
        self.boundary = m

        containing: dict[int, list[int]] = {}
        for i, c in enumerate(self.checks):
            for q in c.support:
                containing.setdefault(q, []).append(i)

        # one edge per data qubit; parallel edges keep the smallest qubit id
        best_edge: dict[tuple[int, int], int] = {}
        for q in code.data_ids:
            hits = containing.get(q, [])
            if not 1 <= len(hits) <= 2:
                raise ValueError(
                    f"data qubit {q} lies in {len(hits)} {check_kind} checks"
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
        self._adj = adj

        # all-pairs BFS with parent edges for path reconstruction
        n_nodes = m + 1
        self.dist = [[-1] * n_nodes for _ in range(n_nodes)]
        self._parent: list[list[tuple[int, int] | None]] = []
        for src in range(n_nodes):
            dist = self.dist[src]
            parent: list[tuple[int, int] | None] = [None] * n_nodes
            dist[src] = 0
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v, q in adj[u]:
                        if dist[v] == -1:
                            dist[v] = dist[u] + 1
                            parent[v] = (u, q)
                            nxt.append(v)
                frontier = nxt
            if any(x == -1 for x in dist):
                raise ValueError("matching graph is disconnected")
            self._parent.append(parent)

    def path_mask(self, src: int, dst: int) -> int:
        """Data qubits (as a bitmask) along one shortest src-dst path."""
        mask = 0
        parent = self._parent[src]
        node = dst
        while node != src:
            prev, q = parent[node]
            mask ^= 1 << q
            node = prev
        return mask

    def syndrome_of(self, error_mask: int) -> int:
        return self.matrix.syndrome(error_mask)

    def decode(self, syndrome: int) -> tuple[int, int]:
        """Minimum-weight correction for a syndrome: (data mask, weight)."""
        defects = [i for i in range(len(self.checks)) if (syndrome >> i) & 1]
        k = len(defects)
        if k == 0:
            return 0, 0
        dd = [[self.dist[a][b] for b in defects] for a in defects]
        bd = [self.dist[a][self.boundary] for a in defects]
        if k <= _DP_LIMIT:
            pairs, weight = _match_dp(dd, bd)
        else:
            pairs, weight = _match_blossom(dd, bd)
        mask = 0
        for i, j in pairs:
            a = defects[i]
            b = self.boundary if j is None else defects[j]
            mask ^= self.path_mask(a, b)
        return mask, weight


def _match_dp(dd, bd):
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
    matching graph is built on those checks.  Corrections and their logical
    parities are cached per syndrome, so repeated syndromes decode once.
    """

    code: SurfaceCode
    target: str
    graph: MatchingGraph = field(init=False)
    matrix: CheckMatrix = field(init=False)
    _cache: dict[int, tuple[int, int]] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.matrix = CheckMatrix.of(self.code, self.target)
        self.graph = MatchingGraph(self.code, self.matrix.kind)

    def decode_syndrome(self, syndrome: int) -> tuple[int, int]:
        """(correction mask, correction's protected-logical parity)."""
        hit = self._cache.get(syndrome)
        if hit is None:
            mask, _ = self.graph.decode(syndrome)
            hit = (mask, self.matrix.logical_parity(mask))
            self._cache[syndrome] = hit
        return hit

    def syndrome_of(self, error_mask: int) -> int:
        return self.matrix.syndrome(error_mask)

    def error_logical_parity(self, error_mask: int) -> int:
        return self.matrix.logical_parity(error_mask)

    def is_logical_failure(self, error_mask: int) -> bool:
        """Decode, correct, and test the residual against the logical.

        Raises if the correction fails to clear the syndrome (it cannot, by
        construction, unless the error mask touches non-data qubits).
        """
        correction, _ = self.decode_syndrome(self.syndrome_of(error_mask))
        residual = error_mask ^ correction
        if self.syndrome_of(residual) != 0:
            raise ValueError("correction did not clear the syndrome")
        return self.error_logical_parity(residual) == 1
