"""Array-backed rooted forests with node values.

The k-BAS algorithms are linear-time tree sweeps, so the representation is
deliberately flat: a parent array, per-node children lists and a value
array, with iterative traversals (the Appendix-A instances reach depths and
sizes where recursion would blow the interpreter stack).

Node ids are dense integers ``0..n-1``.  Roots have parent ``-1``.

On top of the per-node views the forest lazily materialises a CSR-style
numpy layout — :attr:`Forest.topo_array`, :attr:`Forest.children_index`,
:attr:`Forest.children_start` and :attr:`Forest.level_ptr` — that the
vectorized TM kernel (:func:`repro.core.bas.tm.tm_values_vectorized`)
consumes to process whole depth levels at once.  Because the topological
order is a BFS, nodes of equal depth are contiguous in ``topo_array`` and
the concatenated children of one level are exactly the next level, already
grouped by parent; that contiguity is what makes ``np.add.reduceat`` apply.
All traversal orders are computed once and cached (the DP, the verifier and
the contraction all re-walk the same forest).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class Forest:
    """An immutable rooted forest ``T(V, E)`` with values ``val: V → R+``."""

    def __init__(self, parents: Sequence[int], values: Sequence):
        if len(parents) != len(values):
            raise ValueError(
                f"parents ({len(parents)}) and values ({len(values)}) length mismatch"
            )
        n = len(parents)
        self._parent: Tuple[int, ...] = tuple(parents)
        self._value: Tuple = tuple(values)
        for v, val in enumerate(self._value):
            if val <= 0:
                raise ValueError(f"node {v}: values must be positive, got {val}")
        children: List[List[int]] = [[] for _ in range(n)]
        roots: List[int] = []
        for v, p in enumerate(self._parent):
            if p == -1:
                roots.append(v)
            elif 0 <= p < n:
                if p == v:
                    raise ValueError(f"node {v} is its own parent")
                children[p].append(v)
            else:
                raise ValueError(f"node {v} has invalid parent {p}")
        self._children: Tuple[Tuple[int, ...], ...] = tuple(tuple(c) for c in children)
        self._roots: Tuple[int, ...] = tuple(roots)
        # Lazily-built caches (traversal orders and the CSR numpy layout).
        self._topo_cache: Optional[Tuple[int, ...]] = None
        self._depth_cache: Optional[Tuple[int, ...]] = None
        self._levels_cache: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._csr_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
        self._values_array_cache: Optional[np.ndarray] = None
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Every node must be reachable from a root (rules out parent cycles)."""
        seen = [False] * self.n
        stack = list(self._roots)
        count = 0
        while stack:
            v = stack.pop()
            if seen[v]:  # pragma: no cover - defensive; duplicate push impossible
                continue
            seen[v] = True
            count += 1
            stack.extend(self._children[v])
        if count != self.n:
            raise ValueError(
                f"forest has a parent cycle: {self.n - count} nodes unreachable from roots"
            )

    # -- basic accessors --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._parent)

    @property
    def roots(self) -> Tuple[int, ...]:
        return self._roots

    def parent(self, v: int) -> int:
        """Parent id, or ``-1`` for a root."""
        return self._parent[v]

    def children(self, v: int) -> Tuple[int, ...]:
        """``C_T(v)`` — the children of ``v`` (Section 3.1 notation)."""
        return self._children[v]

    def degree(self, v: int) -> int:
        """``deg_T(v) = |C_T(v)|`` (Section 3.1)."""
        return len(self._children[v])

    def value(self, v: int):
        return self._value[v]

    @property
    def values(self) -> Tuple:
        return self._value

    @property
    def total_value(self):
        """``val(T)`` — the quantity the loss factor is measured against."""
        return sum(self._value)

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    @property
    def leaves(self) -> List[int]:
        return [v for v in range(self.n) if self.is_leaf(v)]

    @property
    def max_degree(self) -> int:
        return max((len(c) for c in self._children), default=0)

    # -- traversals ---------------------------------------------------------------

    def _topo(self) -> Tuple[int, ...]:
        """Cached BFS order (parents before children, levels contiguous)."""
        if self._topo_cache is None:
            order: List[int] = []
            queue = deque(self._roots)
            while queue:
                v = queue.popleft()
                order.append(v)
                queue.extend(self._children[v])
            self._topo_cache = tuple(order)
        return self._topo_cache

    def topological_order(self) -> List[int]:
        """Parents before children (iterative BFS from the roots)."""
        return list(self._topo())

    def postorder(self) -> List[int]:
        """Children before parents — the bottom-up order of TM and MaxContract."""
        return list(reversed(self._topo()))

    def _depths(self) -> Tuple[int, ...]:
        if self._depth_cache is None:
            depth = [0] * self.n
            for v in self._topo():
                p = self._parent[v]
                if p != -1:
                    depth[v] = depth[p] + 1
            self._depth_cache = tuple(depth)
        return self._depth_cache

    def depths(self) -> List[int]:
        """Depth of every node (roots at 0)."""
        return list(self._depths())

    def levels(self) -> Tuple[Tuple[int, ...], ...]:
        """Nodes grouped by depth, shallowest first (cached).

        ``levels()[d]`` lists the depth-``d`` nodes in BFS order, so the
        concatenation over all levels is exactly :meth:`topological_order`.
        """
        if self._levels_cache is None:
            depths = self._depths()
            max_d = max(depths, default=-1)
            buckets: List[List[int]] = [[] for _ in range(max_d + 1)]
            for v in self._topo():
                buckets[depths[v]].append(v)
            self._levels_cache = tuple(tuple(b) for b in buckets)
        return self._levels_cache

    # -- CSR numpy layout (consumed by the vectorized kernels) -------------------

    def _csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._csr_cache is None:
            topo = np.fromiter(self._topo(), dtype=np.intp, count=self.n)
            degrees = np.fromiter(
                (len(self._children[v]) for v in self._topo()),
                dtype=np.intp,
                count=self.n,
            )
            start = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum(degrees, out=start[1:])
            depths = np.fromiter(self._depths(), dtype=np.intp, count=self.n)
            depth_topo = depths[topo] if self.n else depths
            max_d = int(depth_topo[-1]) if self.n else -1
            level_ptr = np.searchsorted(depth_topo, np.arange(max_d + 2))
            self._csr_cache = (topo, start, level_ptr, depths)
        return self._csr_cache

    @property
    def topo_array(self) -> np.ndarray:
        """Node ids in BFS order as a numpy array (levels are contiguous)."""
        return self._csr()[0]

    @property
    def children_index(self) -> np.ndarray:
        """Concatenated children ids, grouped by parent in BFS order.

        Because BFS appends each popped node's children in turn, this array
        is simply ``topo_array`` with the roots stripped; it is the CSR
        column-index array addressed by :attr:`children_start`.
        """
        return self._csr()[0][len(self._roots):]

    @property
    def children_start(self) -> np.ndarray:
        """CSR offsets: children of ``topo_array[i]`` occupy
        ``children_index[children_start[i]:children_start[i + 1]]``."""
        return self._csr()[1]

    @property
    def level_ptr(self) -> np.ndarray:
        """Level boundaries in ``topo_array``: depth-``d`` nodes occupy
        ``topo_array[level_ptr[d]:level_ptr[d + 1]]``."""
        return self._csr()[2]

    @property
    def values_array(self) -> np.ndarray:
        """Node values as a numpy array indexed by node id.

        dtype follows the value types: float64 / int64 for numeric values,
        ``object`` for exact types (:class:`fractions.Fraction`), which the
        vectorized kernels handle without losing exactness.
        """
        if self._values_array_cache is None:
            arr = np.asarray(self._value)
            self._values_array_cache = arr
        return self._values_array_cache

    def subtree_nodes(self, v: int) -> List[int]:
        """All nodes of ``T(v)``, the sub-tree rooted at ``v``."""
        out: List[int] = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self._children[u])
        return out

    def subtree_value(self, v: int):
        """``val(T(v))`` — what a k-contraction of ``v`` would collapse to."""
        return sum(self._value[u] for u in self.subtree_nodes(v))

    def is_ancestor(self, u: int, v: int) -> bool:
        """Whether ``u`` is a (strict) ancestor of ``v``."""
        w = self._parent[v]
        while w != -1:
            if w == u:
                return True
            w = self._parent[w]
        return False

    def ancestors(self, v: int) -> List[int]:
        """Strict ancestors of ``v``, nearest first."""
        out: List[int] = []
        w = self._parent[v]
        while w != -1:
            out.append(w)
            w = self._parent[w]
        return out

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]], values: Sequence) -> "Forest":
        """Build from (parent, child) edges over nodes ``0..n-1``."""
        parents = [-1] * n
        for p, c in edges:
            if parents[c] != -1:
                raise ValueError(f"node {c} has two parents ({parents[c]} and {p})")
            parents[c] = p
        return Forest(parents, values)

    @staticmethod
    def path(n: int, values: Optional[Sequence] = None) -> "Forest":
        """A path ``0 → 1 → … → n-1`` (each node one child) — degree 1."""
        parents = [-1] + list(range(n - 1))
        return Forest(parents, values if values is not None else [1] * n)

    @staticmethod
    def star(n: int, values: Optional[Sequence] = None) -> "Forest":
        """Root 0 with ``n - 1`` leaf children — the max-degree extreme."""
        parents = [-1] + [0] * (n - 1)
        return Forest(parents, values if values is not None else [1] * n)

    @staticmethod
    def complete(branching: int, depth: int, values: Optional[Sequence] = None) -> "Forest":
        """Complete ``branching``-ary tree of the given depth (root depth 0)."""
        if branching < 1 or depth < 0:
            raise ValueError("branching >= 1 and depth >= 0 required")
        parents = [-1]
        level = [0]
        for _ in range(depth):
            nxt = []
            for p in level:
                for _ in range(branching):
                    parents.append(p)
                    nxt.append(len(parents) - 1)
            level = nxt
        n = len(parents)
        return Forest(parents, values if values is not None else [1] * n)

    def relabeled(self, keep: Sequence[int]) -> Tuple["Forest", Dict[int, int]]:
        """The sub-forest *induced* on ``keep`` (edges with both ends kept),
        re-labelled densely.  Returns the new forest and old→new id map."""
        keep_set = set(keep)
        mapping = {old: new for new, old in enumerate(sorted(keep_set))}
        parents = []
        values = []
        for old in sorted(keep_set):
            p = self._parent[old]
            parents.append(mapping[p] if p in keep_set else -1)
            values.append(self._value[old])
        return Forest(parents, values), mapping

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, roots={len(self._roots)}, value={self.total_value})"
