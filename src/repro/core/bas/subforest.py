"""SubForest: the result object of a k-BAS computation.

A sub-forest is identified by its retained node set; the induced structure
(edges of the original forest with both endpoints retained) defines the
connected components whose independence the AISF condition constrains.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List

from repro.core.bas.forest import Forest


class SubForest:
    """A candidate (k-)BAS: a retained subset of a forest's nodes."""

    def __init__(self, forest: Forest, retained: Iterable[int]):
        self._forest = forest
        retained_set = frozenset(retained)
        for v in retained_set:
            if not (0 <= v < forest.n):
                raise ValueError(f"retained node {v} outside forest of size {forest.n}")
        self._retained: FrozenSet[int] = retained_set

    @property
    def forest(self) -> Forest:
        return self._forest

    @property
    def retained(self) -> FrozenSet[int]:
        return self._retained

    def __contains__(self, v: int) -> bool:
        return v in self._retained

    def __len__(self) -> int:
        return len(self._retained)

    @property
    def value(self):
        """``val(V')`` — the objective of Definition 3.3."""
        return sum(self._forest.value(v) for v in self._retained)

    def loss_factor(self):
        """``val(T) / val(T')`` — the realised loss on this instance."""
        own = self.value
        if own == 0:
            return float("inf")
        return self._forest.total_value / own

    # -- induced structure -------------------------------------------------------

    def induced_children(self, v: int) -> List[int]:
        """Children of ``v`` in the induced sub-forest (both ends retained)."""
        if v not in self._retained:
            raise KeyError(f"node {v} not retained")
        return [c for c in self._forest.children(v) if c in self._retained]

    def induced_degree(self, v: int) -> int:
        return len(self.induced_children(v))

    def component_roots(self) -> List[int]:
        """Retained nodes whose parent is not retained — the component roots."""
        return sorted(
            v
            for v in self._retained
            if self._forest.parent(v) == -1 or self._forest.parent(v) not in self._retained
        )

    def components(self) -> List[List[int]]:
        """Connected components of the induced sub-forest (each a tree)."""
        comps: List[List[int]] = []
        for root in self.component_roots():
            comp: List[int] = []
            stack = [root]
            while stack:
                u = stack.pop()
                comp.append(u)
                stack.extend(self.induced_children(u))
            comps.append(sorted(comp))
        return comps

    def max_induced_degree(self) -> int:
        return max((self.induced_degree(v) for v in self._retained), default=0)

    def __repr__(self) -> str:
        return (
            f"SubForest(retained={len(self._retained)}/{self._forest.n}, "
            f"value={self.value})"
        )
