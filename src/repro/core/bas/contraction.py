"""MaxContract and LevelledContraction (Algorithm 1, Section 3.3).

LevelledContraction is the *analysable* k-BAS algorithm behind Theorem 3.9:

1. **MaxContract** repeatedly collapses k-contractible subtrees (Definition
   3.10: leaves, or nodes with ≤ k children that are all contractible) into
   single leaves carrying the subtree's total value (Observation 3.12 — a
   degree-≤-k subtree is itself a k-BAS piece, so no value is lost).
2. The post-contraction **leaves** form layer ``S_i``; the original
   subtrees they absorbed constitute a valid k-BAS (Lemma 3.16).
3. The layer is removed and the process repeats; since every surviving
   internal node kept > k children, ``|S_{i+1}| <= |S_i| / (k+1)``, so the
   number of layers is at most ``log_{k+1} n`` (Lemma 3.18).
4. The best layer is returned; the layers partition all value (Lemma
   3.17), hence the returned value is at least ``val(T) / log_{k+1} n``.

The full layer trace is exposed because the experiments measure exactly
these per-layer quantities against the lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.bas.forest import Forest
from repro.core.bas.subforest import SubForest


@dataclass(frozen=True)
class Layer:
    """One iteration's harvest: the leaf set ``S_i`` after MaxContract.

    ``nodes`` are the surviving (contracted) leaf ids; ``absorbed`` maps each
    of them to every original node collapsed into it (including itself);
    ``value`` is the layer's total value — by Observation 3.12 exactly the
    original value of the absorbed subtrees.
    """

    index: int
    nodes: Tuple[int, ...]
    absorbed: Dict[int, Tuple[int, ...]]
    value: float

    @property
    def all_original_nodes(self) -> List[int]:
        out: List[int] = []
        for v in self.nodes:
            out.extend(self.absorbed[v])
        return out


@dataclass(frozen=True)
class ContractionTrace:
    """Complete record of a LevelledContraction run."""

    forest: Forest
    k: int
    layers: Tuple[Layer, ...]
    best_layer_index: int

    @property
    def num_iterations(self) -> int:
        """``L`` — bounded by ``log_{k+1} n`` (Lemma 3.18)."""
        return len(self.layers)

    @property
    def best_layer(self) -> Layer:
        return self.layers[self.best_layer_index]

    def best_subforest(self) -> SubForest:
        """The returned k-BAS: the original subtrees behind the best layer."""
        return SubForest(self.forest, self.best_layer.all_original_nodes)

    def layer_sizes(self) -> List[int]:
        """``|S_i|`` per iteration — the geometric-decay series of Lemma 3.18."""
        return [len(layer.nodes) for layer in self.layers]

    def layer_values(self) -> List[float]:
        return [layer.value for layer in self.layers]


class _MutableForest:
    """Scratch state for the iterative contraction (children lists mutate)."""

    def __init__(self, forest: Forest):
        self.parent: List[int] = [forest.parent(v) for v in range(forest.n)]
        self.children: List[List[int]] = [list(forest.children(v)) for v in range(forest.n)]
        self.value: List = list(forest.values)
        self.absorbed: List[List[int]] = [[v] for v in range(forest.n)]
        self.alive: List[bool] = [True] * forest.n
        self.roots: List[int] = list(forest.roots)

    def alive_postorder(self) -> List[int]:
        order: List[int] = []
        stack = [r for r in self.roots if self.alive[r]]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        order.reverse()
        return order

    def any_alive(self) -> bool:
        return any(self.alive[r] for r in self.roots)


def _max_contract_pass(state: _MutableForest, k: int) -> List[int]:
    """One MaxContract sweep; returns the post-contraction leaf set ``S``.

    A bottom-up pass marks k-contractible nodes; each *maximal* contractible
    node (one whose parent is absent or not contractible) absorbs its whole
    subtree — value and original-node bookkeeping included — and becomes a
    leaf.  The returned leaves are exactly those maximal contractible nodes.
    """
    order = state.alive_postorder()
    contractible: Dict[int, bool] = {}
    for u in order:
        kids = state.children[u]
        contractible[u] = len(kids) <= k and all(contractible[c] for c in kids)

    leaves: List[int] = []
    for u in order:
        if not contractible[u]:
            continue
        p = state.parent[u]
        is_maximal = p == -1 or not state.alive[p] or not contractible.get(p, False)
        if not is_maximal:
            continue
        # Contract T(u) into u: bottom-up absorption of the whole subtree.
        stack = list(state.children[u])
        while stack:
            c = stack.pop()
            stack.extend(state.children[c])
            state.value[u] = state.value[u] + state.value[c]
            state.absorbed[u].extend(state.absorbed[c])
            state.alive[c] = False
            state.children[c] = []
        state.children[u] = []
        leaves.append(u)
    return leaves


def _remove_leaves(state: _MutableForest, leaves: Sequence[int]) -> None:
    leaf_set = set(leaves)
    for v in leaves:
        state.alive[v] = False
    for v in leaves:
        p = state.parent[v]
        if p != -1 and state.alive[p]:
            state.children[p] = [c for c in state.children[p] if c not in leaf_set]
    state.roots = [r for r in state.roots if state.alive[r]]


def max_contract(forest: Forest, k: int) -> Tuple[List[int], Dict[int, List[int]]]:
    """Stand-alone MaxContract: the first-iteration leaf layer of Algorithm 1.

    Returns the contracted-leaf ids and, for each, the original nodes it
    absorbed.  Exposed for the unit tests of Observations 3.13/3.14.
    """
    if k < 1:
        raise ValueError(f"contraction requires k >= 1, got {k}")
    state = _MutableForest(forest)
    leaves = _max_contract_pass(state, k)
    return leaves, {v: list(state.absorbed[v]) for v in leaves}


def levelled_contraction(forest: Forest, k: int) -> ContractionTrace:
    """Algorithm 1 in full, returning the complete layer trace.

    The best layer's absorbed subtrees form a k-BAS (Lemma 3.16) of value at
    least ``val(T) / L`` with ``L <= log_{k+1} n`` (Lemmas 3.17–3.18).
    """
    if k < 1:
        raise ValueError(f"levelled_contraction requires k >= 1, got {k}")
    if forest.n == 0:
        raise ValueError("levelled_contraction of an empty forest")
    state = _MutableForest(forest)
    layers: List[Layer] = []
    guard = forest.n + 1
    while state.any_alive():
        guard -= 1
        if guard < 0:  # pragma: no cover - would indicate a progress bug
            raise RuntimeError("contraction made no progress")
        leaves = _max_contract_pass(state, k)
        layer = Layer(
            index=len(layers),
            nodes=tuple(sorted(leaves)),
            absorbed={v: tuple(state.absorbed[v]) for v in leaves},
            value=sum(state.value[v] for v in leaves),
        )
        layers.append(layer)
        _remove_leaves(state, leaves)
    best = max(range(len(layers)), key=lambda i: (layers[i].value, -i))
    return ContractionTrace(forest=forest, k=k, layers=tuple(layers), best_layer_index=best)
