"""Procedure TM — the optimal k-BAS dynamic program (Section 3.2).

For every node ``u`` two aggregates are computed bottom-up (equation 3.1):

* ``t(u)`` — the best value extractable from ``T(u)`` when ``u`` is
  **retained**: ``val(u)`` plus the ``t`` values of its ``k`` best children
  (the other children are pruned *down* — removed with their entire
  subtrees, because a retained node may not have pruned-up descendants,
  Observation 3.8a);
* ``m(u)`` — the best value when ``u`` is **pruned up** (removed together
  with all its ancestors): each child independently contributes
  ``max(t(child), m(child))``.

A top-down replay of the argmax decisions then materialises the optimal
k-BAS.  Runtime is ``O(|V| log k)`` from the top-k selection — effectively
the paper's ``O(|V|)``.

Two interchangeable engines compute the aggregates:

* :func:`tm_values` — the per-node reference loop, kept deliberately
  close to the paper's pseudocode;
* :func:`tm_values_vectorized` — a numpy kernel over the forest's CSR
  layout that processes whole depth levels with ``np.add.reduceat`` and a
  row-partitioned top-k.  Exact for integer and ``Fraction`` values; for
  float values it may differ from the loop by summation-order ulps only.

``tm_optimal_bas``/``tm_optimal_value`` dispatch between them by forest
size (see ``_VECTORIZE_MIN_NODES``); tests cross-check the two engines on
randomized forests and the Appendix-A family.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.core.bas.forest import Forest
from repro.core.bas.subforest import SubForest
from repro.obs.tracer import current_tracer
from repro.utils import faults

#: Forest size at which the automatic engine switches to the vectorized
#: kernel.  Below this the Python loop is already fast and exact for every
#: value dtype; above it the vectorized kernel wins by an order of magnitude.
_VECTORIZE_MIN_NODES = 4096

#: Cap on the per-level batch-size list attached to ``tm.level`` span
#: attributes — a path-shaped forest has O(n) levels and the trace must
#: stay bounded.
_TRACE_MAX_LEVELS = 64


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k-BAS requires k >= 1, got {k} (k = 0 prunes every edge)")


def tm_values(forest: Forest, k: int) -> Tuple[List, List]:
    """The ``t`` and ``m`` arrays of equation 3.1, indexed by node id.

    Exposed separately from :func:`tm_optimal_bas` so the Appendix-A golden
    tests can compare the computed aggregates against Lemma A.2's closed
    forms level by level.

    The top-k selection inside ``t(u)`` picks children by ``t``-value only:
    when several children tie at the selection boundary the *sum* — and
    hence ``t(u)`` — is the same whichever tied child is counted, so the
    aggregates need no tie-break.  The materialisation step
    (:func:`tm_optimal_bas`) does need one and resolves boundary ties
    towards the smaller node id.
    """
    _check_k(k)
    tracer = current_tracer()
    if tracer is not None:
        with tracer.span("tm.loop", n=forest.n, k=k):
            tracer.count("tm.nodes", forest.n)
            return _tm_values_impl(forest, k)
    return _tm_values_impl(forest, k)


def _tm_values_impl(forest: Forest, k: int) -> Tuple[List, List]:
    n = forest.n
    t: List = [0] * n
    m: List = [0] * n
    # Test-only fault (repro.check): mutate the child-selection order so the
    # differential oracles have a broken kernel to catch.  Hoisted to one
    # set lookup per call; disarmed cost is negligible.
    broken_topk = faults.is_active("tm.loop.topk-order")
    for u in forest.postorder():
        kids = forest.children(u)
        if not kids:
            t[u] = forest.value(u)
            m[u] = 0
            continue
        # C_k(u): the k children with the highest t-values.  Values are
        # positive, so filling all k slots is always at least as good as
        # leaving one empty.
        if broken_topk:
            best = heapq.nsmallest(min(k, len(kids)), (t[c] for c in kids))
        else:
            best = heapq.nlargest(k, (t[c] for c in kids))
        t[u] = forest.value(u) + sum(best)
        m[u] = sum(max(t[c], m[c]) for c in kids)
    return t, m


def tm_values_vectorized(forest: Forest, k: int) -> Tuple[List, List]:
    """Equation 3.1 computed level-by-level over the CSR forest layout.

    For each depth level (deepest first) the children of *all* its nodes
    are one contiguous slice of ``forest.children_index`` — the next level
    down, grouped by parent — so

    * ``m`` is one ``np.maximum`` + ``np.add.reduceat`` over the slice, and
    * ``t`` adds a per-parent top-k: full sums where every node of the
      level has ≤ k children, otherwise a zero-padded (parents × max-degree)
      matrix partitioned row-wise (values are positive, so zero padding
      never displaces a real child from the top k).

    Returns plain lists like :func:`tm_values`.  Integer and ``Fraction``
    forests reproduce the reference loop exactly; float forests agree up to
    summation order (numpy reduces in a different association).
    """
    _check_k(k)
    tracer = current_tracer()
    if tracer is None:
        # No-op fast path: the hot DP below runs uninstrumented; the only
        # disabled-mode cost is this ContextVar lookup (benchmarked and
        # CI-gated at < 5% on the n = 1e5 kernel).
        return _tm_values_vectorized_impl(forest, k)
    n = forest.n
    with tracer.span("tm.vectorized", n=n, k=k) as s:
        result = _tm_values_vectorized_impl(forest, k)
        if n:
            # Per-level batch sizes fall out of the CSR level index without
            # touching the DP loop: level d spans level_ptr[d]..level_ptr[d+1].
            ptr = forest.level_ptr
            batches = [int(ptr[d + 1] - ptr[d]) for d in range(len(ptr) - 1)]
            s.attrs["levels"] = len(batches)
            s.attrs["batch_sizes"] = batches[:_TRACE_MAX_LEVELS]
            for nodes in batches:
                tracer.count("tm.level_nodes", nodes)
            tracer.count("tm.levels", len(batches))
        tracer.count("tm.nodes", n)
    return result


def _tm_values_vectorized_impl(forest: Forest, k: int) -> Tuple[List, List]:
    n = forest.n
    if n == 0:
        return [], []
    values = forest.values_array
    t = np.zeros(n, dtype=values.dtype)
    m = np.zeros(n, dtype=values.dtype)
    _level_sweep(
        forest.topo_array,
        forest.children_start,
        forest.level_ptr,
        values,
        len(forest.roots),
        k,
        t,
        m,
    )
    return t.tolist(), m.tolist()


def _level_sweep(
    topo: np.ndarray,
    start: np.ndarray,
    level_ptr: np.ndarray,
    values: np.ndarray,
    n_roots: int,
    k: int,
    t: np.ndarray,
    m: np.ndarray,
) -> None:
    """The equation-3.1 DP over one CSR layout, deepest level first.

    Fills ``t``/``m`` in place, indexed by node id.

    Internally the DP runs in *position space* — arrays indexed by topo
    position, not node id.  There the BFS invariant makes every access a
    contiguous slice: level ``d`` is ``[level_ptr[d]:level_ptr[d+1])`` and
    its concatenated children are exactly level ``d + 1``, so the sweep
    does no per-level gathers at all.  Three whole-array permutations
    (``values`` in, ``t``/``m`` out) pay for it once.
    """
    exact = values.dtype == object  # Fraction (or mixed) values: stay exact
    values_pos = values[topo]
    t_pos = np.zeros_like(t)
    m_pos = np.zeros_like(m)
    for d in range(len(level_ptr) - 2, -1, -1):
        a, b = int(level_ptr[d]), int(level_ptr[d + 1])
        s0, s1 = int(start[a]), int(start[b])
        if s0 == s1:  # a level of leaves
            t_pos[a:b] = values_pos[a:b]
            continue
        t_child = t_pos[n_roots + s0 : n_roots + s1]
        m_child = m_pos[n_roots + s0 : n_roots + s1]
        lens = start[a + 1 : b + 1] - start[a:b]
        offsets = start[a:b] - s0
        nz = lens > 0
        starts_nz = offsets[nz]
        m_pos[a:b][nz] = np.add.reduceat(np.maximum(t_child, m_child), starts_nz)
        t_level = values_pos[a:b].copy()
        max_deg = int(lens.max())
        if max_deg <= k:
            t_level[nz] += np.add.reduceat(t_child, starts_nz)
        else:
            # Parents with <= k children keep everything, so their top-k sum
            # is the plain segment sum; only over-degree parents need the
            # padded row-partitioned selection (bucketed by degree so one
            # giant hub cannot inflate every row's padding — see
            # _topk_big_sums).
            sums = np.add.reduceat(t_child, starts_nz)
            lens_nz = lens[nz]
            big = lens_nz > k
            if big.any():
                sums[big] = _topk_big_sums(
                    t_child, starts_nz[big], lens_nz[big], k, exact
                )
            t_level[nz] += sums
        t_pos[a:b] = t_level
    t[topo] = t_pos
    m[topo] = m_pos


def _topk_big_sums(
    t_child: np.ndarray,
    starts_big: np.ndarray,
    lens_big: np.ndarray,
    k: int,
    exact: bool,
) -> np.ndarray:
    """Top-k child sums for the over-degree parents of one level.

    Rows are bucketed by degree (each bucket's max width within ~2x of its
    min) so one giant hub cannot inflate the zero-padded matrix for every
    row of its level.  Within a bucket the usual trick applies: values are
    positive, so zero padding never displaces a real child from the top k.
    """
    order = np.argsort(lens_big, kind="stable")
    sorted_lens = lens_big[order]
    sums = np.empty(len(lens_big), dtype=t_child.dtype)
    i = 0
    nbig = len(order)
    while i < nbig:
        w_min = int(sorted_lens[i])
        cap = max(2 * w_min, w_min + 8)
        j = int(np.searchsorted(sorted_lens, cap, side="right"))
        rows = order[i:j]
        lens_r = lens_big[rows]
        w = int(sorted_lens[j - 1])
        idx = starts_big[rows][:, None] + np.arange(w)
        mask = np.arange(w) < lens_r[:, None]
        padded = np.zeros((len(rows), w), dtype=t_child.dtype)
        padded[mask] = t_child[idx[mask]]
        if exact:
            # np.partition's introselect needs rich comparisons too, but a
            # full sort keeps the object path simple and still O(deg log deg).
            top = np.sort(padded, axis=1)[:, w - k :]
        else:
            top = np.partition(padded, w - k, axis=1)[:, w - k :]
        sums[rows] = top.sum(axis=1)
        i = j
    return sums


def _tm_values_auto(forest: Forest, k: int) -> Tuple[List, List]:
    """Engine dispatch: the vectorized kernel for large forests, the reference
    loop below the crossover (where it is both exact and fast enough)."""
    vectorize = forest.n >= _VECTORIZE_MIN_NODES
    tracer = current_tracer()
    if tracer is not None:
        tracer.gauge("tm.dispatch", "vectorized" if vectorize else "loop")
        tracer.count(f"tm.dispatch.{'vectorized' if vectorize else 'loop'}")
    if vectorize:
        return tm_values_vectorized(forest, k)
    return tm_values(forest, k)


def tm_optimal_bas(forest: Forest, k: int) -> SubForest:
    """The optimal k-BAS of a forest (Definition 3.3) via procedure TM.

    Applies the DP independently to every tree of the forest (Observation
    3.5: the max-value k-BAS of a forest is the union over its trees) and
    replays the decisions top-down:

    * a **retained** node keeps its top-k children (by ``t``) retained and
      prunes the rest down (their whole subtrees are discarded);
    * a **pruned-up** node lets each child independently choose
      ``max(t, m)`` — retained or pruned-up;
    * the root of each tree picks ``max(t(root), m(root))``.

    Ties favour retention and, within the top-k selection, smaller node id —
    deterministic output for reproducibility.
    """
    tracer = current_tracer()
    if tracer is not None:
        with tracer.span(
            "tm.solve", n=forest.n, k=k,
            engine="vectorized" if forest.n >= _VECTORIZE_MIN_NODES else "loop",
        ) as s:
            bas = _tm_optimal_bas_impl(forest, k)
            s.attrs["retained"] = len(bas.retained)
            return bas
    return _tm_optimal_bas_impl(forest, k)


def _tm_optimal_bas_impl(forest: Forest, k: int) -> SubForest:
    t, m = _tm_values_auto(forest, k)
    # Mirror of the aggregate-side fault hook: under the injected mutation
    # the replay picks the same (wrong) children the recurrence counted, so
    # the broken kernel stays internally consistent — only a cross-engine
    # oracle can expose it.
    broken_topk = faults.is_active("tm.loop.topk-order")
    retained: List[int] = []
    RETAIN, PRUNE_UP = 0, 1
    stack: List[Tuple[int, int]] = []
    for root in forest.roots:
        stack.append((root, RETAIN if t[root] >= m[root] else PRUNE_UP))
    while stack:
        u, decision = stack.pop()
        if decision == RETAIN:
            retained.append(u)
            kids = forest.children(u)
            if kids:
                top = heapq.nsmallest(
                    min(k, len(kids)),
                    kids,
                    key=(lambda c: (t[c], c)) if broken_topk else (lambda c: (-t[c], c)),
                )
                for c in top:
                    stack.append((c, RETAIN))
                # Children outside the top-k are pruned down: dropped with
                # their entire subtrees (no push).
        else:  # pruned up: children decide independently.
            for c in forest.children(u):
                stack.append((c, RETAIN if t[c] >= m[c] else PRUNE_UP))
    return SubForest(forest, retained)


def tm_optimal_value(forest: Forest, k: int):
    """``val`` of the optimal k-BAS without materialising the node set."""
    t, m = _tm_values_auto(forest, k)
    return sum(max(t[r], m[r]) for r in forest.roots)
