"""Random forest generators for the k-BAS upper-bound experiments (E2).

Theorem 3.9 is a worst-case guarantee; the experiments probe how close
random tree shapes come to it.  Four shape families are provided —
uniform random attachment, preferential attachment (heavy-degree hubs),
caterpillars (pathological for contraction depth) and mixed forests — plus
value models (unit, uniform, exponential-in-depth mimicking Appendix A).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.bas.forest import Forest
from repro.utils.rng import make_rng


def random_attachment_tree(n: int, seed=None) -> Forest:
    """Uniform random recursive tree: node ``i`` picks a parent uniformly
    among ``0..i-1``.  Expected depth ``Θ(log n)``, light-tailed degrees."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    return Forest(parents, [1.0] * n)


def preferential_attachment_tree(n: int, seed=None) -> Forest:
    """Preferential attachment: parents chosen ∝ (1 + current degree).

    Produces high-degree hubs, stressing the top-k child selection of TM
    and the degree-gated contraction of Algorithm 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    parents = [-1]
    degree = [1]  # smoothing +1
    for i in range(1, n):
        weights = np.asarray(degree, dtype=float)
        p = int(rng.choice(i, p=weights / weights.sum()))
        parents.append(p)
        degree[p] += 1
        degree.append(1)
    return Forest(parents, [1.0] * n)


def caterpillar(spine: int, legs_per_node: int) -> Forest:
    """A spine path whose every node carries ``legs_per_node`` leaf legs.

    Degree ``legs_per_node + 1`` along the spine makes contraction strip
    exactly one layer of legs per iteration when ``k < legs``.
    """
    if spine < 1 or legs_per_node < 0:
        raise ValueError("spine >= 1 and legs_per_node >= 0 required")
    parents: List[int] = []
    prev = -1
    for _ in range(spine):
        parents.append(prev)
        node = len(parents) - 1
        for _ in range(legs_per_node):
            parents.append(node)
        prev = node
    return Forest(parents, [1.0] * len(parents))


def random_values(forest: Forest, *, model: str = "uniform", seed=None) -> Forest:
    """Re-value a forest under a value model.

    * ``"unit"`` — all ones;
    * ``"uniform"`` — iid Uniform(0.5, 1.5);
    * ``"depth_exponential"`` — value ``2^{-depth}`` scaled to the deepest
      level being 1, echoing Appendix A's level-value structure;
    * ``"heavy"`` — Pareto-ish (``(1/U)``), a few very valuable nodes.
    """
    rng = make_rng(seed)
    n = forest.n
    if model == "unit":
        values: Sequence = [1.0] * n
    elif model == "uniform":
        values = (0.5 + rng.random(n)).tolist()
    elif model == "depth_exponential":
        depths = forest.depths()
        max_d = max(depths)
        values = [float(2 ** (max_d - d)) for d in depths]
    elif model == "heavy":
        u = rng.random(n)
        values = (1.0 / (0.05 + 0.95 * u)).tolist()
    else:
        raise ValueError(f"unknown value model {model!r}")
    parents = [forest.parent(v) for v in range(n)]
    return Forest(parents, values)


def random_forest(
    n: int,
    *,
    trees: int = 1,
    shape: str = "attachment",
    value_model: str = "uniform",
    seed=None,
) -> Forest:
    """A forest of ``trees`` random trees totalling ``n`` nodes.

    ``shape`` is ``"attachment"``, ``"preferential"`` or ``"mixed"``
    (alternating).  Values follow :func:`random_values`'s models.
    """
    if trees < 1 or n < trees:
        raise ValueError(f"need n >= trees >= 1, got n={n}, trees={trees}")
    rng = make_rng(seed)
    sizes = _split_sizes(n, trees, rng)
    parents: List[int] = []
    for t, size in enumerate(sizes):
        if shape == "attachment":
            sub = random_attachment_tree(size, rng)
        elif shape == "preferential":
            sub = preferential_attachment_tree(size, rng)
        elif shape == "mixed":
            sub = (
                random_attachment_tree(size, rng)
                if t % 2 == 0
                else preferential_attachment_tree(size, rng)
            )
        else:
            raise ValueError(f"unknown shape {shape!r}")
        offset = len(parents)
        for v in range(sub.n):
            p = sub.parent(v)
            parents.append(-1 if p == -1 else p + offset)
    forest = Forest(parents, [1.0] * n)
    return random_values(forest, model=value_model, seed=rng)


def _split_sizes(n: int, trees: int, rng: np.random.Generator) -> List[int]:
    """Random composition of ``n`` into ``trees`` positive parts."""
    if trees == 1:
        return [n]
    cuts = sorted(rng.choice(np.arange(1, n), size=trees - 1, replace=False).tolist())
    bounds = [0] + cuts + [n]
    return [bounds[i + 1] - bounds[i] for i in range(trees)]
