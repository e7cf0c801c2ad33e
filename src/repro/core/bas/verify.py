"""Independent verification of k-BAS candidates (Definitions 3.1–3.2).

A :class:`~repro.core.bas.subforest.SubForest` is a valid k-BAS when

* **bounded degree**: every retained node keeps at most ``k`` retained
  children, and
* **ancestor independence**: no node of one connected component is an
  ancestor (w.r.t. the *original* edges) of a node in another component.

The ancestor-independence check uses Lemma 3.7's characterisation: a
violation exists exactly when some retained node has a retained ancestor
with a non-retained node strictly between them on the tree path.  One
top-down sweep with two bits of state per node decides this in ``O(|V|)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.bas.subforest import SubForest


@dataclass
class BasReport:
    """Verification outcome with human-readable violations."""

    valid: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid

    def assert_ok(self) -> None:
        if not self.valid:
            raise AssertionError("invalid k-BAS:\n  " + "\n  ".join(self.violations))


def verify_bas(candidate: SubForest, k: int, *, max_violations: int = 20) -> BasReport:
    """Check the two k-BAS conditions on a candidate sub-forest."""
    forest = candidate.forest
    violations: List[str] = []

    def report(msg: str) -> None:
        if len(violations) < max_violations:
            violations.append(msg)

    # Bounded degree in the induced sub-forest.
    for v in sorted(candidate.retained):
        deg = candidate.induced_degree(v)
        if deg > k:
            report(f"node {v}: induced degree {deg} exceeds k = {k}")

    # Ancestor independence.  Sweep top-down carrying, for each node, whether
    # any ancestor is retained and whether a gap (non-retained node below the
    # nearest retained ancestor) has been crossed.  A retained node reached
    # with (retained ancestor above, gap crossed) sits in a *different*
    # component than that ancestor while being its descendant — exactly the
    # forbidden pattern.
    NO_ANCESTOR, IN_COMPONENT, GAP_BELOW_RETAINED = 0, 1, 2
    state = {}
    for v in forest.topological_order():
        p = forest.parent(v)
        if p == -1:
            above = NO_ANCESTOR
        else:
            p_state = state[p]
            if p in candidate.retained:
                above = IN_COMPONENT
            elif p_state in (IN_COMPONENT, GAP_BELOW_RETAINED):
                above = GAP_BELOW_RETAINED
            else:
                above = NO_ANCESTOR
        if v in candidate.retained and above == GAP_BELOW_RETAINED:
            report(
                f"node {v}: retained but separated from a retained ancestor "
                "by removed nodes (violates ancestor independence)"
            )
        state[v] = above

    return BasReport(valid=not violations, violations=violations)
