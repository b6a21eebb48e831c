"""The single-graph component labeller: a disjoint-set forest (union by
size, path halving) used by census and the brute-force oracles.  It labels
components only; degree profiles are checked against exact.stub_owners.
census_rows and run_experiment label batches of graphs with sampler._tally
instead, a numpy walk over their degree-2 vertices alone."""

from __future__ import annotations


class UnionFind:
    """Components of the multigraph on vertices 0..n-1 with the given edges."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int, edges=()):
        self.parent = list(range(n))
        self.size = [1] * n
        self.add_edges(edges)

    def add_edges(self, edges) -> None:
        # root walks inline: census runs this once per sampled graph
        parent, size = self.parent, self.size
        for a, b in edges:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]

    def union(self, a: int, b: int) -> None:
        """Add the one edge (a, b).  No package code calls it; it stays a
        class attribute because perfbench/spans.py counts its calls."""
        self.add_edges(((a, b),))

    def component_sizes(self) -> list:
        size = self.size
        return [size[v] for v, p in enumerate(self.parent) if p == v]
