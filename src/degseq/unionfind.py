"""The one component labeller: a disjoint-set forest (union by size, path
halving) that also counts vertex degrees, used by the Monte Carlo census, the
structure check and the brute-force oracles."""

from __future__ import annotations


class UnionFind:
    """Components and degrees of the multigraph on vertices 0..n-1 with the
    given edges (a loop (v, v) adds 2 to the degree of v)."""

    __slots__ = ("parent", "size", "degree")

    def __init__(self, n: int, edges=()):
        self.parent = list(range(n))
        self.size = [1] * n
        self.degree = [0] * n
        self.add_edges(edges)

    def add_edges(self, edges) -> None:
        # inline, not via find: this is the Monte Carlo hot loop
        parent, size, degree = self.parent, self.size, self.degree
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
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

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def component_sizes(self) -> list:
        size = self.size
        return [size[v] for v, p in enumerate(self.parent) if p == v]
