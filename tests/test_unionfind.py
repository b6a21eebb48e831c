from degseq.unionfind import UnionFind


def _root(uf, v):
    while uf.parent[v] != v:
        v = uf.parent[v]
    return v


def test_handcrafted_multigraph():
    # loop at 0, double edge 1=2, path 3-4-5, isolated vertex 6
    uf = UnionFind(7, ((0, 0), (1, 2), (1, 2), (3, 4), (4, 5)))
    assert sorted(uf.component_sizes()) == [1, 1, 2, 3]
    assert _root(uf, 3) == _root(uf, 5) != _root(uf, 6)

    uf.union(5, 6)  # one more edge: extends the path to 6
    assert sorted(uf.component_sizes()) == [1, 2, 4]
    assert _root(uf, 6) == _root(uf, 3)

    uf.union(3, 6)  # closes the path into a 4-cycle
    assert sorted(uf.component_sizes()) == [1, 2, 4]

