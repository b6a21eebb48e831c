from degseq.unionfind import UnionFind


def test_handcrafted_multigraph():
    # loop at 0, double edge 1=2, path 3-4-5, isolated vertex 6
    uf = UnionFind(7, ((0, 0), (1, 2), (1, 2), (3, 4), (4, 5)))
    assert uf.degree == [2, 2, 2, 1, 2, 1, 0]
    assert sorted(uf.component_sizes()) == [1, 1, 2, 3]
    assert uf.find(3) == uf.find(5) != uf.find(6)

    uf.union(5, 6)  # one more edge: extends the path to 6
    assert uf.degree == [2, 2, 2, 1, 2, 2, 1]
    assert sorted(uf.component_sizes()) == [1, 2, 4]
    assert uf.find(6) == uf.find(3)

    uf.union(3, 6)  # closes the path into a 4-cycle
    assert uf.degree == [2, 2, 2, 2, 2, 2, 2]
    assert sorted(uf.component_sizes()) == [1, 2, 4]

