import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbelab import models
from gerbelab.errors import DegenerateSimplex, DimensionTooLarge
from gerbelab.nerve import build_nerve, faces, random_nerve, simplices


def test_circle_cover():
    n = models.circle_nerve()
    assert n.vertex_count == 3
    assert simplices(n, 1) == ((0, 1), (0, 2), (1, 2))
    assert simplices(n, 2) == ()


def test_boundary_of_3_simplex():
    n = models.boundary_simplex(2)
    assert n.vertex_count == 4
    assert len(simplices(n, 1)) == 6
    assert len(simplices(n, 2)) == 4
    assert simplices(n, 3) == ()


def test_rp2_counts_and_links():
    n = models.rp2_nerve()
    assert [len(simplices(n, k)) for k in range(3)] == [6, 15, 10]
    assert n.euler_characteristic() == 1
    # closed surface: every edge lies in exactly two triangles
    for e in simplices(n, 1):
        count = sum(1 for t in simplices(n, 2) if set(e) <= set(t))
        assert count == 2
    # vertex links are 5-cycles (brute force: degree 2 everywhere, connected)
    for v in range(6):
        link_edges = [tuple(sorted(set(t) - {v}))
                      for t in simplices(n, 2) if v in t]
        assert len(link_edges) == 5
        degree = {}
        for a, b in link_edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d == 2 for d in degree.values())
        seen = {link_edges[0][0]}
        frontier = [link_edges[0][0]]
        while frontier:
            x = frontier.pop()
            for a, b in link_edges:
                if x == a and b not in seen:
                    seen.add(b)
                    frontier.append(b)
                if x == b and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        assert len(seen) == 5


def test_euler_characteristic_of_sphere_models():
    for dim in range(4):
        assert models.boundary_simplex(dim).euler_characteristic() == 1 + (-1) ** dim


def test_four_dimensional_products_keep_top_simplices():
    s1, s2, s3, rp2 = (models.circle_nerve(), models.boundary_simplex(2),
                       models.boundary_simplex(3), models.rp2_nerve())
    for a, b, chi in ((s2, s2, 4), (rp2, rp2, 1), (s3, s1, 0)):
        product = models.ordered_product(a, b)
        assert product.dimension() == 4
        assert product.euler_characteristic() == chi


def test_product_above_dimension_four_rejected():
    with pytest.raises(DimensionTooLarge):
        models.ordered_product(models.boundary_simplex(3), models.boundary_simplex(2))


def test_vertex_count_inferred_and_isolated_vertices():
    n = build_nerve([(0, 1)], vertex_count=4)
    assert simplices(n, 0) == ((0,), (1,), (2,), (3,))


def test_unsorted_input_is_canonicalized():
    n = build_nerve([(2, 0, 1)])
    assert simplices(n, 2) == ((0, 1, 2),)


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplex):
        build_nerve([(0, 1, 1)])


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        build_nerve([tuple(range(6))])
    build_nerve([tuple(range(5))])  # dimension 4 is allowed


def test_out_of_range_vertex_rejected():
    with pytest.raises(DegenerateSimplex):
        build_nerve([(0, 5)], vertex_count=3)


def test_index_stability():
    a = build_nerve([(0, 1, 2), (1, 2, 3)])
    b = build_nerve([(1, 2, 3), (0, 1, 2)])
    assert a == b
    assert simplices(a, 1) == simplices(b, 1)
    for k in range(3):
        for i, s in enumerate(simplices(a, k)):
            assert a.index_of(s) == i


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4,
                         unique=True), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_downward_closure_property(cells):
    n = build_nerve(cells, vertex_count=6)
    for k in range(1, 5):
        for s in simplices(n, k):
            for f in faces(s):
                assert f in simplices(n, k - 1)


def test_random_nerve_closure():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = random_nerve(rng)
        for k in range(1, 5):
            for s in simplices(n, k):
                for f in faces(s):
                    assert f in simplices(n, k - 1)
