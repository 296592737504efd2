"""Tests for graph builds, the free-product ball, and median machinery."""

import itertools
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import medgraph
from schurmult.errors import (
    NotBipartiteError,
    NotMedianError,
    RadiusMismatchError,
    RayTooShortError,
    SizeLimitError,
    StructureViolationError,
)
from schurmult.medgraph import (
    attach_ray,
    base_geodesic,
    cayley_ball,
    coset_tree,
    graph_from_edges,
    hyperplanes,
    median,
    median_complex,
    meet_data,
    mizuta_vectors,
    pairing,
    parity_witness,
    polytopes,
    product_graph,
    ray_set,
    serre_embedding,
    serre_shift,
    stable_median,
    stable_median_table,
    tree_ball,
    word_distance,
)


def path_graph(k, prefix="p"):
    return graph_from_edges([f"{prefix}{i}" for i in range(k)],
                            [(i, i + 1) for i in range(k - 1)])


def glued(graph, at=0, length=8):
    g, ray = attach_ray(graph, at, length)
    return median_complex(g, ray)


# -- plain graphs -----------------------------------------------------------


def test_graph_from_edges_validation():
    with pytest.raises(ValueError, match="distinct"):
        graph_from_edges(["a", "a"], [(0, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edges(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError, match="connected"):
        graph_from_edges(["a", "b", "c"], [(0, 1)])
    g = path_graph(4)
    assert g.distance(0, 3) == 3
    assert g.edge_count == 3
    assert g.index("p2") == 2
    with pytest.raises(ValueError, match="no vertex"):
        g.index("zz")


def test_tree_ball_structure():
    assert tree_ball(2, 1).graph.size == 4
    b = tree_ball(2, 2)
    assert b.graph.size == 10
    assert tree_ball(3, 2).graph.size == 17
    assert b.graph.edge_count == b.graph.size - 1
    # interior vertices have full degree, boundary has degree 1
    depth = b.graph.distances[b.root]
    for v in range(b.graph.size):
        want = 3 if depth[v] < b.radius else 1
        assert len(b.graph.neighbors[v]) == want
    assert [b.graph.labels[v] for v in b.base_ray] == ["o", "0", "0.0"]
    with pytest.raises(ValueError):
        tree_ball(1, 2)
    with pytest.raises(ValueError):
        tree_ball(2, 0)


def test_product_distances_additive():
    square = product_graph([path_graph(2), path_graph(2, "q")])
    assert square.size == 4
    assert square.distances.max() == 2

    p = product_graph([tree_ball(2, 1).graph, tree_ball(2, 2).graph])
    refreshed = graph_from_edges(p.labels, p.edges())
    assert np.array_equal(refreshed.distances, p.distances)

    lone = product_graph([path_graph(3)])
    assert lone.labels == path_graph(3).labels
    assert np.array_equal(lone.distances, path_graph(3).distances)


def bfs_row(neighbors, source):
    """Reference: one plain breadth-first search."""
    dist = np.full(len(neighbors), -1, dtype=np.int32)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.mark.parametrize("build", [
    lambda: tree_ball(3, 3).graph,
    lambda: product_graph([tree_ball(2, 2).graph, path_graph(3)]),
    lambda: attach_ray(product_graph([tree_ball(2, 1).graph] * 2), 0, 6)[0],
    lambda: cayley_ball(3),
    lambda: coset_tree(2),
])
def test_all_pairs_bfs_matches_per_source_bfs(build):
    g = build()
    ref = np.vstack([bfs_row(g.neighbors, s) for s in range(g.size)])
    got = medgraph._all_pairs_bfs(g.neighbors)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref)
    assert np.array_equal(g.distances, ref)
    sources = [g.size - 1, 0, 2]
    assert np.array_equal(medgraph._all_pairs_bfs(g.neighbors, sources), ref[sources])


def test_supplied_distances_are_spot_checked():
    g = product_graph([tree_ball(2, 1).graph] * 2)
    wrong = g.distances.copy()
    wrong[0, 1] = wrong[1, 0] = 2
    with pytest.raises(StructureViolationError, match="from vertex 0"):
        graph_from_edges(g.labels, g.edges(), distances=wrong)


def test_size_guard_counts_distance_memory():
    # 98,302, 131,071 and 49,150 vertices need 36, 64 and 9 GiB
    with pytest.raises(SizeLimitError, match="GiB"):
        tree_ball(2, 15)
    with pytest.raises(SizeLimitError, match="GiB"):
        cayley_ball(8)
    with pytest.raises(SizeLimitError, match="GiB"):
        product_graph([tree_ball(2, 6).graph] * 2)
    with pytest.raises(SizeLimitError, match="9.0 GiB"):
        coset_tree(7)


def test_parity_witness():
    p = product_graph([tree_ball(2, 1).graph, tree_ball(2, 1).graph])
    signs = parity_witness(p)
    assert set(signs) == {1, -1}
    assert signs[0] == 1
    triangle = graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotBipartiteError):
        parity_witness(triangle)


def test_base_geodesic_and_meet():
    b = tree_ball(2, 2)
    g = b.graph
    # a ray vertex flows straight out along the ray
    assert base_geodesic(b, g.index("0")) == b.base_ray[1:]
    assert base_geodesic(b, b.root) == b.base_ray
    md = meet_data(b, g.index("1.0"), g.index("1.1"))
    assert (md.k0, md.m0) == (1, 1)
    assert meet_data(b, 3, 3) == meet_data(b, 3, 3)
    assert (meet_data(b, 3, 3).k0, meet_data(b, 3, 3).m0) == (0, 0)
    for x, y in itertools.combinations(range(g.size), 2):
        md = meet_data(b, x, y)
        assert md.k0 + md.m0 == g.distance(x, y)


# -- group ball and coset tree ----------------------------------------------


def test_cayley_ball_counts_and_oracle():
    assert cayley_ball(1).size == 7
    c = cayley_ball(2)
    assert c.size == 31
    assert cayley_ball(3).size == 127
    assert c.distance(c.index("a"), c.index("a2")) == 1
    assert c.distance(c.index("e"), c.index("ab")) == 2
    # BFS distances agree with word reduction on every pair
    for i, j in itertools.combinations(range(c.size), 2):
        assert c.distance(i, j) == word_distance(c.labels[i], c.labels[j])
    with pytest.raises(ValueError):
        cayley_ball(0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), max_size=5),
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), max_size=5),
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), max_size=5),
)
def test_word_distance_left_invariant(gw, xw, yw):
    from schurmult.medgraph import _word_label, _word_mul

    def build(ws):
        w = ()
        for f, e in ws:
            w = _word_mul(w, f, e)
        return w

    g, x, y = build(gw), build(xw), build(yw)

    def mul(a, b):
        out = a
        for f, e in b:
            out = _word_mul(out, f, e)
        return out

    d0 = word_distance(_word_label(x), _word_label(y))
    d1 = word_distance(_word_label(mul(g, x)), _word_label(mul(g, y)))
    assert d0 == d1
    assert d0 == word_distance(_word_label(y), _word_label(x))


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_coset_tree_distances_are_the_bfs_ones(radius):
    g = coset_tree(radius)
    bfs = medgraph._all_pairs_bfs(g.neighbors)
    assert g.distances.dtype == bfs.dtype
    assert np.array_equal(g.distances, bfs)


def test_coset_tree_structure():
    g = coset_tree(2)
    assert g.size == 46
    assert g.edge_count == 45
    assert coset_tree(1).size == 10
    depth = g.distances[g.index("e")]
    assert depth[g.index("a")] == 2
    assert depth[g.index("ab")] == 4
    assert depth[g.index("G1")] == 1
    assert depth[g.index("aG2")] == 3
    # words at even depth, cosets at odd
    for v in range(g.size):
        assert (depth[v] % 2 == 1) == ("G" in g.labels[v])


def test_serre_embedding():
    c = cayley_ball(2)
    emb = serre_embedding(c)
    assert emb.check
    tree = emb.tree
    pe, pa = emb.psi[c.index("e")], emb.psi[c.index("a")]
    assert tree.distance(pe, pa) == 2
    g1 = tree.index("G1")
    assert tree.distance(pe, g1) == 1 and tree.distance(pa, g1) == 1
    assert tree.distance(emb.psi[c.index("a")], emb.psi[c.index("a2")]) == 2
    assert len(set(emb.psi)) == c.size
    with pytest.raises(RadiusMismatchError):
        serre_embedding(c, coset_tree(1))


def test_serre_shift():
    tree = coset_tree(2)
    sh = serre_shift(tree)
    assert sh.image_label("e") == "G1"
    depth = tree.distances[tree.index("e")]
    is_word = ["G" not in s for s in tree.labels]
    shifted_words = set()
    for v in range(tree.size):
        j = sh.image[v]
        if j is None:
            # only boundary words can fall outside
            assert is_word[v] and depth[v] == depth.max()
            continue
        assert abs(int(depth[j]) - int(depth[v])) == 1
        assert is_word[v] != is_word[j]
        if is_word[v]:
            shifted_words.add(j)
    assert shifted_words == {v for v in range(tree.size) if not is_word[v]}


# -- median complexes -------------------------------------------------------


def test_median_complex_dimension_detection():
    assert glued(tree_ball(2, 2).graph).dimension == 1
    p2 = product_graph([tree_ball(2, 1).graph] * 2)
    assert glued(p2).dimension == 2
    p3 = product_graph([tree_ball(2, 1).graph] * 3)
    assert glued(p3).dimension == 3


def lshape_graph():
    """Three squares sharing edges in an L; median but not a product."""
    cells = [(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)]
    idx = {c: k for k, c in enumerate(cells)}
    edges = []
    for (i, j) in cells:
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if (ni, nj) in idx:
                edges.append((idx[(i, j)], idx[(ni, nj)]))
    return graph_from_edges([f"v{i}{j}" for i, j in cells], edges)


def test_median_complex_nonproduct_example():
    cx = glued(lshape_graph())
    assert cx.dimension == 2
    assert len(cx.cubes) == 3


def test_median_complex_rejects_non_median():
    triangle = graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotMedianError):
        glued(triangle, length=4)
    k23 = graph_from_edges(list("abcde"), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    with pytest.raises(NotMedianError):
        glued(k23, length=4)
    with pytest.raises(ValueError, match="geodesic"):
        median_complex(path_graph(4), (0, 2))


def reference_first_bad_triple(dist, triples):
    """Reference: the triple-interval check one triple at a time, in the given
    order; the first triple without exactly one median candidate, or None."""
    for x, y, z in triples:
        mask = ((dist[x] + dist[y] == dist[x, y]) & (dist[y] + dist[z] == dist[y, z])
                & (dist[z] + dist[x] == dist[z, x]))
        if mask.sum() != 1:
            return int(x), int(y), int(z)
    return None


def all_triples(n):
    return itertools.product(range(n), repeat=3)


def named_triple(message):
    """The vertices of a "triple (x,y,z) has no median" refusal."""
    head, _, _ = message.partition(" has no median")
    assert head.startswith("triple ("), message
    return tuple(int(v) for v in head[len("triple ("):-1].split(","))


def cycle(k):
    return graph_from_edges([f"c{i}" for i in range(k)], [(i, (i + 1) % k) for i in range(k)])


K23 = graph_from_edges(list("abcde"), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
C6 = cycle(6)
C200 = cycle(200)


@pytest.mark.parametrize("graph, seed, exhaustive", [
    pytest.param(K23, 7, False, id="graph0-7"),
    pytest.param(C6, 3, False, id="graph1-3"),
    pytest.param(C200, 7, False, id="graph2-7"),
    pytest.param(K23, 7, True, id="K23-exhaustive"),
    pytest.param(C6, 3, True, id="C6-exhaustive"),
    pytest.param(C200, 7, True, id="C200-exhaustive"),
])
def test_batched_median_check_names_the_first_bad_triple(graph, seed, exhaustive):
    # every graph here has a triple without a median.  Even cycles are partial
    # cubes, so they pass the hyperplane and isometry stages and the exact
    # closure check refuses them, naming a triple that the interval scan
    # confirms has no median (not the first in any order); the Djokovic cuts
    # of K2,3 overlap, so the hyperplane stage refuses it first.  Nothing is
    # sampled: the seed leaves the refusal as it is
    if exhaustive:
        assert reference_first_bad_triple(graph.distances, all_triples(graph.size)) is not None
    messages = set()
    for s in (seed, seed + 1):
        with pytest.raises(NotMedianError) as exc:
            median_complex(graph, (0, graph.neighbors[0][0]), seed=s)
        messages.add(str(exc.value))
    (message,) = messages
    if graph is K23:
        assert "meets another hyperplane" in message
    else:
        bad = named_triple(message)
        assert reference_first_bad_triple(graph.distances, [bad]) == bad


def test_batched_median_check_passes_median_graphs():
    g, ray = attach_ray(product_graph([tree_ball(2, 2).graph] * 2), 0, 6)
    triples = np.random.default_rng(5).integers(0, g.size, size=(3000, 3))
    assert reference_first_bad_triple(g.distances, triples) is None
    assert median_complex(g, ray, seed=5).dimension == 2
    g, ray = attach_ray(product_graph([tree_ball(2, 1).graph, path_graph(3)]), 0, 3)
    assert reference_first_bad_triple(g.distances, all_triples(g.size)) is None
    assert median_complex(g, ray).dimension == 2


CUBE = product_graph([path_graph(2, p) for p in "abc"])
SMALL_PARTIAL_CUBES = {
    "C4": cycle(4), "C6": C6, "C8": cycle(8), "C10": cycle(10), "Q3": CUBE,
    "Q3 minus a vertex": graph_from_edges(CUBE.labels[1:],
                                          [(u - 1, v - 1) for u, v in CUBE.edges() if u and v]),
    "C6xP2": product_graph([cycle(6), path_graph(2)]),
    "C6xT3(1)": product_graph([cycle(6), tree_ball(2, 1).graph]),
    "grid 3x4": product_graph([path_graph(3), path_graph(4, "q")]),
    "C4xC4": product_graph([cycle(4), cycle(4)]),
    "T3(2)xP3": product_graph([tree_ball(2, 2).graph, path_graph(3)]),
}


@pytest.mark.parametrize("with_ray", [False, True], ids=["bare", "ray"])
@pytest.mark.parametrize("name", list(SMALL_PARTIAL_CUBES))
def test_exact_closure_check_agrees_with_the_interval_scan(name, with_ray):
    g = SMALL_PARTIAL_CUBES[name]
    ray = (0, g.neighbors[0][0])
    if with_ray:
        g, ray = attach_ray(g, 0, 3)
    bad = reference_first_bad_triple(g.distances, all_triples(g.size))
    if bad is None:
        median_complex(g, ray)
        return
    with pytest.raises(NotMedianError) as exc:
        median_complex(g, ray)
    named = named_triple(str(exc.value))
    assert reference_first_bad_triple(g.distances, [named]) == named


def test_exact_closure_check_refuses_a_partial_cube_the_samples_passed():
    # T3(3)^2 with a ray, and a 6-cycle hung off vertex 5 by one edge: a
    # partial cube of 524 vertices whose triples without a median all take
    # two or three cycle vertices, so a sample of 100,000 random triples can
    # miss them all (at seeds 1 and 10 it does)
    g, ray = attach_ray(product_graph([tree_ball(2, 3).graph] * 2), 0, 34)
    n = g.size
    edges = list(g.edges()) + [(5, n)] + [(n + i, n + (i + 1) % 6) for i in range(6)]
    g = graph_from_edges(g.labels + tuple(f"h{i}" for i in range(6)), edges)
    assert g.size == 524
    for seed in (1, 10):
        with pytest.raises(NotMedianError) as exc:
            median_complex(g, ray, seed=seed)
        bad = named_triple(str(exc.value))
        assert reference_first_bad_triple(g.distances, [bad]) == bad


def test_median_examples():
    b = tree_ball(2, 2)
    cx = glued(b.graph)
    g = cx.graph
    leaves = [b.graph.index(s) for s in ("0.0", "1.0", "2.1")]
    assert median(cx, *leaves) == b.root
    for x in range(0, b.graph.size, 3):
        for y in range(0, b.graph.size, 4):
            assert median(cx, x, x, y) == x

    sq = glued(product_graph([tree_ball(2, 1).graph] * 2), length=6)
    i = sq.graph.index
    assert median(sq, i("0|o"), i("o|0"), i("0|0")) == i("0|0")
    assert median(sq, i("0|o"), i("o|0"), i("o|o")) == i("o|o")

    # index arrays: one batched pass, equal to the scalar calls and to the
    # three pairwise intervals intersected directly
    for c in (cx, sq):
        xs, ys, zs = np.random.default_rng(2).integers(0, c.graph.size, size=(3, 500))
        got = median(c, xs, ys, zs)
        assert got.tolist() == [median(c, int(x), int(y), int(z)) for x, y, z in zip(xs, ys, zs)]
        d = c.graph.distances
        inside = ((d[xs] + d[ys] == d[xs, ys, None]) & (d[ys] + d[zs] == d[ys, zs, None])
                  & (d[zs] + d[xs] == d[zs, xs, None]))
        assert (inside.sum(axis=1) == 1).all()
        assert np.array_equal(inside.argmax(axis=1), got)


def test_scalar_median_calls_cache_nothing():
    cx = glued(product_graph([tree_ball(2, 2).graph] * 2))
    before = len(cx._cache)
    rng = np.random.default_rng(3)
    for x, y, z in rng.integers(0, cx.graph.size, size=(1000, 3)).tolist():
        median(cx, x, y, z)
    assert len(cx._cache) == before


def interval_medians(dist, x, y, z):
    """Reference: the one vertex in all three pairwise intervals, per triple."""
    inside = ((dist[x] + dist[y] == dist[x, y, None]) & (dist[y] + dist[z] == dist[y, z, None])
              & (dist[z] + dist[x] == dist[z, x, None]))
    assert (inside.sum(axis=1) == 1).all()
    return inside.argmax(axis=1)


SMALL_FACTORS = (tree_ball(2, 1).graph, tree_ball(2, 2).graph, tree_ball(3, 1).graph,
                 path_graph(2), path_graph(3), path_graph(4))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(SMALL_FACTORS), min_size=1, max_size=3)
       .filter(lambda fs: np.prod([f.size for f in fs]) <= 120),
       st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_majority_medians_are_the_interval_medians(factors, length, seed):
    core = product_graph(factors)
    g, ray = attach_ray(core, 0, length)
    cx = median_complex(g, ray)
    d = g.distances
    xs, ys, zs = np.random.default_rng(seed).integers(0, g.size, size=(3, 300))
    want = interval_medians(d, xs, ys, zs)
    assert np.array_equal(median(cx, xs, ys, zs), want)
    triples = zip(xs[:40].tolist(), ys[:40].tolist(), zs[:40].tolist())
    assert [median(cx, x, y, z) for x, y, z in triples] == want[:40].tolist()
    # stable medians: the interval medians at both ends of the base ray
    table = stable_median_table(cx, range(core.size))
    x, y = np.indices(table.shape).reshape(2, -1)
    for end in cx.base_ray[-2:]:
        assert np.array_equal(interval_medians(d, x, y, np.full_like(x, end)), table.ravel())


def test_hyperplanes_cube_tree_grid():
    cube = product_graph([path_graph(2, p) for p in "abc"])
    cx = median_complex(cube, (0, 1))
    parts = hyperplanes(cx)
    assert len(parts) == 3
    assert sorted(len(p) for p in parts) == [4, 4, 4]
    assert cx.dimension == 3

    tb = glued(tree_ball(2, 2).graph)
    assert len(hyperplanes(tb)) == tb.graph.edge_count

    grid = product_graph([path_graph(3), path_graph(4, "q")])
    parts = hyperplanes(median_complex(grid, (0, 4)))
    assert len(parts) == 5
    assert sorted(len(p) for p in parts) == [3, 3, 3, 4, 4]


@pytest.mark.parametrize("factors, total", [
    pytest.param([tree_ball(2, 1).graph] * 3, 135, id="T3(1)^3"),
    pytest.param([tree_ball(2, 2).graph] * 2, 81, id="T3(2)^2"),
    pytest.param([tree_ball(2, 2).graph, tree_ball(2, 1).graph, path_graph(3)], 267,
                 id="T3(2)xT3(1)xpath(3)"),
])
def test_cube_counts_are_the_product_formula(factors, total):
    """A k-cube of a product of trees picks an edge in k factors and a vertex
    in the others, so there are sum_{|S|=k} prod_S e_i prod_{not S} v_j."""
    g, ray = attach_ray(product_graph(factors), 0, 8)
    cx = median_complex(g, ray)
    v = [f.size for f in factors]
    e = [f.edge_count for f in factors]
    want = Counter()
    for S in itertools.product((False, True), repeat=len(factors)):
        if sum(S) >= 2:
            want[sum(S)] += int(np.prod(np.where(S, e, v)))
    assert Counter(len(c).bit_length() - 1 for c in cx.cubes) == want
    assert sum(want.values()) == total
    # one hyperplane per factor edge and one per ray edge
    assert len(hyperplanes(cx)) == sum(e) + len(ray) - 1


def test_hyperplane_stage_rejects_what_the_sampled_median_check_passes():
    # K2,3 with a ray attached still has triples without a median, but its
    # Djokovic cuts overlap, and the hyperplane stage runs before the
    # majority-closure check
    g, ray = attach_ray(K23, 0, 4)
    assert reference_first_bad_triple(g.distances, all_triples(g.size)) is not None
    with pytest.raises(NotMedianError, match="meets another hyperplane"):
        median_complex(g, ray, seed=0)
    # with a hyperplane left out, some distance is no longer a crossing count
    g, ray = attach_ray(product_graph([path_graph(3), path_graph(3, "q")]), 0, 2)
    _, _, sides = medgraph._halfspaces(g)
    medgraph._check_isometry(g.distances, sides)
    with pytest.raises(NotMedianError, match="hyperplanes separating"):
        medgraph._check_isometry(g.distances, sides[:, 1:])


def test_stable_median():
    b = tree_ball(2, 2)
    # extend the tree's own base ray so both notions of "toward infinity" agree
    g, tail = attach_ray(b.graph, b.base_ray[-1], 8)
    cx = median_complex(g, b.base_ray + tail[1:])
    for x in range(b.graph.size):
        assert stable_median(cx, x, x) == x
    # tree stable medians match the meet of the base geodesics
    for x, y in itertools.combinations(range(b.graph.size), 2):
        px = base_geodesic(b, x)
        md = meet_data(b, x, y)
        assert stable_median(cx, x, y) == px[md.k0]

    sq = glued(product_graph([tree_ball(2, 1).graph] * 2), length=6)
    i = sq.graph.index
    assert stable_median(sq, i("0|o"), i("o|0")) == i("o|o")
    with pytest.raises(RayTooShortError):
        stable_median(cx, cx.base_ray[-1], 0)


def test_stable_median_table():
    p2 = product_graph([tree_ball(2, 1).graph] * 2)
    cx = glued(p2)
    table = stable_median_table(cx, range(p2.size))
    for x, y in itertools.product(range(p2.size), repeat=2):
        assert table[x, y] == stable_median(cx, x, y)
    with pytest.raises(RayTooShortError):
        stable_median_table(cx)  # ray-end pairs never stabilize


def test_ray_set():
    b = tree_ball(2, 2)
    cx = glued(b.graph)
    for x in range(b.graph.size):
        assert ray_set(cx, x, 0) == frozenset([x])
        for k in range(1, 5):
            assert len(ray_set(cx, x, k)) == 1

    p2 = product_graph([tree_ball(2, 2).graph] * 2)
    cxp = glued(p2)
    for x in range(0, p2.size, 7):
        for k in range(5):
            assert len(ray_set(cxp, x, k)) <= k + 1

    with pytest.raises(RayTooShortError, match="usable radius"):
        ray_set(cx, 0, 5)
    with pytest.raises(RayTooShortError):
        ray_set(cx, cx.base_ray[-1], 1)  # ray never escapes its own endpoint
    # internal ray too short to stabilize
    short = median_complex(b.graph, b.base_ray)
    with pytest.raises(RayTooShortError):
        ray_set(short, b.base_ray[-2], 1)


def test_ray_set_refusals_name_the_first_failing_pair(monkeypatch):
    # a 5 x 3 grid with its bottom row as the base ray: from the middle of the
    # top row, two steps reach the far corner, inside the interval to the
    # ray's end but not to the vertex before it
    grid = product_graph([path_graph(5), path_graph(3, "q")])
    ray = [grid.index(f"p{i}|q0") for i in range(5)]
    cx = median_complex(grid, ray)
    x, end = grid.index("p2|q2"), ray[-1]
    assert ray_set(cx, x, 1) == {grid.index("p2|q1"), grid.index("p3|q2")}
    moved = rf"ray set \({x},2\) not stabilized at the ray end"
    for view in (ray_set, polytopes, mizuta_vectors):
        with pytest.raises(RayTooShortError, match=moved):
            view(cx, x, 2)
    with pytest.raises(RayTooShortError, match=rf"base ray has not escaped vertex {end}$"):
        ray_set(cx, end, 0)
    # x-major: all of x's levels come before the next vertex
    with pytest.raises(RayTooShortError, match=moved):
        medgraph._ray_masks(cx, [x, end], [0, 1, 2])
    with pytest.raises(RayTooShortError, match="not escaped"):
        medgraph._ray_masks(cx, [end, x], [0, 1, 2])

    monkeypatch.setattr(medgraph, "polytope_budget", lambda dimension: 0)
    with pytest.raises(StructureViolationError, match=r"^polytope count 3 exceeds bound 0$"):
        polytopes(cx, x, 1)
    with pytest.raises(StructureViolationError, match=r"^vector weight 3 exceeds bound 0$"):
        mizuta_vectors(cx, x, 1)
    monkeypatch.setattr(medgraph, "binomial", lambda n, k: 1)
    with pytest.raises(StructureViolationError,
                       match=rf"^\|ray set\({x},1\)\| = 2 exceeds the simplex count 1$"):
        ray_set(cx, x, 1)


def test_polytopes_tree_and_chains():
    cx = glued(tree_ball(2, 2).graph)
    rep = polytopes(cx, 5, 3)
    assert all(p.level == 0 for p in rep.polys)
    assert len(rep.polys) == 1
    (y,) = ray_set(cx, 5, 3)
    assert rep.predecessors[(y, 0)] == frozenset([y])


def test_polytopes_product_counts():
    p2 = product_graph([tree_ball(2, 2).graph] * 2)
    cx = glued(p2)
    corner = p2.index("0.0|0.0")
    rep = polytopes(cx, corner, 2)
    members = ray_set(cx, corner, 2)
    by_level = {}
    for p in rep.polys:
        by_level.setdefault(p.level, []).append(p)
    assert len(by_level[0]) == len(members)
    # brute-force scan: level-1 polytopes inside A are exactly the square
    # diagonals with both ends in A
    dist = cx.graph.distances
    nbr = [set(ns) for ns in cx.graph.neighbors]
    diagonals = set()
    for u, v in itertools.combinations(sorted(members), 2):
        if dist[u, v] == 2 and len(nbr[u] & nbr[v]) == 2:
            diagonals.add(frozenset((u, v)))
    assert {p.vertices for p in by_level.get(1, [])} == diagonals
    for (y, i), back in rep.predecessors.items():
        assert len(back) <= cx.dimension**i
        if i == 0:
            assert back == frozenset([y])


def test_polytopes_three_factor_levels():
    p3 = product_graph([tree_ball(2, 1).graph] * 3)
    cx = glued(p3)
    corner = p3.index("0|0|0")
    rep = polytopes(cx, corner, 2)
    counts = {}
    for p in rep.polys:
        counts[p.level] = counts.get(p.level, 0) + 1
    # middle slice of the corner-to-root cube: three vertices, three
    # diagonals, one triangle
    assert counts == {0: 3, 1: 3, 2: 1}


def reference_ray_set(dist, ray_end, x, k):
    """Brute force: the vertices at distance k from x in the interval from x
    to the ray end."""
    return frozenset(v for v in range(len(dist))
                     if dist[x, v] == k and dist[x, v] + dist[v, ray_end] == dist[x, ray_end])


def reference_slices(cx):
    """Brute force: every (level, vertex set) slice of every cube by distance
    from each of its corners."""
    dist = cx.graph.distances
    out = set()
    for fs in cx.cubes:
        level = len(fs).bit_length() - 2
        for w in fs:
            for j in range(1, level + 1):
                out.add((level, frozenset(v for v in fs if dist[w, v] == j)))
    return out


@pytest.mark.parametrize("graph, core", [
    (tree_ball(2, 2).graph, 10),
    (product_graph([tree_ball(2, 2).graph] * 2), 100),
    (product_graph([tree_ball(2, 1).graph] * 3), 64),
    (lshape_graph(), 8),
], ids=["T3(2)", "T3(2)^2", "T3(1)^3", "L-shape"])
def test_ray_sets_and_polytopes_match_brute_force_scans(graph, core):
    cx = glued(graph)
    dist, end = cx.graph.distances, cx.base_ray[-1]
    slices = reference_slices(cx)
    for x in range(core):
        for k in range(4):
            members = reference_ray_set(dist, end, x, k)
            assert ray_set(cx, x, k) == members
            rep = polytopes(cx, x, k)
            want = {(0, frozenset([v])) for v in members}
            want |= {(level, fs) for level, fs in slices if fs <= members}
            got = [(p.level, p.vertices) for p in rep.polys]
            assert len(got) == len(set(got)) and set(got) == want
            chains = {}
            for i in range(min(cx.dimension - 1, k) + 1):
                sources = reference_ray_set(dist, end, x, k - i)
                for y in members:
                    chains[(y, i)] = frozenset(
                        w for w in sources if y in reference_ray_set(dist, end, w, i))
            assert rep.predecessors == chains
    assert list(cx._cache) == ["polytopes"]   # the one table, built once


def test_mizuta_vectors_tree_degeneration():
    b = tree_ball(2, 2)
    cx = glued(b.graph)
    v = mizuta_vectors(cx, 5, 2)
    assert v.norm_sq == 1
    assert v.unsigned == v.alternating
    (gid,) = v.unsigned
    assert gid < cx.graph.size  # a single 0-polytope
    # orthogonality across k
    w = mizuta_vectors(cx, 5, 3)
    assert pairing(v.unsigned, w.unsigned) == 0


def test_mizuta_indicator_identity_small():
    p2 = product_graph([tree_ball(2, 1).graph] * 2)
    core = p2.size
    cx = glued(p2)
    table = stable_median_table(cx, range(core))
    dist = cx.graph.distances
    for x1, x2 in itertools.product(range(core), repeat=2):
        m = table[x1, x2]
        l1, l2 = dist[x1, m], dist[x2, m]
        for k1, k2 in itertools.product(range(4), repeat=2):
            got = pairing(
                mizuta_vectors(cx, x1, k1).unsigned,
                mizuta_vectors(cx, x2, k2).alternating,
            )
            want = 1 if (k1 - l1 == k2 - l2 and k1 >= l1) else 0
            assert got == want
    # the k1 < l1 corner in particular
    x1, x2 = p2.index("0|0"), p2.index("1|1")
    m = table[x1, x2]
    assert dist[x1, m] > 0
    assert pairing(mizuta_vectors(cx, x1, 0).unsigned,
                   mizuta_vectors(cx, x2, int(dist[x2, m])).alternating) == 0


def test_mizuta_indicator_identity_radius_three():
    # all pairs in the product of two radius-3 balls, k up to 3, as one exact
    # product of the polytope tables: every entry is a small integer sum
    b = tree_ball(2, 3)
    p2 = product_graph([b.graph] * 2)
    core = p2.size
    g, ray = attach_ray(p2, 0, 10)
    cx = median_complex(g, ray)
    inside, level = medgraph._polytopes_in(cx, range(core), range(4))
    alternating = np.where(level % 2, -1, 1) * inside
    for x, k in [(0, 0), (5, 1), (200, 2), (core - 1, 3)]:
        vec = mizuta_vectors(cx, x, k)
        assert vec.alternating == {p: alternating[x, k, p] for p in np.flatnonzero(inside[x, k])}
    got = (inside.reshape(4 * core, -1).astype(float)
           @ alternating.reshape(4 * core, -1).T.astype(float)).reshape(core, 4, core, 4)

    table = stable_median_table(cx, range(core))
    dist = cx.graph.distances
    l1 = dist[np.arange(core)[:, None], table]   # (x1, x2)
    l2 = l1.T
    k = np.arange(4)
    k1, k2 = k[None, :, None, None], k[None, None, None, :]
    l1, l2 = l1[:, None, :, None], l2[:, None, :, None]
    want = (k1 - l1 == k2 - l2) & (k1 >= l1)
    assert np.array_equal(got, want)
