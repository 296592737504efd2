"""Finite graphs for multiplier experiments.

Tree balls, graph products, the ball of the six-generator free-product group
with its coset tree, and median graphs with their cube combinatorics: cube and
hyperplane enumeration, base-ray sets, polytope slices, and the signed
indicator vectors built from them.

Everything is finite and immutable after build.  Infinite rays from the
underlying constructions become finite base rays; any quantity that depends on
"far enough along the ray" demands stabilization over the deepest samples and
raises RayTooShortError instead of guessing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    NotBipartiteError,
    NotMedianError,
    RadiusMismatchError,
    RayTooShortError,
    SizeLimitError,
    StructureViolationError,
)
from .symbols import binomial

__all__ = [
    "FiniteGraph",
    "TreeBall",
    "MedianComplex",
    "Polytope",
    "PolytopeReport",
    "MizutaVectors",
    "MeetData",
    "SerreEmbedding",
    "SerreShift",
    "graph_from_edges",
    "tree_ball",
    "product_graph",
    "attach_ray",
    "parity_witness",
    "base_geodesic",
    "meet_data",
    "cayley_ball",
    "word_distance",
    "coset_tree",
    "serre_embedding",
    "serre_shift",
    "median_complex",
    "median",
    "hyperplanes",
    "stable_median",
    "stable_median_table",
    "ray_set",
    "polytopes",
    "polytope_budget",
    "mizuta_vectors",
    "pairing",
]


# ---------------------------------------------------------------------------
# plain graphs


@dataclass(frozen=True, eq=False)
class FiniteGraph:
    """An undirected connected graph with cached all-pairs hop distances."""

    labels: Tuple[str, ...]
    neighbors: Tuple[Tuple[int, ...], ...]
    distances: np.ndarray = field(repr=False)
    _index: Dict[str, int] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.neighbors) // 2

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"no vertex labelled {label!r}") from None

    def distance(self, x: int, y: int) -> int:
        return int(self.distances[x, y])

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        out = []
        for u, ns in enumerate(self.neighbors):
            out.extend((u, v) for v in ns if u < v)
        return tuple(out)


# the dense int32 distance matrix is the one O(n^2) structure every graph
# keeps; builds whose matrix would pass this many bytes are refused up front
_MAX_DIST_BYTES = 1 << 30
# bytes per temporary of a blocked pass: the boolean (sources x n x degree)
# neighbour gather of a BFS block, the float32 (rows x n) crossing counts of
# an isometry block
_BLOCK_BYTES = 1 << 22


def _check_dist_size(n: int, what: str):
    need = 4 * n * n
    if need > _MAX_DIST_BYTES:
        raise SizeLimitError(
            f"{what} would have {n} vertices; its distance matrix needs "
            f"{need / 2**30:.1f} GiB > {_MAX_DIST_BYTES / 2**30:.0f} GiB"
        )


def _all_pairs_bfs(neighbors: Sequence[Sequence[int]], sources=None) -> np.ndarray:
    """Hop distances from each source (default: every vertex), -1 if unreached.

    All sources of a block advance one BFS level per step: a vertex joins the
    next frontier when one of its neighbours is on the current one.  Neighbour
    lists are padded with index n, whose frontier column is always False.
    """
    n = len(neighbors)
    sources = np.arange(n) if sources is None else np.asarray(sources, dtype=np.intp)
    lengths = np.fromiter(map(len, neighbors), dtype=np.intp, count=n)
    degree = int(lengths.max(initial=0))
    padded = np.full((n, degree), n, dtype=np.intp)
    padded[np.arange(degree) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(neighbors), dtype=np.intp, count=int(lengths.sum())
    )
    dist = np.full((len(sources), n), -1, dtype=np.int32)
    block = max(1, _BLOCK_BYTES // max(1, n * degree))
    for lo in range(0, len(sources), block):
        batch = sources[lo : lo + block]
        out = dist[lo : lo + len(batch)]
        frontier = np.zeros((len(batch), n + 1), dtype=bool)
        frontier[np.arange(len(batch)), batch] = True
        seen = frontier[:, :n].copy()
        out[seen] = 0
        for level in itertools.count(1):
            reached = frontier[:, padded].any(axis=2) & ~seen
            if not reached.any():
                break
            out[reached] = level
            seen |= reached
            frontier[:, :n] = reached
    return dist


def graph_from_edges(labels, edges, distances=None) -> FiniteGraph:
    """Build a FiniteGraph from an edge list.

    Distances come from breadth-first search unless a precomputed matrix is
    supplied (products know theirs in closed form); supplied matrices are
    spot-verified against BFS from a spread of sources.
    """
    labels = tuple(str(s) for s in labels)
    n = len(labels)
    _check_dist_size(n, "graph")
    if len(set(labels)) != n:
        raise ValueError("vertex labels must be distinct")
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbr[u].add(v)
        nbr[v].add(u)
    neighbors = tuple(tuple(sorted(s)) for s in nbr)

    if distances is None:
        dist = _all_pairs_bfs(neighbors)
    else:
        dist = np.asarray(distances, dtype=np.int32)
        if dist.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        sources = np.arange(0, n, max(1, n // 8))
        wrong = (_all_pairs_bfs(neighbors, sources) != dist[sources]).any(axis=1)
        if wrong.any():
            raise StructureViolationError(
                f"supplied distances disagree with BFS from vertex {sources[wrong.argmax()]}"
            )
    if (dist < 0).any():
        raise ValueError("graph is not connected")
    if not np.array_equal(dist, dist.T):
        raise StructureViolationError("distance matrix is not symmetric")
    # sampled min-plus triangle check; BFS rows satisfy it by construction
    for k in range(0, n, max(1, n // 4)):
        if (dist[:, [k]] + dist[[k], :] < dist).any():
            raise StructureViolationError(f"triangle inequality fails through {k}")
    return FiniteGraph(labels, neighbors, dist)


# ---------------------------------------------------------------------------
# tree balls and products


@dataclass(frozen=True, eq=False)
class TreeBall:
    """Radius-R ball of the homogeneous tree with branching q (degree q+1).

    `base_ray` is the designated root-to-boundary geodesic standing in for the
    infinite ray of the ambient tree.
    """

    graph: FiniteGraph
    branching: int
    radius: int
    root: int
    base_ray: Tuple[int, ...]


def tree_ball(branching: int, radius: int) -> TreeBall:
    """Ball of the (branching+1)-homogeneous tree, deterministic labels."""
    q, R = branching, radius
    if q < 2:
        raise ValueError(f"branching must be >= 2, got {q}")
    if R < 1:
        raise ValueError(f"radius must be >= 1, got {R}")
    count = 1 + (q + 1) * (q**R - 1) // (q - 1)
    _check_dist_size(count, "tree ball")

    labels = ["o"]
    parents = [-1]
    frontier = [0]
    for depth in range(R):
        nxt = []
        for u in frontier:
            width = q + 1 if depth == 0 else q
            for c in range(width):
                labels.append(f"{labels[u]}.{c}" if depth else str(c))
                parents.append(u)
                nxt.append(len(labels) - 1)
        frontier = nxt
    edges = [(parents[v], v) for v in range(1, len(labels))]
    graph = graph_from_edges(labels, edges)

    if graph.size != count or graph.edge_count != count - 1:
        raise StructureViolationError("tree ball size/acyclicity check failed")
    depth_row = graph.distances[0]
    for v in range(graph.size):
        deg = len(graph.neighbors[v])
        if depth_row[v] < R and deg != q + 1:
            raise StructureViolationError(f"interior vertex {v} has degree {deg}")
    ray = [graph.index("o")] + [graph.index("0" + ".0" * (t - 1)) for t in range(1, R + 1)]
    for i, j in itertools.combinations(range(R + 1), 2):
        if graph.distance(ray[i], ray[j]) != j - i:
            raise StructureViolationError("base ray is not a geodesic")
    return TreeBall(graph, q, R, 0, tuple(ray))


def product_graph(factors: Sequence[FiniteGraph]) -> FiniteGraph:
    """Direct product with one-coordinate adjacency; distances are additive."""
    if not factors:
        raise ValueError("product needs at least one factor")
    sizes = [g.size for g in factors]
    _check_dist_size(math.prod(sizes), "product")

    tuples = list(itertools.product(*[range(s) for s in sizes]))
    flat = {t: i for i, t in enumerate(tuples)}
    labels = ["|".join(g.labels[c] for g, c in zip(factors, t)) for t in tuples]
    edges = []
    for t, i in flat.items():
        for axis, g in enumerate(factors):
            for v in g.neighbors[t[axis]]:
                if v > t[axis]:
                    edges.append((i, flat[t[:axis] + (v,) + t[axis + 1 :]]))

    dist = factors[0].distances
    for g in factors[1:]:
        m = g.size
        k = dist.shape[0]
        dist = (dist[:, None, :, None] + g.distances[None, :, None, :]).reshape(k * m, k * m)
    return graph_from_edges(labels, edges, distances=dist)


def attach_ray(graph: FiniteGraph, at: int, length: int, prefix: str = "r"):
    """Glue a fresh path of `length` vertices at a vertex.

    Returns the extended graph and the ray (at, new_1, ..., new_length) as
    vertex indices.  Gluing a ray preserves the median property and the
    dimension, so this is the standard way to give a complex a long base ray.
    """
    if length < 1:
        raise ValueError("ray length must be >= 1")
    n = graph.size
    new_labels = [f"{prefix}{t}" for t in range(1, length + 1)]
    if set(new_labels) & set(graph.labels):
        raise ValueError(f"ray labels {prefix}* collide with existing vertices")
    _check_dist_size(n + length, "graph with ray")
    labels = graph.labels + tuple(new_labels)
    edges = list(graph.edges())
    edges.append((at, n))
    edges.extend((n + t - 1, n + t) for t in range(1, length))

    dist = np.full((n + length, n + length), -1, dtype=np.int32)
    dist[:n, :n] = graph.distances
    for t in range(1, length + 1):
        dist[n + t - 1, :n] = graph.distances[at] + t
        dist[:n, n + t - 1] = dist[n + t - 1, :n]
        for s in range(1, length + 1):
            dist[n + t - 1, n + s - 1] = abs(t - s)
    out = graph_from_edges(labels, edges, distances=dist)
    return out, (at,) + tuple(range(n, n + length))


def parity_witness(graph: FiniteGraph, x0: int = 0) -> Tuple[int, ...]:
    """Signs (-1)^d(x, x0), checked to split every edge and every pair."""
    row = graph.distances[x0]
    signs = np.where(row % 2 == 0, 1, -1)
    for u, ns in enumerate(graph.neighbors):
        for v in ns:
            if signs[u] == signs[v]:
                raise NotBipartiteError(
                    f"edge ({u},{v}) joins vertices of equal parity; odd cycle present"
                )
    if not np.array_equal(np.outer(signs, signs), np.where(graph.distances % 2 == 0, 1, -1)):
        raise NotBipartiteError("parity product identity fails on some pair")
    return tuple(int(s) for s in signs)


# ---------------------------------------------------------------------------
# base geodesics on tree balls


@dataclass(frozen=True)
class MeetData:
    """First indices at which two base geodesics meet; their sum is d(x,y)."""

    k0: int
    m0: int


def base_geodesic(ball: TreeBall, x: int) -> Tuple[int, ...]:
    """The geodesic from x that merges into the base ray, up to the boundary.

    Runs from x to the meeting point with the base ray, then outward along the
    ray; in the ambient tree it would continue forever.
    """
    graph = ball.graph
    target = ball.base_ray[-1]
    path = [x]
    cur = x
    while cur != target:
        down = [v for v in graph.neighbors[cur] if graph.distances[v, target] == graph.distances[cur, target] - 1]
        if len(down) != 1:
            raise StructureViolationError(f"non-unique descent at vertex {cur}")
        cur = down[0]
        path.append(cur)
    return tuple(path)


def meet_data(ball: TreeBall, x: int, y: int) -> MeetData:
    """Where the base geodesics of x and y first meet each other."""
    px = base_geodesic(ball, x)
    py = base_geodesic(ball, y)
    in_py = set(py)
    k0 = next(k for k, v in enumerate(px) if v in in_py)
    in_px = set(px)
    m0 = next(m for m, v in enumerate(py) if v in in_px)
    if k0 + m0 != ball.graph.distance(x, y):
        raise StructureViolationError("meet indices do not sum to the distance")
    # beyond the meet the two geodesics coincide
    for j in range(len(px) - k0):
        if px[k0 + j] != py[m0 + j]:
            raise StructureViolationError("geodesics diverge after meeting")
    return MeetData(k0, m0)


# ---------------------------------------------------------------------------
# the free-product ball and its coset tree

_LETTERS = "abc"


def _word_label(word) -> str:
    if not word:
        return "e"
    return "".join(_LETTERS[f] + ("2" if e == 2 else "") for f, e in word)


def _parse_word(label: str):
    if label == "e":
        return ()
    word = []
    i = 0
    while i < len(label):
        f = _LETTERS.index(label[i])
        e = 1
        if i + 1 < len(label) and label[i + 1] == "2":
            e = 2
            i += 1
        word.append((f, e))
        i += 1
    return tuple(word)


def _word_mul(word, f: int, e: int):
    """Right-multiply a reduced word by one generator and re-reduce."""
    if word and word[-1][0] == f:
        ne = (word[-1][1] + e) % 3
        if ne == 0:
            return word[:-1]
        return word[:-1] + ((f, ne),)
    return word + ((f, e),)


def _word_inverse(word):
    return tuple((f, 3 - e) for f, e in reversed(word))


def word_distance(x_label: str, y_label: str) -> int:
    """Syllable length of x^{-1} y: the group-word oracle for ball distances."""
    word = _word_inverse(_parse_word(x_label))
    for f, e in _parse_word(y_label):
        word = _word_mul(word, f, e)
    return len(word)


def cayley_ball(radius: int) -> FiniteGraph:
    """Radius-R ball of the rank-three free product of order-3 cyclic groups.

    Vertices are reduced alternating words over the six generators; edges join
    words differing by one generator after reduction, so two nontrivial powers
    of the same factor are adjacent.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    count = 1 + 2 * (4**radius - 1)
    _check_dist_size(count, "Cayley ball")

    words = [()]
    seen = {(): 0}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for f in range(3):
                for e in (1, 2):
                    u = _word_mul(w, f, e)
                    if u not in seen and len(u) > len(w):
                        seen[u] = len(words)
                        words.append(u)
                        nxt.append(u)
        frontier = nxt
    if len(words) != count:
        raise StructureViolationError("word enumeration missed the closed-form count")

    edges = set()
    for w, i in seen.items():
        for f in range(3):
            for e in (1, 2):
                u = _word_mul(w, f, e)
                j = seen.get(u)
                if j is not None and j != i:
                    edges.add((min(i, j), max(i, j)))
    return graph_from_edges([_word_label(w) for w in words], sorted(edges))


def _tree_distances(parent: Sequence[int]) -> np.ndarray:
    """Hop distances of the tree given by each vertex's parent (-1 at the root).

    Moving from a vertex's parent to the vertex is one step away from every
    vertex outside its subtree and one step towards every vertex inside it,
    so each row is its parent's row plus 1, minus 2 on the subtree, which is
    one slice of a depth-first order.  This is depth(x) + depth(y) -
    2 depth(meet) without forming the meets.
    """
    n = len(parent)
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    order, stack = [], [parent.index(-1)]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    if len(order) != n:
        raise StructureViolationError("parent links do not form one tree")
    start = np.empty(n, dtype=np.intp)
    start[order] = np.arange(n)
    size = np.ones(n, dtype=np.intp)
    depth = np.zeros(n, dtype=np.int32)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    order = np.array(order)
    dist = np.empty((n, n), dtype=np.int32)
    dist[order[0]] = depth
    for v in order[1:]:
        np.add(dist[parent[v]], 1, out=dist[v])
        dist[v, order[start[v]: start[v] + size[v]]] -= 2
    return dist


def coset_tree(radius: int) -> FiniteGraph:
    """The coset tree over the radius-R ball: group words plus proper cosets.

    Words of length <= R sit at even depth 2*len; a coset vertex g*<factor i>
    (label like "aG2") hangs between g and its two extensions by factor i.
    The result is the full radius-2R ball of the 3-homogeneous tree.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    count = 1 + 3 * (2 ** (2 * radius) - 1)
    _check_dist_size(count, "coset tree")

    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for f in range(3):
                for e in (1, 2):
                    u = _word_mul(w, f, e)
                    if len(u) > len(w):
                        nxt.append(u)
        words.extend(nxt)
        frontier = nxt

    labels = [_word_label(w) for w in words]
    index = {w: i for i, w in enumerate(words)}
    parent = [-1] * count   # towards e
    edges = []
    for w in words:
        if len(w) > radius - 1:
            continue
        for f in range(3):
            if w and w[-1][0] == f:
                continue  # not a canonical coset representative
            rep = _word_label(w)
            labels.append(("" if rep == "e" else rep) + f"G{f + 1}")
            coset = len(labels) - 1
            parent[coset] = index[w]
            for member in (w, _word_mul(w, f, 1), _word_mul(w, f, 2)):
                edges.append((index[member], coset))
                if member != w:
                    parent[index[member]] = coset
    graph = graph_from_edges(labels, edges, _tree_distances(parent))
    if graph.size != count or graph.edge_count != count - 1:
        raise StructureViolationError("coset tree is not the expected tree ball")
    return graph


@dataclass(frozen=True, eq=False)
class SerreEmbedding:
    """Word vertices of the ball inside the coset tree, with distance doubling."""

    tree: FiniteGraph
    psi: Tuple[int, ...]
    check: bool


def serre_embedding(cayley: FiniteGraph, tree: Optional[FiniteGraph] = None) -> SerreEmbedding:
    """Embed the group ball into the coset tree and verify both claims:
    distances double exactly, and interior tree vertices have degree 3."""
    root = cayley.index("e")
    radius = int(cayley.distances[root].max())
    if tree is None:
        tree = coset_tree(radius)
    troot = tree.index("e")
    if int(tree.distances[troot].max()) < 2 * radius:
        raise RadiusMismatchError("coset tree too shallow for this ball")
    try:
        psi = tuple(tree.index(s) for s in cayley.labels)
    except ValueError as exc:
        raise RadiusMismatchError(str(exc)) from exc

    sub = tree.distances[np.ix_(psi, psi)]
    doubled = bool(np.array_equal(sub, 2 * cayley.distances))
    depth = tree.distances[troot]
    interior = all(
        len(tree.neighbors[v]) == 3 for v in range(tree.size) if depth[v] < 2 * radius
    )
    return SerreEmbedding(tree, psi, doubled and interior)


def _token_weight(word) -> int:
    return sum(abs(t[1]) if t[0] == "s" else 1 for t in word)


def _token_right(word, gen):
    """Right-multiply a reduced token word by s, s^{-1} or t."""
    if gen == "t":
        if word and word[-1][0] == "t":
            return word[:-1]
        return word + (("t",),)
    step = 1 if gen == "s" else -1
    if word and word[-1][0] == "s":
        k = word[-1][1] + step
        if k == 0:
            return word[:-1]
        return word[:-1] + (("s", k),)
    return word + (("s", step),)


def _token_left_s(word):
    """Left-multiply by s: the shift automorphism in the rank-one model."""
    if word and word[0][0] == "s":
        k = word[0][1] + 1
        if k == 0:
            return word[1:]
        return (("s", k),) + word[1:]
    return (("s", 1),) + word


@dataclass(frozen=True, eq=False)
class SerreShift:
    """Partial automorphism of the coset tree swapping words and cosets.

    `image[v]` is the shifted vertex, or None where the shift leaves the ball.
    Every defined image changes its distance to the root by exactly one, and
    the coset vertices are exactly the images of word vertices.
    """

    tree: FiniteGraph
    image: Tuple[Optional[int], ...]

    def image_label(self, label: str) -> Optional[str]:
        j = self.image[self.tree.index(label)]
        return None if j is None else self.tree.labels[j]


def serre_shift(tree: FiniteGraph) -> SerreShift:
    root = tree.index("e")
    depth = tree.distances[root]
    max_depth = int(depth.max())
    if max_depth % 2 != 0:
        raise RadiusMismatchError("coset tree ball has odd radius")

    # rigid rooted isomorphism onto the ball of the rank-one model Z * Z/2,
    # chosen so that the shift sends the root to the first coset vertex
    iso: Dict[int, tuple] = {root: ()}
    inv: Dict[tuple, int] = {(): root}
    first = sorted(tree.neighbors[root], key=lambda v: tree.labels[v])
    model_first = [(("s", 1),), (("s", -1),), (("t",),)]
    stack = list(zip(first, model_first, [root] * 3))
    for v, w, _ in stack:
        iso[v] = w
        inv[w] = v
    idx = 0
    while idx < len(stack):
        v, w, parent = stack[idx]
        idx += 1
        kids = sorted((u for u in tree.neighbors[v] if u != parent), key=lambda u: tree.labels[u])
        if _token_weight(w) >= max_depth:
            grown = []
        else:
            grown = sorted(
                u
                for g in ("s", "s-", "t")
                for u in [_token_right(w, g)]
                if _token_weight(u) > _token_weight(w)
            )
        if len(kids) != len(grown):
            raise StructureViolationError(f"vertex {tree.labels[v]} has {len(kids)} children, model has {len(grown)}")
        for u, wu in zip(kids, grown):
            iso[u] = wu
            inv[wu] = u
            stack.append((u, wu, v))

    image: list = [None] * tree.size
    for v, w in iso.items():
        shifted = _token_left_s(w)
        image[v] = inv.get(shifted)

    is_word = [("G" not in s) for s in tree.labels]
    coset_set = {v for v in range(tree.size) if not is_word[v]}
    shifted_words = set()
    for v in range(tree.size):
        j = image[v]
        if j is None:
            continue
        if abs(int(depth[j]) - int(depth[v])) != 1:
            raise StructureViolationError(f"shift moves {tree.labels[v]} by more than one level")
        if is_word[v] == is_word[j]:
            raise StructureViolationError("shift fails to swap words and cosets")
        if is_word[v]:
            shifted_words.add(j)
    if shifted_words != coset_set:
        raise StructureViolationError("cosets are not exactly the shifted words")
    return SerreShift(tree, tuple(image))


# ---------------------------------------------------------------------------
# median complexes


@dataclass(frozen=True, eq=False)
class _CodeTable:
    """Each vertex's row of the hyperplane side table packed into bytes (bit h
    is set when the vertex lies across hyperplane h from vertex 0), with a
    code -> vertex lookup: `keys` holds the codes in sorted order and
    `vertices` the vertex of each."""

    codes: np.ndarray
    keys: np.ndarray
    vertices: np.ndarray


def _keys(codes: np.ndarray) -> np.ndarray:
    """One sortable key per C-contiguous code along the last axis: its bytes."""
    return codes.view(np.dtype((np.void, codes.shape[-1])))[..., 0]


def _code_table(sides: np.ndarray) -> _CodeTable:
    codes = np.ascontiguousarray(np.packbits(sides, axis=1, bitorder="little"))
    keys = _keys(codes)
    order = np.argsort(keys)
    return _CodeTable(codes, keys[order], order)


def _majority(table: _CodeTable, x, y, z):
    """The vertex whose code is the coordinate-wise majority of the codes of
    x, y and z: in a partial cube, the one vertex that can lie in all three
    pairwise intervals.

    x, y, z are vertex indices or index arrays, which broadcast.  Raises
    NotMedianError for the first triple, in input order, whose majority is
    not a vertex.
    """
    a, b, c = table.codes[x], table.codes[y], table.codes[z]
    want = _keys((a & (b | c)) | (b & c))   # (a & b) | (b & c) | (a & c)
    pos = np.searchsorted(table.keys, want)
    miss = table.keys.take(pos, mode="clip") != want
    if miss.any():
        k = np.flatnonzero(miss)[0]
        x, y, z = (np.ravel(v)[k] for v in np.broadcast_arrays(x, y, z))
        raise NotMedianError(f"triple ({x},{y},{z}) has no median: its majority is not a vertex")
    return table.vertices[pos]


@dataclass(frozen=True, eq=False)
class MedianComplex:
    """A verified median graph with its cube skeleton and a base ray.

    `hyperplane_ids[k]` is the hyperplane class of `edge_list[k]`; `cubes`
    holds the vertex sets of all cubes of dimension >= 2; `codes` holds each
    vertex's sides of the hyperplanes, from which every median is read.
    `_cache` holds only the polytope table, built on first use.
    """

    graph: FiniteGraph
    base_ray: Tuple[int, ...]
    dimension: int
    edge_list: Tuple[Tuple[int, int], ...]
    hyperplane_ids: Tuple[int, ...]
    cubes: Tuple[FrozenSet[int], ...]
    codes: _CodeTable = field(repr=False)
    _cache: dict = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @property
    def usable_radius(self) -> int:
        # base rays must be twice as long as the range they serve
        return (len(self.base_ray) - 1) // 2


def _halfspaces(graph: FiniteGraph):
    """Hyperplanes as Djokovic cuts, with each vertex's side of each.

    In a median graph the hyperplane of an edge (u, v) is the cut between
    {x : d(x,v) < d(x,u)} and its complement.  Ids follow the first edge of
    each cut in `graph.edges()` order; `sides[x, h]` is True when x lies
    across h from vertex 0.  Raises NotMedianError when two cuts share an edge.
    """
    dist = graph.distances
    edge_list = graph.edges()
    u, v = np.array(edge_list, dtype=np.intp).reshape(-1, 2).T
    ids = np.full(len(edge_list), -1)
    cols = []
    for k in range(len(edge_list)):
        if ids[k] >= 0:
            continue
        side = dist[v[k]] < dist[u[k]]   # rows: the distances are symmetric
        cut = side[u] != side[v]
        if (ids[cut] >= 0).any():
            raise NotMedianError(f"the cut of edge {edge_list[k]} meets another hyperplane")
        ids[cut] = len(cols)
        cols.append(side != side[0])
    sides = np.array(cols, dtype=bool).reshape(len(cols), graph.size).T
    return edge_list, tuple(ids.tolist()), sides


def _check_isometry(dist: np.ndarray, sides: np.ndarray):
    """d(x, y) must equal the number of hyperplanes separating x and y on
    every pair: popcount(code_x ^ code_y) = |S_x| + |S_y| - 2 |S_x & S_y| for
    the side sets S, from one matrix product per block of rows."""
    s = sides.astype(np.float32)   # exact: the counts stay below 2^24
    size = s.sum(axis=1)
    step = max(1, _BLOCK_BYTES // (4 * len(s)))
    for lo in range(0, len(s), step):
        crossed = size[lo : lo + step, None] + size - 2 * (s[lo : lo + step] @ s.T)
        bad = np.argwhere(crossed != dist[lo : lo + step])
        if bad.size:
            x, y = bad[0]
            raise NotMedianError(
                f"d({lo + x},{y}) is not the number of hyperplanes separating them"
            )


def _all_cliques(compat, cap):
    """Every nonempty clique (as sorted index tuples), smallest labels first."""
    n = len(compat)
    out = []

    def extend(base, cands):
        for c in cands:
            cur = base + (c,)
            out.append(cur)
            if len(cur) < cap:
                extend(cur, [d for d in cands if d > c and compat[c][d]])

    extend((), list(range(n)))
    return out


def _enumerate_cubes(graph: FiniteGraph, codes: np.ndarray, cap: int = 6):
    """Cubes read off the codes, each from its corner nearest vertex 0.

    The codes are taken as ints for the bit arithmetic.  The directions at w
    are the neighbours with a larger code, one hyperplane bit each; a clique
    of directions that pair up into vertices spans a cube when all its corner
    codes are vertices.  With the isometry checked on every pair, such
    corners sit at the hypercube's pairwise distances.
    """
    codes = [int.from_bytes(row.tobytes(), "little") for row in codes]
    at = {c: x for x, c in enumerate(codes)}
    cubes = []
    for w, cw in enumerate(codes):
        bits = [codes[u] ^ cw for u in graph.neighbors[w] if codes[u] > cw]
        compat = [[cw | a | b in at for b in bits] for a in bits]
        for clique in _all_cliques(compat, cap):
            if len(clique) < 2:
                continue
            corners = [cw]
            for i in clique:
                corners += [c | bits[i] for c in corners]
            if all(c in at for c in corners):
                cubes.append(frozenset(at[c] for c in corners))
    return tuple(sorted(cubes, key=lambda fs: tuple(sorted(fs))))


def _check_majority_closure(table: _CodeTable, sides: np.ndarray):
    """Closure under majority, checked exactly: the codes must be every
    solution of their two-hyperplane projections (Schaefer 1978).  These are
    enumerated hyperplane by hyperplane, each free row split into both
    literals with their closures; a closed system has no dead ends, so past
    n rows each row is completed along one branch.  A solution c that is no
    vertex code names a bad triple: on a minimal set Q where no vertex
    agrees with c, three vertices agreeing with c on Q but one member have
    majority c on Q."""
    n, H = sides.shape
    lit = np.hstack([~sides, sides]).astype(np.float32)   # literal h: side 0, H + h: side 1
    imp = np.roll(lit.T @ lit == 0, H, axis=1)   # (l, m) is never seen: l => not m
    for _ in range((2 * H).bit_length()):   # each squaring doubles the paths closed
        imp = imp.astype(np.float32) @ imp.astype(np.float32) > 0
    # every literal is some vertex's side, so none implies its own negation
    rows = np.zeros((1, 2 * H), dtype=bool)
    for h in range(H):
        free = ~(rows[:, h] | rows[:, H + h])
        lits = (h, H + h)[: 2 if len(rows) <= n else 1]
        rows = np.vstack([rows[~free]] + [rows[free] | imp[l] for l in lits])
    if len(rows) == n:
        return
    want = _keys(np.ascontiguousarray(np.packbits(rows[:, H:], axis=1, bitorder="little")))
    pos = np.searchsorted(table.keys, want)
    miss = sides != rows[np.flatnonzero(table.keys.take(pos, mode="clip") != want)[0], H:]
    count = miss.sum(axis=1)
    for h in range(H):
        if not (count == miss[:, h]).any():   # no vertex agrees with c on Q minus h
            count -= miss[:, h]
            miss[:, h] = False
    q = np.flatnonzero(miss.any(axis=0))[:3]
    _majority(table, *((count == 1) & miss[:, q].T).argmax(axis=1))
    raise NotMedianError("a code solves every two-hyperplane projection but is no vertex")


def median_complex(graph: FiniteGraph, base_ray: Sequence[int], seed: int = 7) -> MedianComplex:
    """Verify a graph is median and package its cube combinatorics.

    A graph is median exactly when it is a partial cube whose codes are
    closed under coordinate-wise majority (Mulder 1980; Bandelt 1984).
    Hyperplanes are the Djokovic cuts of the edges, which must partition
    them, and each vertex's sides of them pack into its code.  On every pair,
    d(x, y) must equal the number of hyperplanes separating x and y, so the
    graph is bipartite.  Then closure under majority is checked exactly on
    the code table, and a failure names a triple without a median.  Cubes
    are read off the codes.  `seed` is unused: nothing is sampled.
    """
    ray = tuple(int(v) for v in base_ray)
    if len(ray) < 2:
        raise ValueError("base ray needs at least two vertices")
    dist = graph.distances
    for i, j in itertools.combinations(range(len(ray)), 2):
        if dist[ray[i], ray[j]] != j - i:
            raise ValueError("base ray is not a geodesic")

    edge_list, hyp_ids, sides = _halfspaces(graph)
    _check_isometry(dist, sides)
    table = _code_table(sides)
    _check_majority_closure(table, sides)

    cubes = _enumerate_cubes(graph, table.codes)
    if cubes:
        dimension = max(len(fs).bit_length() - 1 for fs in cubes)
    else:
        dimension = 1 if edge_list else 0
    return MedianComplex(graph, ray, dimension, edge_list, hyp_ids, cubes, table)


def median(cx: MedianComplex, x, y, z):
    """The median of x, y and z: the vertex whose code is their majority.

    x, y, z may also be index arrays, which broadcast; the medians of all
    those triples come back as an array from one pass.  A triple whose
    majority is not a vertex has no median and raises NotMedianError, for
    arrays the first such triple in order.
    """
    return _majority(cx.codes, x, y, z)


def hyperplanes(cx: MedianComplex) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The edge partition, one tuple of edges per hyperplane."""
    m = max(cx.hyperplane_ids) + 1 if cx.hyperplane_ids else 0
    groups = [[] for _ in range(m)]
    for e, h in zip(cx.edge_list, cx.hyperplane_ids):
        groups[h].append(e)
    return tuple(tuple(g) for g in groups)


def _stable_medians(cx: MedianComplex, x1, x2):
    """Medians of pairs (indices or index arrays) against the far end of the
    base ray, demanded equal one ray step earlier and inside the pair's
    interval."""
    if len(cx.base_ray) < 3:
        raise RayTooShortError("base ray too short to witness stabilization")
    deep = _majority(cx.codes, x1, x2, cx.base_ray[-1])
    moving = np.flatnonzero(deep != _majority(cx.codes, x1, x2, cx.base_ray[-2]))
    if moving.size:
        a, b = (np.ravel(v)[moving[0]] for v in np.broadcast_arrays(x1, x2))
        raise RayTooShortError(f"median of ({a},{b}) still moving at the end of the base ray")
    d = cx.graph.distances
    if (d[x1, deep] + d[deep, x2] != d[x1, x2]).any():
        raise StructureViolationError("stable median left the interval")
    return deep


def stable_median(cx: MedianComplex, x1: int, x2: int) -> int:
    """Median against the far end of the base ray, demanded stable there."""
    return int(_stable_medians(cx, x1, x2))


def stable_median_table(cx: MedianComplex, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
    """Stable medians for all pairs from `vertices` (default: everything).

    Demanded identical at the last two ray samples; pairs touching the far end
    of the base ray cannot stabilize, so restrict the domain when the ray is
    glued on.  Entries are global vertex indices.
    """
    if vertices is None:
        vertices = range(cx.graph.size)
    sub = np.asarray(tuple(vertices), dtype=np.intp)
    # medians are symmetric in the pair: compute the upper triangle, mirror it
    i, j = np.triu_indices(len(sub))
    table = np.empty((len(sub), len(sub)), dtype=np.int32)
    table[i, j] = table[j, i] = _stable_medians(cx, sub[i], sub[j])
    return table


def _ray_masks(cx: MedianComplex, xs, ks) -> np.ndarray:
    """Ray sets of every x in `xs` at every k in `ks` as a boolean (x, k,
    vertex) mask: the vertices at distance k from x in the interval to the
    far end of the base ray.  Each must be the same one ray step earlier and
    hold at most the simplex count; raises for the first failing (x, k) in
    x-major order."""
    xs, ks = np.asarray(xs, dtype=np.intp), np.asarray(ks, dtype=np.intp)
    if (ks < 0).any():
        raise ValueError("k must be >= 0")
    if (ks > cx.usable_radius).any():
        raise RayTooShortError(f"k={ks.max()} exceeds usable radius {cx.usable_radius}")
    dist = cx.graph.distances
    z1, z2 = cx.base_ray[-1], cx.base_ray[-2]
    d = dist[xs]
    at_k = d[:, None, :] == ks[:, None]
    masks = at_k & (d + dist[z1] == d[:, z1, None])[:, None]
    moved = (masks != (at_k & (d + dist[z2] == d[:, z2, None])[:, None])).any(axis=2)
    count = masks.sum(axis=2)
    cap = np.array([binomial(cx.dimension - 1 + k, cx.dimension - 1) for k in ks.tolist()])
    stuck = d[:, z1] != d[:, z2] + 1
    bad = np.argwhere(stuck[:, None] | moved | (count > cap))
    if bad.size:
        i, j = bad[0]
        x, k = int(xs[i]), int(ks[j])
        if stuck[i]:
            raise RayTooShortError(f"base ray has not escaped vertex {x}")
        if moved[i, j]:
            raise RayTooShortError(f"ray set ({x},{k}) not stabilized at the ray end")
        raise StructureViolationError(
            f"|ray set({x},{k})| = {count[i, j]} exceeds the simplex count {cap[j]}"
        )
    return masks


def ray_set(cx: MedianComplex, x: int, k: int) -> FrozenSet[int]:
    """Vertices at distance k from x on geodesics that merge into the base ray."""
    return frozenset(np.flatnonzero(_ray_masks(cx, [x], [k])[0, 0]).tolist())


# -- polytopes --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Polytope:
    """A distance slice of a cube: its level and vertex set."""

    level: int
    vertices: FrozenSet[int]


def _polytope_table(cx: MedianComplex):
    """Every polytope as a row of its members padded with -1, and its level;
    row indices are the global polytope ids.  The vertices are the level-0
    polytopes; the slices at distance 0 < j <= l from a corner of an
    (l+1)-cube are the level-l ones.  Rows are deduplicated and sorted by
    (level, members), so the vertices keep their indices as ids."""
    cached = cx._cache.get("polytopes")
    if cached is not None:
        return cached
    parts = [(0, np.arange(cx.graph.size)[:, None])]   # (level, member rows)
    for dim in sorted({len(fs).bit_length() - 1 for fs in cx.cubes}):
        members = np.array([sorted(fs) for fs in cx.cubes if len(fs) == 2**dim], dtype=np.intp)
        gap = cx.graph.distances[members[:, :, None], members[:, None, :]]   # (cube, corner, member)
        spread = np.broadcast_to(members[:, None, :], gap.shape)
        parts += [(dim - 1, spread[gap == j].reshape(-1, math.comb(dim, j))) for j in range(1, dim)]
    width = max(m.shape[1] for _, m in parts)
    rows = np.unique(np.vstack([np.pad(m, ((0, 0), (1, width - m.shape[1])), constant_values=(lv, -1))
                                for lv, m in parts]), axis=0)
    cx._cache["polytopes"] = (rows[:, 1:], rows[:, 0])
    return cx._cache["polytopes"]


def _polytopes_in(cx: MedianComplex, xs, ks, what: str = "vector weight"):
    """Which polytopes lie in the ray sets of `xs` at `ks`, as a boolean
    (x, k, polytope) table, with each polytope's level.  A polytope lies in a
    ray set when all its members do.  Raises like `_ray_masks`, then for the
    first (x, k) holding more polytopes than the cap, named by `what`."""
    masks = _ray_masks(cx, xs, ks)
    table, level = _polytope_table(cx)
    sets = masks.reshape(-1, cx.graph.size)
    # row v: is v in each ray set; the pads (-1) read the last row, all True
    rows = np.vstack([sets.T, np.ones(len(sets), dtype=bool)])
    inside = np.empty((len(table), len(sets)), dtype=bool)
    step = max(1, _BLOCK_BYTES // max(1, table.shape[1] * len(sets)))
    for lo in range(0, len(table), step):
        inside[lo : lo + step] = rows[table[lo : lo + step]].all(axis=1)
    inside = inside.T.reshape(masks.shape[:2] + (len(table),))
    count = inside.sum(axis=2)
    N = cx.dimension
    caps = [polytope_budget(N) * binomial(N - 1 + int(k), N - 1) for k in ks]
    # a count never passes the number of polytopes, so the huge caps clip there
    over = np.argwhere(count > np.array([min(c, len(table)) for c in caps], dtype=np.int64))
    if over.size:
        i, j = over[0]
        raise StructureViolationError(f"{what} {count[i, j]} exceeds bound {caps[j]}")
    return inside, level


@dataclass(frozen=True, eq=False)
class PolytopeReport:
    """Polytopes inside one ray set, plus the backward chain sets.

    `predecessors[(y, i)]` collects the vertices w of ray_set(x, k-i) whose
    own ray set at i contains y.
    """

    x: int
    k: int
    polys: Tuple[Polytope, ...]
    predecessors: Dict[Tuple[int, int], FrozenSet[int]]


def polytope_budget(dimension: int) -> int:
    """Multiplicative cap on polytope counts per ray set, dimension only."""
    total = sum(dimension**i * binomial(dimension - 1 + i, dimension - 1) for i in range(dimension))
    return 2**total


def polytopes(cx: MedianComplex, x: int, k: int) -> PolytopeReport:
    inside, level = _polytopes_in(cx, [x], [k], "polytope count")
    table, _ = _polytope_table(cx)
    ids = np.flatnonzero(inside[0, 0])
    polys = tuple(Polytope(int(level[p]), frozenset(table[p][table[p] >= 0].tolist()))
                  for p in ids.tolist())
    members = ids[ids < cx.graph.size].tolist()   # the vertices are the ray set

    predecessors: Dict[Tuple[int, int], FrozenSet[int]] = {}
    for i in range(min(cx.dimension - 1, k) + 1 if members else 0):
        sources = np.flatnonzero(_ray_masks(cx, [x], [k - i])[0, 0])
        reach = _ray_masks(cx, sources, [i])[:, 0]
        for y in members:
            back = frozenset(sources[reach[:, y]].tolist())
            if len(back) > cx.dimension**i:
                raise StructureViolationError(
                    f"chain set ({y},{i}) has {len(back)} > {cx.dimension ** i} members"
                )
            predecessors[(y, i)] = back
    return PolytopeReport(x, k, polys, predecessors)


@dataclass(frozen=True, eq=False)
class MizutaVectors:
    """Indicator vectors over the polytope universe for one (x, k).

    `unsigned` sums plain indicators over every polytope in the ray set;
    `alternating` signs each by (-1)^level.  Keys are global polytope ids.
    """

    x: int
    k: int
    unsigned: Dict[int, int]
    alternating: Dict[int, int]

    @property
    def norm_sq(self) -> int:
        return len(self.unsigned)


def mizuta_vectors(cx: MedianComplex, x: int, k: int) -> MizutaVectors:
    inside, level = _polytopes_in(cx, [x], [k])
    ids = np.flatnonzero(inside[0, 0]).tolist()
    return MizutaVectors(x, k, dict.fromkeys(ids, 1),
                         {p: (-1) ** int(level[p]) for p in ids})


def pairing(a: Dict[int, int], b: Dict[int, int]) -> int:
    """Inner product of two sparse integer vectors."""
    if len(b) < len(a):
        a, b = b, a
    return sum(c * b[gid] for gid, c in a.items() if gid in b)
