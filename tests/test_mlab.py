"""Tests for kernels, the multiplier-norm SDP, and witness builders."""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import mlab
from schurmult.bench import parse_graph
from schurmult.errors import (
    ConvergenceError,
    MaxIterExceededError,
    NotBipartiteError,
    RayTooShortError,
    StructureViolationError,
    TailBoundExceededError,
    TailUndefinedError,
)
from schurmult.hankel import build_multiradial_T, radial_lift
from schurmult.medgraph import (
    attach_ray,
    graph_from_edges,
    median_complex,
    meet_data,
    product_graph,
    tree_ball,
)
from schurmult.mlab import (
    ball_product,
    cb_norm_sdp,
    median_witness,
    multiradial_kernel,
    polar_factor,
    radial_kernel,
    raw_kernel,
    recombined_bound,
    sandwich_check,
    separable_multiradial_T,
    split_radial,
    tree_product_witness,
)
from schurmult.serialize import cb_result_to_json, witness_to_json
from schurmult.symbols import (
    alternating_power,
    discrete_derivative,
    DerivativeSpec,
    from_function,
    from_table,
    geometric,
    make_symbol,
    parity,
    power,
    sphere,
)


def glued(graph, at=0, length=24):
    g, ray = attach_ray(graph, at, length)
    return median_complex(g, ray)


# ---------------------------------------------------------------- kernels


def test_radial_kernel_entries():
    ball = tree_ball(2, 2)
    kern = radial_kernel(ball.graph, geometric(0.5))
    g = ball.graph
    for x in range(g.size):
        for y in range(g.size):
            assert kern.matrix[x, y] == pytest.approx(0.5 ** g.distance(x, y))
    assert kern.provenance["kind"] == "radial"
    assert kern.matrix.dtype == np.float64


def test_multiradial_kernel_against_entrywise_oracle():
    bp = ball_product([tree_ball(2, 2), tree_ball(2, 1)])
    kern = multiradial_kernel(bp, lambda d: 0.5 ** d[0] * 0.25 ** d[1])
    g1, g2 = tree_ball(2, 2).graph, tree_ball(2, 1).graph
    n2 = g2.size
    for a in (0, 3, 7, 19):
        for b in (1, 5, 12, 20):
            x1, x2 = divmod(a, n2)
            y1, y2 = divmod(b, n2)
            want = 0.5 ** g1.distance(x1, y1) * 0.25 ** g2.distance(x2, y2)
            assert kern.matrix[a, b] == pytest.approx(want, abs=1e-12)
    # a radial symbol acts through the summed distance
    kern2 = multiradial_kernel(bp, geometric(0.5))
    x1, x2 = divmod(7, n2)
    y1, y2 = divmod(12, n2)
    s = g1.distance(x1, y1) + g2.distance(x2, y2)
    assert kern2.matrix[7, 12] == pytest.approx(0.5 ** s)


def test_multiradial_kernel_from_symbol_sequence():
    bp = ball_product([tree_ball(2, 2), tree_ball(2, 1)])
    kern = multiradial_kernel(bp, [geometric(0.5), geometric(0.25)])
    ref = multiradial_kernel(bp, lambda d: 0.5 ** d[0] * 0.25 ** d[1])
    assert np.array_equal(kern.matrix, ref.matrix)
    assert kern.provenance["symbol"] == "product[GEOM(0.5),GEOM(0.25)]"


def test_raw_kernel_validates_shape():
    g = tree_ball(2, 1).graph
    with pytest.raises(ValueError):
        raw_kernel(g, np.eye(g.size + 1))
    assert raw_kernel(g, np.eye(g.size)).size == g.size


# ---------------------------------------------------------------- factors


def test_polar_factor_diagonal_and_rank_one():
    a, b = polar_factor(np.diag([4.0]))
    assert np.linalg.norm(a) * np.linalg.norm(b) == pytest.approx(4.0)
    f = np.array([1.0, 2.0, 2.0])
    g = np.array([3.0, 0.0, 4.0])
    a, b = polar_factor(np.outer(f, g))
    # trace norm of a rank-one outer product is the product of 2-norms
    assert np.linalg.norm(a) * np.linalg.norm(b) == pytest.approx(15.0)


def test_polar_factor_reproduces_complex_matrix():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a, b = polar_factor(M)
    assert np.abs(a.conj().T @ b - M).max() < 1e-12
    tn = np.linalg.svd(M, compute_uv=False).sum()
    assert np.linalg.norm(a) * np.linalg.norm(b) == pytest.approx(tn)


def test_split_radial_recovers_parity_parts():
    sym = from_function(lambda d: 0.3 + 0.2 * (-1) ** d + 0.5 ** d,
                        name="MIXED", real=True)
    centered, cp, cm = split_radial(sym)
    assert cp == pytest.approx(0.3, abs=1e-9)
    assert cm == pytest.approx(0.2, abs=1e-9)
    assert centered(0) == pytest.approx(1.0, abs=1e-9)
    assert centered(9) == pytest.approx(0.5 ** 9, abs=1e-9)


def test_split_radial_refuses_slow_symbols():
    with pytest.raises(ConvergenceError):
        split_radial(power(0.5))


def test_recombined_bound_adds_limit_norms():
    ball = tree_ball(2, 3)
    w = tree_product_witness([ball], geometric(0.5), cutoff=40, j_tail=36)
    total = recombined_bound(ball.graph, w, 0.3, -0.2)
    assert total == pytest.approx(w.certified + 0.5)
    triangle = graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotBipartiteError):
        recombined_bound(triangle, w, 0.3, -0.2)


# ---------------------------------------------------------------- SDP


def test_cb_norm_all_ones_and_parity():
    res = cb_norm_sdp(np.ones((6, 6)), tol=1e-6)
    assert res.lower == pytest.approx(1.0, abs=1e-6)
    assert res.upper == pytest.approx(1.0, abs=1e-6)
    n = 7
    P = np.array([[(-1.0) ** abs(i - j) for j in range(n)] for i in range(n)])
    res = cb_norm_sdp(P, tol=1e-6)
    assert res.lower == pytest.approx(1.0, abs=1e-6)
    assert res.upper == pytest.approx(1.0, abs=1e-6)


def test_cb_norm_rank_one():
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        want = np.abs(u).max() * np.abs(v).max()
        res = cb_norm_sdp(np.outer(u, v), tol=1e-6)
        assert res.lower == pytest.approx(want, abs=1e-6)
        assert res.upper == pytest.approx(want, abs=1e-6)
        assert res.upper >= res.lower


def test_cb_norm_needs_dual_floor():
    # max entry 1, true norm sqrt(2): the lower side must come from a separator
    res = cb_norm_sdp(np.array([[1.0, 1.0], [1.0, -1.0]]), tol=1e-6)
    assert res.lower == pytest.approx(math.sqrt(2), abs=1e-6)
    assert res.upper == pytest.approx(math.sqrt(2), abs=1e-6)


def test_cb_norm_witness_reproduces_kernel():
    rng = np.random.default_rng(4)
    B = np.outer(rng.normal(size=4), rng.normal(size=4))
    res = cb_norm_sdp(B, tol=1e-6)
    w = res.witness
    assert np.abs(w.p_rows @ w.q_rows.conj().T - B).max() <= 1e-8
    sp = np.sqrt((np.abs(w.p_rows) ** 2).sum(axis=1).max())
    sq = np.sqrt((np.abs(w.q_rows) ** 2).sum(axis=1).max())
    assert sp * sq <= w.certified + 1e-10
    assert res.upper == w.certified


def test_cb_norm_zero_and_shape_guard():
    res = cb_norm_sdp(np.zeros((4, 4)))
    assert res.lower == res.upper == 0.0
    with pytest.raises(ValueError):
        cb_norm_sdp(np.ones((3, 4)))


def test_cb_norm_restriction_monotone():
    rng = np.random.default_rng(3)
    for _ in range(4):
        m = int(rng.integers(3, 7))
        B = rng.normal(size=(m, m))
        keep = sorted(rng.choice(m, size=m - 1, replace=False))
        full = cb_norm_sdp(B, tol=1e-6)
        part = cb_norm_sdp(B[np.ix_(keep, keep)], tol=1e-6)
        assert part.lower <= full.upper + 2e-6
        assert full.lower >= np.abs(B).max() - 1e-9


def test_cb_norm_budget_error_carries_bracket():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(5, 5))
    with pytest.raises(MaxIterExceededError) as exc:
        cb_norm_sdp(B, tol=0.0, max_iter=5)
    lo, hi = exc.value.bracket
    assert np.abs(B).max() - 1e-9 <= lo <= hi


def test_cb_result_serialization():
    res = cb_norm_sdp(np.ones((3, 3)), tol=1e-6)
    d = json.loads(cb_result_to_json(res))
    assert d["upper"] == pytest.approx(1.0, abs=1e-6)
    assert "p_rows" not in d["witness"]
    d2 = json.loads(cb_result_to_json(res, include_rows=True))
    assert len(d2["witness"]["p_rows"]) == 3
    lone = json.loads(witness_to_json(res.witness))
    assert lone["certified"] == pytest.approx(res.upper)


def _kernels_by_path():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(5, 5))
    C = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    return {"real symmetric": A + A.T, "complex hermitian": C + C.conj().T,
            "real": A, "complex": C}


@pytest.mark.parametrize("name", ["real symmetric", "complex hermitian"])
def test_cb_norm_hermitian_blocks_agree_with_dilation(name):
    # B diag(e^{i theta}) is not Hermitian and has the same multiplier norm
    B = _kernels_by_path()[name]
    n = len(B)
    theta = np.random.default_rng(5).uniform(0.0, 2 * np.pi, n)
    blocks = cb_norm_sdp(B, tol=1e-5)
    dilated = cb_norm_sdp(B * np.exp(1j * theta), tol=1e-5)
    assert blocks.witness.detail["blocks"] == (n, n)
    assert dilated.witness.detail["blocks"] == (2 * n,)
    assert blocks.lower <= dilated.upper and dilated.lower <= blocks.upper


def test_cb_norm_sphere_on_tree_ball_meets_doubled_bracket():
    # [1.314454, 1.314471] is the bracket of the one 2n x 2n iteration; the
    # bare matrix runs as the rotated pair, the kernel in the tree-ball layout
    kernel = radial_kernel(tree_ball(2, 3).graph, sphere(1))
    res = cb_norm_sdp(kernel.matrix, tol=1e-4)
    assert res.witness.detail["blocks"] == (22, 22)
    assert res.lower <= 1.314471 and 1.314454 <= res.upper
    res = cb_norm_sdp(kernel, tol=1e-4)
    assert res.witness.detail["blocks"] == (4, 3, 2, 1) * 2
    assert res.lower <= 1.314471 and 1.314454 <= res.upper


@pytest.mark.parametrize("name", ["real symmetric", "complex hermitian", "real", "complex"])
def test_cb_norm_witness_on_every_path(name):
    B = _kernels_by_path()[name]
    n = len(B)
    res = cb_norm_sdp(B, tol=1e-4)
    w = res.witness
    assert np.abs(w.p_rows @ w.q_rows.conj().T - B).max() <= 1e-8
    sp = np.sqrt((np.abs(w.p_rows) ** 2).sum(axis=1).max())
    sq = np.sqrt((np.abs(w.q_rows) ** 2).sum(axis=1).max())
    assert sp * sq <= w.certified
    assert w.certified == sp * sq + w.detail["residual_allowance"]
    assert w.p_rows.shape[1] == w.q_rows.shape[1] == w.dimension <= 2 * n
    assert w.detail["eigh_calls"] >= res.iterations * len(w.detail["blocks"])


@pytest.mark.parametrize("name", ["real symmetric", "complex"])
def test_witness_json_rows_pair_only_complex_entries(name):
    w = cb_norm_sdp(_kernels_by_path()[name], tol=1e-4).witness
    d = json.loads(witness_to_json(w, include_rows=True))
    for key in ("p_rows", "q_rows"):
        rows = getattr(w, key)
        got = np.asarray(d[key])
        if name == "complex":
            assert got.shape == rows.shape + (2,)
            got = got[..., 0] + 1j * got[..., 1]
        else:
            assert all(type(v) is float for row in d[key] for v in row)
        assert np.array_equal(got, rows)


def test_cb_norm_dual_pad_scales_with_the_separator():
    # below the norm sqrt(2) every level is infeasible, and the separator
    # rounded from the drift certifies a floor above it; its pad is m eps ||S||
    B = np.array([[1.0, 1.0], [1.0, -1.0]])
    blocks = mlab._layout(B, B)
    hi = math.sqrt(2)
    z = blocks.completion(hi * np.eye(2), B.T @ B / hi)
    for c in (1.3, 1.41):
        verdict, _, _, (floor, pad), _, _ = mlab._feasibility(blocks, c, z, c)
        assert verdict is False
        assert c < floor == pytest.approx(math.sqrt(2), abs=1e-6)
        assert 0.0 < pad <= 2 * np.finfo(float).eps * 2.0


def test_rank_one_ascent_closes_the_two_by_two_sign_kernel():
    # xi = eta = (1, 1) / sqrt 2 gives B / 2, whose trace norm is the norm sqrt 2
    B = np.array([[1.0, 1.0], [1.0, -1.0]])
    value, pad, svds = mlab._rank_one_ascent(B)
    assert abs(value - math.sqrt(2)) <= pad <= 1e-13
    assert svds == 3
    res = cb_norm_sdp(B, tol=1e-6)
    detail = res.witness.detail
    assert detail["lower_certificate"] == "ascent"
    assert detail["ascent_pad"] == pad and detail["ascent_svds"] == svds
    assert detail["dual_pad"] == 0.0
    assert res.lower == value - pad <= math.sqrt(2) <= res.upper


# every kernel of the benchmark's two SDP parts, the README example and the
# sandwich radii
BENCHMARK_SDP_KERNELS = [
    ("SPHERE", 1, "T3ball(3)"), ("SPHERE", 2, "T3ball(3)"),
    ("SPHERE", 1, "product(T3ball(1),T3ball(2))"), ("SPHERE", 1, "T4ball(3)"),
    ("PARTIAL_SUM", 1, "product(T3ball(1),T3ball(2))"),
    ("ALT_POWER", 1.5, "product(T3ball(2),T3ball(2))"), ("POWER", 0.5, "T3ball(3)"),
    ("ALT_POWER", 1.5, "T4ball(2)"), ("GEOM", 0.5, "T3ball(3)"),
    ("GEOM", 0.5, "product(T3ball(2),T3ball(2))"),
    ("GEOM", 0.5, "T3ball(1)"), ("GEOM", 0.5, "T3ball(2)"),
    ("ALT_POWER", 1.5, "T3ball(1)"), ("ALT_POWER", 1.5, "T3ball(2)"),
    ("ALT_POWER", 1.5, "T3ball(3)"),
]


@pytest.mark.parametrize("name, param, graph", BENCHMARK_SDP_KERNELS, ids=lambda v: str(v))
def test_rank_one_ascent_stays_under_the_sdp_upper_end(name, param, graph):
    kernel = radial_kernel(parse_graph(graph), make_symbol(name, param))
    value, pad, _ = mlab._rank_one_ascent(kernel.matrix)
    res = cb_norm_sdp(kernel, tol=1e-3)
    assert value - pad <= res.upper
    # the bracket starts at the ascent and only rises from there
    assert res.lower >= min(value - pad, res.upper)
    assert res.witness.detail["lower_certificate"] in ("entry", "ascent", "dual")


def test_rank_one_ascent_stays_under_the_sdp_upper_end_on_random_complex_kernels():
    # complex Gaussian 4-7 kernels as in acceptance test 08, at its tol 1e-3
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(4, 8))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        value, pad, _ = mlab._rank_one_ascent(B)
        res = cb_norm_sdp(B, tol=1e-3)
        assert np.abs(B).max() <= res.lower and value - pad <= res.upper


def _psd_kernels():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    gram = X @ X.conj().T
    d = np.sqrt(np.real(np.diag(gram)))
    signs = np.array([(-1.0) ** i for i in range(8)])
    kernels = [radial_kernel(parse_graph(g), make_symbol(s, p)).matrix
               for s, p, g in BENCHMARK_SDP_KERNELS[5:10]]
    return kernels + [np.ones((8, 8)), np.outer(signs, signs),
                      2.5 * gram / np.outer(d, d)]


@pytest.mark.parametrize("index", range(8))
def test_rank_one_ascent_is_the_diagonal_on_psd_kernels(index):
    # a positive semidefinite kernel with constant diagonal d has norm d, and
    # D_xi B D_xi has trace norm d for every unit xi: the first value is final
    B = _psd_kernels()[index]
    assert np.linalg.eigvalsh(B).min() >= -1e-12
    value, pad, svds = mlab._rank_one_ascent(B)
    assert abs(value - np.real(np.diag(B)).max()) <= pad
    assert svds == 3


# the tree-ball kernels of the benchmark's two SDP parts and its sandwich rows
TREE_BALL_SDP_KERNELS = [
    ("SPHERE", 1, 2, 3), ("SPHERE", 2, 2, 3), ("SPHERE", 1, 3, 3),
    ("POWER", 0.5, 2, 3), ("ALT_POWER", 1.5, 3, 2), ("GEOM", 0.5, 2, 3),
    ("GEOM", 0.5, 2, 1), ("GEOM", 0.5, 2, 2),
    ("ALT_POWER", 1.5, 2, 1), ("ALT_POWER", 1.5, 2, 2), ("ALT_POWER", 1.5, 2, 3),
]


@pytest.mark.parametrize("name, param, branching, radius", TREE_BALL_SDP_KERNELS,
                         ids=lambda v: str(v))
def test_cb_norm_tree_ball_layout_meets_the_full_layout(name, param, branching, radius):
    kernel = radial_kernel(tree_ball(branching, radius).graph, make_symbol(name, param))
    reduced = cb_norm_sdp(kernel, tol=1e-4)
    full = cb_norm_sdp(kernel.matrix, tol=1e-4)
    n = kernel.size
    assert reduced.witness.detail["blocks"] == tuple(range(radius + 1, 0, -1)) * 2
    assert full.witness.detail["blocks"] == (n, n)
    assert reduced.lower <= full.upper and full.lower <= reduced.upper
    assert reduced.gap <= 1e-4
    # both ends are certified in the full space
    w = reduced.witness
    assert np.abs(w.p_rows @ w.q_rows.conj().T - kernel.matrix).max() <= 1e-8
    assert w.detail["lifted_eigh_calls"] >= 0
    assert w.detail["eigh_calls"] >= reduced.iterations * 2 * (radius + 1)


@pytest.mark.parametrize("branching, radius, degeneracies", [
    (2, 1, (1, 2)), (2, 2, (1, 2, 3)), (2, 3, (1, 2, 3, 6)), (2, 4, (1, 2, 3, 6, 12)),
    (3, 2, (1, 3, 8)), (3, 3, (1, 3, 8, 24)),
])
def test_tree_ball_basis_blocks_and_degeneracies(branching, radius, degeneracies):
    ball = tree_ball(branching, radius)
    n = ball.graph.size
    Q, blocks, levels = mlab._tree_basis(*mlab._tree_levels(ball.graph))
    assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-13
    kernel = radial_kernel(ball.graph, geometric(0.5))
    layout = mlab._layout(kernel, kernel.matrix)
    assert isinstance(layout, mlab._TreeBlocks)
    sizes = tuple(range(radius + 1, 0, -1))
    assert layout.sizes == sizes * 2
    assert layout.degeneracies == degeneracies * 2
    # the blocks, each repeated by its degeneracy, fill the n dimensions
    assert sum(s * d for s, d in zip(sizes, degeneracies)) == n
    assert levels.sum() == n
    assert np.abs(layout.lift_side(layout.kernel) - layout.B).max() <= 1e-12


def test_tree_ball_layout_falls_back_to_the_full_layouts():
    rng = np.random.default_rng(2)
    ball = tree_ball(2, 2)
    product = product_graph([tree_ball(2, 1).graph, tree_ball(2, 2).graph])
    lopsided, _ = attach_ray(ball.graph, 0, 3)     # a tree, not spherically homogeneous
    path, _ = attach_ray(graph_from_edges(["a", "b"], [(0, 1)]), 0, 2)   # two centres
    noise = rng.normal(size=(ball.graph.size,) * 2)
    for kernel, blocks in [
        (radial_kernel(product, sphere(1)), (product.size,) * 2),
        (radial_kernel(lopsided, sphere(1)), (lopsided.size,) * 2),
        (radial_kernel(path, sphere(1)), (path.size,) * 2),
        (radial_kernel(ball.graph, make_symbol("I_POWER", 1.0)), (2 * ball.graph.size,)),
        # real symmetric on a tree ball, but not fixed by the root stabiliser
        (raw_kernel(ball.graph, noise + noise.T), (ball.graph.size,) * 2),
    ]:
        res = cb_norm_sdp(kernel, tol=1e-3)
        assert res.witness.detail["blocks"] == blocks
        assert "lifted_eigh_calls" not in res.witness.detail


def test_tree_ball_layout_skips_depths_with_one_child():
    # a path of five vertices around its middle: one child below depth 0
    g = graph_from_edges("abcde", [(0, 1), (1, 2), (2, 3), (3, 4)])
    kernel = radial_kernel(g, sphere(1))
    res = cb_norm_sdp(kernel, tol=1e-5)
    assert res.witness.detail["blocks"] == (3, 2, 3, 2)
    assert res.witness.detail["degeneracies"] == (1, 1, 1, 1)
    full = cb_norm_sdp(kernel.matrix, tol=1e-5)
    assert res.lower <= full.upper and full.lower <= res.upper


def test_cb_norm_tree_ball_layout_reaches_radius_six():
    res = cb_norm_sdp(radial_kernel(tree_ball(2, 6).graph, sphere(1)), tol=1e-4)
    assert res.witness.detail["blocks"] == tuple(range(7, 0, -1)) * 2
    assert res.gap <= 1e-4
    assert res.witness.reproduction_error <= 1e-8


# ---------------------------------------------------------------- sections


def test_separable_matches_generic_builder():
    sym = geometric(0.4)
    A = separable_multiradial_T([sym, sym], cutoff=6).as_numeric()
    B = build_multiradial_T(radial_lift(sym), dim=2, cutoff=6).as_numeric()
    assert A.shape == B.shape
    assert np.abs(A - B).max() < 1e-12


def test_separable_exact_entries_are_rational():
    sym = from_table([Fraction(1), Fraction(1, 2), Fraction(1, 4)], tail="ZERO")
    T = separable_multiradial_T([sym], cutoff=4, exact=True)
    step2 = DerivativeSpec(2, 1)
    assert T.entries[0, 0] == discrete_derivative(sym, step2, 0)
    assert isinstance(T.entries[0, 0], Fraction)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                min_size=1, max_size=6))
def test_rational_telescoping_exact(vals):
    # summing the step-2 increments walks the symbol down to zero exactly
    sym = from_table(vals, tail="ZERO")
    step2 = DerivativeSpec(2, 1)
    for s in range(len(vals) + 2):
        total = sum(discrete_derivative(sym, step2, s + 2 * j)
                    for j in range((len(vals) + 4) // 2 + 1))
        assert total == sym(s)


# ---------------------------------------------------------------- witnesses


@pytest.mark.parametrize("branching, radius", [(2, 3), (2, 4), (3, 3)])
def test_meet_tables_are_the_walked_meet_depths(branching, radius):
    ball = tree_ball(branching, radius)
    n = ball.graph.size
    walked = np.array([[meet_data(ball, x, y).k0 for y in range(n)] for x in range(n)])
    assert np.array_equal(mlab._meet_tables(ball), walked)


def test_tree_witness_geometric_line():
    sym = geometric(0.5)
    w = tree_product_witness([tree_ball(2, 3)], sym, cutoff=40, j_tail=36)
    # rank-one increments: truncated trace norm is 1 - r^(2(cutoff+1))
    assert w.certified == pytest.approx(1.0 - 0.5 ** 82, abs=1e-10)
    assert w.reproduction_error <= w.tail_bound + 1e-9
    assert w.tail_bound < 1e-6


def test_tree_witness_product_of_geometrics():
    s1, s2 = geometric(0.5), geometric(0.3)
    w = tree_product_witness([tree_ball(2, 2), tree_ball(2, 2)],
                             lambda d: s1(d[0]) * s2(d[1]), cutoff=24, j_tail=20)
    assert w.certified == pytest.approx(1.0, abs=1e-9)
    assert w.reproduction_error <= w.tail_bound + 1e-9


def test_tree_witness_three_balls_from_one_axis_tables():
    sym = geometric(0.2)
    w = tree_product_witness([tree_ball(2, 1)] * 3, [sym] * 3, cutoff=18, j_tail=6)
    assert w.certified == pytest.approx(1.0, abs=1e-9)
    assert w.reproduction_error <= w.tail_bound
    assert w.detail["cells"] == 112


def test_tree_witness_finite_support_exact():
    fin = from_table([1.0, 0.5, 0.25, 0.125], tail="ZERO", name="FIN")
    w = tree_product_witness([tree_ball(2, 2), tree_ball(2, 2)],
                             lambda d: fin(d[0]) * fin(d[1]), cutoff=12, j_tail=10)
    assert w.tail_bound <= 1e-10
    assert w.reproduction_error <= 1e-10


def test_tree_witness_rejects_uncentered_symbol():
    sym = from_function(lambda d: 0.5 + 0.5 ** d, name="SHIFTED", real=True)
    with pytest.raises(ValueError, match="split_radial"):
        tree_product_witness([tree_ball(2, 2)], sym, cutoff=20, j_tail=16)


def test_tree_witness_refuses_fat_tail():
    sym = geometric(0.5)
    with pytest.raises(TailBoundExceededError):
        tree_product_witness([tree_ball(2, 3)], sym, cutoff=40, j_tail=2)


def reference_tree_cells(balls, phi_tilde, cutoff, j_tail):
    """Cells, worst error and worst tail of the tree witness, with each cell's
    value summed offset by offset over the entries of build_multiradial_T's
    section that exist."""
    N = len(balls)
    T = build_multiradial_T(phi_tilde, N, cutoff)
    index = {p: i for i, p in enumerate(T.points)}
    Tnum = T.as_numeric()
    horizon = j_tail + (64 if N <= 2 else 16)
    grid, der = mlab._corner_table(
        phi_tilde, tuple(2 * max(b.radius, cutoff) + 2 * horizon + 3 for b in balls))
    per_axis = []
    for ball in balls:
        k0 = mlab._meet_tables(ball)
        per_axis.append({(int(k0[x, y]), int(k0[y, x]))
                         for x in range(k0.shape[0]) for y in range(k0.shape[0])})
    cells = set()
    for combo in itertools.product(*per_axis):
        k0vec = tuple(c[0] for c in combo)
        m0vec = tuple(c[1] for c in combo)
        cells.add(min((k0vec, m0vec), (m0vec, k0vec)))
    max_err = max_tail = 0.0
    for k0vec, m0vec in cells:
        value = 0.0
        included = 0.0
        for j in itertools.product(range(j_tail), repeat=N):
            a = index.get(tuple(m + q for m, q in zip(m0vec, j)))
            b = index.get(tuple(k + q for k, q in zip(k0vec, j)))
            if a is not None and b is not None:
                value += Tnum[a, b]
                included += abs(Tnum[a, b])
        s = tuple(k + m for k, m in zip(k0vec, m0vec))
        box = np.abs(der[tuple(slice(s0, s0 + 2 * horizon, 2) for s0 in s)])
        max_tail = max(max_tail, max(box.sum() - included, 0.0) + mlab._TAIL_PAD)
        max_err = max(max_err, abs(value - grid[s]))
    return len(cells), max_err, max_tail


@pytest.mark.parametrize("balls, phi_tilde, cutoff, j_tail", [
    ([tree_ball(2, 2)] * 2, lambda d: 0.5 ** d[0] * 0.3 ** d[1], 5, 7),
    ([tree_ball(2, 1), tree_ball(2, 2), tree_ball(2, 1)], [geometric(0.4)] * 3, 4, 5),
    ([tree_ball(2, 1)] * 3, [geometric(0.3), geometric(0.2), geometric(0.25)], 6, 4),
], ids=["N2-callable", "N3-sequence-mixed-radii", "N3-sequence-j_tail-binds"])
def test_tree_witness_cells_match_the_per_offset_sums(balls, phi_tilde, cutoff, j_tail):
    # the cutoff is low and the tolerance loose so that both the cutoff and
    # j_tail limits of the offset mask bind on many cells
    w = tree_product_witness(balls, phi_tilde, cutoff, j_tail, tol=1.0)
    cells, max_err, max_tail = reference_tree_cells(balls, phi_tilde, cutoff, j_tail)
    assert w.detail["cells"] == cells
    assert abs(w.reproduction_error - max_err) <= 1e-14
    assert abs(w.tail_bound - max_tail) <= 1e-14


def test_median_witness_product_complex():
    cx = glued(product_graph([tree_ball(2, 2).graph] * 2))
    w = median_witness(cx, geometric(0.5), K=12)
    assert w.reproduction_error <= w.tail_bound + 1e-9
    # worst cell tail: r^(2K - 2 mx + s), bounded by r^(2K - diam)
    assert w.tail_bound <= 2e-6
    assert w.certified >= 1.0


def test_median_witness_degenerate_tree():
    cx = glued(tree_ball(2, 2).graph, length=28)
    w = median_witness(cx, geometric(0.5), K=14)
    # collapses to the one-variable table: trace norm 1 - r^(2K)
    assert w.certified == pytest.approx(1.0 - 0.5 ** 28, abs=1e-9)


def test_median_witness_finite_symbol_zero_tail():
    cx = glued(tree_ball(2, 2).graph, length=28)
    fin = from_table([1.0, 0.5, 0.25, 0.125, 0.0625], tail="ZERO", name="FIN5")
    w = median_witness(cx, fin, K=14)
    # no truncation tail: the bound is the rounding pad alone
    assert w.tail_bound == w.detail["tail_pad"] <= 1e-14
    assert w.reproduction_error <= 1e-10


def test_median_witness_cells_past_the_section_start_their_tail_at_s():
    # with K = 1 some cells have max distance mx > K; they sum no increment,
    # so their tail is the whole telescoping sum from s
    cx = glued(product_graph([tree_ball(2, 2).graph] * 2), length=8)
    w = median_witness(cx, geometric(0.5), K=1, core=range(100), tol=1.0)
    assert w.tail_bound == 0.5 + w.detail["tail_pad"] and w.reproduction_error == 0.5
    cx = glued(product_graph([tree_ball(2, 2).graph] * 2), length=10)
    w = median_witness(cx, geometric(0.5), K=2, core=range(100), tol=1.0)
    assert w.tail_bound == 0.25 + w.detail["tail_pad"] and w.reproduction_error == 0.25


def test_median_witness_tail_covers_its_rounding():
    # the truncated tail sum lands 5.9e-23 under the error 2^-29 here; the
    # rounding pad lifts the bound over it, with no outside allowance
    cube = product_graph([tree_ball(2, 1).graph] * 3)
    w = median_witness(glued(cube, length=34), geometric(0.5), K=16)
    assert w.reproduction_error == 2.0 ** -29
    assert w.reproduction_error <= w.tail_bound
    assert 0.0 < w.detail["tail_pad"] <= 1e-14


def reference_shared_polytope_sum(A, H):
    """The vector identity's left side by the K^2 generator sums."""
    K = A.shape[1]
    return sum(np.abs(A[:, k1]) @ sum(H[j, k1] * A[:, j] for j in range(K)).T
               for k1 in range(K))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
def test_shared_polytope_sum_is_the_generator_sum(chunk):
    rng = np.random.default_rng(9)
    m, K, g = 13, 5, 40
    A = (rng.random((m, K, g)) < 0.1) * rng.choice(np.array([-1, 1], dtype=np.int8),
                                                   size=(m, K, g))
    A = A.astype(np.int8)
    for H in (rng.normal(size=(K, K)), rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))):
        got = mlab._shared_polytope_sum(A, H, chunk)
        want = reference_shared_polytope_sum(A, H)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    assert not mlab._shared_polytope_sum(np.zeros((3, 2, 4), np.int8), H).any()


def reference_increment_tail(symbol, start, cap=4096):
    """One tail by the pointwise loop: |step-2 increments| from `start` on,
    until 8 consecutive terms fall below 1e-17 (1 + running total)."""
    total, quiet = 0.0, 0
    for j in range(cap):
        term = abs(discrete_derivative(symbol, DerivativeSpec(2, 1), start + 2 * j))
        total += term
        quiet = quiet + 1 if term < 1e-17 * (1.0 + total) else 0
        if quiet >= 8:
            return total
    raise TailBoundExceededError(f"increment tail from {start} did not resolve")


@pytest.mark.parametrize("symbol", [
    geometric(0.5), geometric(0.9), geometric(Fraction(1, 3)), geometric(-0.3 + 0.8j),
    alternating_power(30.0), sphere(40),
    from_table([0.8 ** n for n in range(200)], tail="ERROR"),   # the loop reads to 188
    from_table([1.0, 0.5, 0.25, 0.125], tail="ZERO"),
], ids=lambda s: s.label())
def test_increment_tails_are_the_pointwise_loop(symbol):
    starts = [0, 1, 2, 5, 17, 40, 41, 63]
    tails = mlab._increment_tails(symbol, starts)
    assert set(tails) == set(starts)
    for start in starts:
        # the same bits: the table adds in the loop's order
        assert tails[start] == reference_increment_tail(symbol, start)


def test_increment_tails_fail_where_the_loop_fails():
    short = from_table([0.5 ** n for n in range(30)], tail="ERROR")
    with pytest.raises(TailUndefinedError):
        reference_increment_tail(short, 0)
    with pytest.raises(TailUndefinedError):
        mlab._increment_tails(short, [0])
    with pytest.raises(TailBoundExceededError):
        reference_increment_tail(power(0.5), 3)
    with pytest.raises(TailBoundExceededError, match="from 3 did not resolve within 4096"):
        mlab._increment_tails(power(0.5), [3])


@pytest.mark.parametrize("side", ["p", "q"])
def test_median_witness_budget_refusal_names_the_failing_side(monkeypatch, side):
    monkeypatch.setattr(mlab, "polytope_budget", lambda dimension: 0)
    if side == "q":
        # zero columns of Bt make every p-norm 0, so only the q side fails
        real = mlab.polar_factor
        monkeypatch.setattr(mlab, "polar_factor", lambda H: (real(H)[0], 0 * real(H)[1]))
    cx = glued(tree_ball(2, 2).graph, length=28)
    with pytest.raises(StructureViolationError,
                       match=rf"vertex \d+: {side}-norm \S+ above budget 0$"):
        median_witness(cx, geometric(0.5), K=14)


def test_median_witness_checks_the_vector_identity_on_every_pair(monkeypatch):
    cx = glued(product_graph([tree_ball(2, 2).graph] * 2))
    w = median_witness(cx, geometric(0.5), K=12)
    assert w.detail["checked_pairs"] == w.detail["core"] ** 2 == 100 ** 2
    real = mlab._polytopes_in

    def one_polytope_dropped(cx, xs, ks, *args):
        inside, level = real(cx, xs, ks, *args)
        i = int(np.flatnonzero(np.asarray(xs) == 5)[0])
        inside[i, 2, np.flatnonzero(inside[i, 2]).max()] = False
        return inside, level

    monkeypatch.setattr(mlab, "_polytopes_in", one_polytope_dropped)
    with pytest.raises(StructureViolationError, match="vector pairing") as exc:
        median_witness(cx, geometric(0.5), K=12)
    pair = re.match(r"pair \((\d+),(\d+)\)", str(exc.value)).groups()
    assert "5" in pair


def test_median_witness_guards():
    cx = glued(tree_ball(2, 2).graph, length=8)
    with pytest.raises(RayTooShortError):
        median_witness(cx, geometric(0.5), K=12)
    with pytest.raises(ConvergenceError):
        median_witness(glued(tree_ball(2, 2).graph), power(0.5), K=8)


# ---------------------------------------------------------------- sandwich


def test_sandwich_parity_is_pure_limit():
    rep = sandwich_check(parity(), degrees=(3,), radius=2, sdp_tol=1e-5)
    assert abs(rep.hankel_norm) <= 1e-12
    assert abs(rep.c_plus) <= 1e-12
    assert abs(rep.c_minus) == pytest.approx(1.0)
    for row in rep.rows:
        assert row.cb_upper == pytest.approx(1.0, abs=1e-4)


def test_sandwich_geometric_three_regular():
    rep = sandwich_check(geometric(0.5), degrees=(3,), radius=3, sdp_tol=1e-4)
    prev = 0.0
    for row in rep.rows:
        assert row.cb_upper <= row.ceiling + 1e-4
        assert row.cb_upper >= prev - 2e-4
        prev = row.cb_upper
    assert rep.rows[-1].floor_report == pytest.approx(rep.hankel_norm / 3, abs=1e-9)


def test_sandwich_alternating_power_product():
    rep = sandwich_check(alternating_power(1.5), degrees=(3, 3), radius=1,
                         sdp_tol=1e-3)
    assert rep.hankel_verdict == "CONVERGENT"
    assert rep.rows[0].cb_upper <= rep.rows[0].ceiling + 1e-3


def test_sandwich_rejects_bad_degrees():
    with pytest.raises(ValueError):
        sandwich_check(geometric(0.5), degrees=(2,), radius=2)
    with pytest.raises(ValueError):
        sandwich_check(geometric(0.5), degrees=(3,), radius=0)
