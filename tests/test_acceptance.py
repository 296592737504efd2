"""Acceptance suite: one test per headline claim, tolerances pinned.

Each test stands alone and prints a single pass/fail line under -v.  The
heavier checks (SDP brackets, sandwich rows) keep their instance sizes small
enough that the whole file runs in about a minute.
"""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from schurmult.besov import peller_concordance
from schurmult.hankel import (
    HankelSpec,
    binom_half,
    box_section,
    build_hankel,
    build_multiradial_T,
    class_spec,
    fold_unfold,
    lattice_points,
    power_sum,
    rank_one_geom,
    s1_estimate,
    shift_product,
    smoothed_shift,
    sphere_indicator_bound,
    tau_transform,
)
from schurmult.medgraph import (
    attach_ray,
    cayley_ball,
    coset_tree,
    graph_from_edges,
    median,
    median_complex,
    mizuta_vectors,
    pairing,
    polytopes,
    product_graph,
    ray_set,
    serre_embedding,
    serre_shift,
    stable_median_table,
    tree_ball,
)
from schurmult.mlab import (
    cb_norm_sdp,
    median_witness,
    radial_kernel,
    sandwich_check,
    tree_product_witness,
)
from schurmult.symbols import (
    DerivativeSpec,
    alternating_power,
    discrete_derivative,
    from_table,
    geometric,
    imaginary_power,
    integral_derivative_oracle,
    parity,
    partial_sum,
    power,
    sphere,
    weighted_leibniz_check,
)


def glued(graph, at=0, length=12):
    g, ray = attach_ray(graph, at, length)
    return median_complex(g, ray)


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


def test_01_rank_one_geometric_sections_match_closed_form():
    for level in (1, 2, 3):
        for r in (0.1, 0.5, 0.9):
            rep = rank_one_geom(level, r, 400)
            assert rep.closed_form_norm == pytest.approx((1.0 + r) ** -level,
                                                         rel=1e-14)
            assert abs(rep.truncated_norm - rep.closed_form_norm) <= 1e-6


def test_02_anti_diagonal_norms_and_sphere_indicator_bound():
    # each bare anti-diagonal of length l+1 has trace norm exactly l+1
    for l in range(1, 51):
        rep = sphere_indicator_bound(1, l)
        for offset, s in enumerate(rep.d_norms):
            want = (l - len(rep.d_norms) + 1) + offset + 1
            assert int(round(s)) == want
            assert abs(s - want) <= 1e-10 * want
    for level in (1, 2, 3):
        for n in range(level, 13):
            rep = sphere_indicator_bound(level, n)
            assert rep.norm <= rep.bound + 1e-9
            assert rep.bound == 2.0 ** level * (1.0 + n) ** level


def low_rank_singular_values(entries, rank_cap, rng):
    # the section factors through a rank_cap-dimensional space, so a
    # certified range finder replaces the dense svd
    n = entries.shape[0]
    sample = entries @ rng.standard_normal((n, rank_cap + 9))
    basis, _ = np.linalg.qr(sample)
    reduced = basis.conj().T @ entries
    resid = float(np.linalg.norm(entries - basis @ reduced))
    return np.linalg.svd(reduced, compute_uv=False), resid


def test_03_folding_preserves_nonzero_singular_values():
    rng = np.random.default_rng(17)
    symbols = [geometric(0.5), power(1.5), alternating_power(2.5),
               imaginary_power(1.0), partial_sum(2)]
    for dim in (2, 3):
        for sym in symbols:
            T = build_multiradial_T(sym, dim, 20, step=2)
            H = fold_unfold("fold", T, dim)
            ref = build_hankel(
                HankelSpec(sym, DerivativeSpec(2, dim), binom_half(dim)), 21)
            assert np.allclose(H.entries, ref.entries, rtol=1e-10, atol=1e-13)
            sv_H = np.linalg.svd(H.entries, compute_uv=False)
            if dim == 2:
                sv_T = np.linalg.svd(T.entries, compute_uv=False)
            else:
                sv_T, resid = low_rank_singular_values(T.entries, 21, rng)
                assert resid <= 1e-10 * max(sv_H[0], 1e-30)
            scale = max(sv_H[0], 1e-30)
            assert np.allclose(sv_T[: len(sv_H)], sv_H, atol=1e-10 * scale,
                               rtol=0)
            assert np.all(sv_T[len(sv_H):] < 1e-10 * scale)


def test_04_smoothed_shift_traces_convert_to_plain_shifts():
    rng = np.random.default_rng(23)
    side = 6
    configs = ((1, (2,), 60), (1, (3,), 60), (2, (2, 3), 80))
    for dim, q, trials in configs:
        support = [(m, n)
                   for m in lattice_points(dim, 2 * dim) if max(m) <= 2
                   for n in lattice_points(dim, 2 * dim) if max(n) <= 2]
        smoothed = {w: smoothed_shift(w[0], w[1], q, side).entries
                    for w in support}
        plain = {w: shift_product(w[0], w[1], side).entries for w in support}
        inflation = 1.0
        for qi in q:
            inflation *= (qi + 1.0) / (qi - 1.0)
        for _ in range(trials):
            values = {}
            for pair in support:
                v = int(rng.integers(-3, 4))
                if v:
                    values[pair] = float(v)
            T = box_section(values, dim, side)
            Tp = tau_transform(T, q)
            for w in support:
                lhs = np.einsum("ij,ji->", smoothed[w], T.entries)
                rhs = np.einsum("ij,ji->", plain[w], Tp.entries)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
            assert Tp.trace_norm() <= inflation * T.trace_norm() + 1e-9


def test_05_group_ball_embeds_in_coset_tree_with_doubled_distance():
    ball = cayley_ball(4)
    assert ball.size == 511
    emb = serre_embedding(ball)
    assert emb.check
    sh = serre_shift(coset_tree(4))
    is_word = ["G" not in s for s in sh.tree.labels]
    shifted = {j for v, j in enumerate(sh.image) if j is not None and is_word[v]}
    cosets = {v for v in range(sh.tree.size) if not is_word[v]}
    assert shifted == cosets


def test_06_median_complex_combinatorics():
    p2 = product_graph([tree_ball(2, 2).graph] * 2)
    p3 = product_graph([tree_ball(2, 1).graph] * 3)
    corpus = [(glued(p2), p2.size), (glued(p3), p3.size),
              (glued(lshape_graph()), lshape_graph().size)]
    rng = np.random.default_rng(31)

    for cx, core in corpus:
        n = cx.graph.size
        dim = cx.dimension
        if core <= 10:
            triples = np.array(list(itertools.product(range(n), repeat=3)))
        else:
            triples = rng.integers(0, n, size=(100000, 3))
        median(cx, *triples.T)   # raises unless every median is unique

        for x in range(core):
            for k in range(5):
                assert len(ray_set(cx, x, k)) <= comb(dim - 1 + k, dim - 1)
        for x in range(0, core, 3):
            for k in range(5):
                rep = polytopes(cx, x, k)
                for (_, i), back in rep.predecessors.items():
                    assert len(back) <= dim ** i

        table = stable_median_table(cx, range(core))
        dist = cx.graph.distances
        vecs = {(x, k): mizuta_vectors(cx, x, k)
                for x in range(core) for k in range(5)}
        for x1 in range(core):
            for x2 in range(core):
                m = table[x1, x2]
                l1, l2 = dist[x1, m], dist[x2, m]
                for k1 in range(5):
                    a = vecs[(x1, k1)].unsigned
                    for k2 in range(5):
                        got = pairing(a, vecs[(x2, k2)].alternating)
                        want = 1 if (k1 - l1 == k2 - l2 and k1 >= l1) else 0
                        assert got == want


def test_07_factorization_witnesses_reproduce_their_kernels():
    sym = geometric(0.5)
    ball = tree_ball(2, 3)

    w1 = tree_product_witness([ball], sym, 16, 14)
    assert w1.reproduction_error <= w1.tail_bound + 1e-12
    assert w1.reproduction_error < 1e-6

    # per-axis depth 16 needs a graded cutoff of 32 in two variables
    w2 = tree_product_witness([ball] * 2, lambda d: sym(d[0]) * sym(d[1]),
                              32, 14)
    assert w2.reproduction_error <= w2.tail_bound + 1e-12
    assert w2.reproduction_error < 1e-6

    m1 = median_witness(glued(ball.graph, length=34), sym, K=16,
                        core=range(ball.graph.size))
    assert m1.reproduction_error <= m1.tail_bound + 1e-12
    assert m1.reproduction_error < 1e-6

    p2 = product_graph([ball.graph] * 2)
    m2 = median_witness(glued(p2, length=34), sym, K=16,
                        core=range(0, p2.size, 5))
    assert m2.reproduction_error <= m2.tail_bound + 1e-12
    assert m2.reproduction_error < 1e-6

    # where the kernel is small enough, the SDP bracket must sit below the
    # certified factorization value
    res = cb_norm_sdp(radial_kernel(ball.graph, sym), tol=1e-4)
    assert w1.certified >= res.lower - 1e-4

    L = lshape_graph()
    mL = median_witness(glued(L, length=34), sym, K=16, core=range(L.size))
    resL = cb_norm_sdp(radial_kernel(L, sym), tol=1e-4)
    assert mL.certified >= resL.lower - 1e-4


def test_08_multiplier_norm_brackets_and_monotonicity():
    res = cb_norm_sdp(np.ones((8, 8)), tol=1e-6)
    assert abs(0.5 * (res.lower + res.upper) - 1.0) <= 1e-6

    signs = np.array([(-1.0) ** i for i in range(8)])
    res = cb_norm_sdp(np.outer(signs, signs), tol=1e-6)
    assert abs(0.5 * (res.lower + res.upper) - 1.0) <= 1e-6

    rng = np.random.default_rng(41)
    for n in (4, 5, 6):
        u = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.random(n))
        v = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.random(n))
        want = np.abs(u).max() * np.abs(v).max()
        res = cb_norm_sdp(np.outer(u, v), tol=1e-6)
        assert abs(0.5 * (res.lower + res.upper) - want) <= 1e-6
        assert res.lower <= want + 1e-6 <= res.upper + 2e-6

    # removing rows and columns can only shrink the certified bracket
    for _ in range(50):
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        full = cb_norm_sdp(B, tol=1e-3)
        keep = sorted(rng.choice(n, size=m, replace=False))
        sub = cb_norm_sdp(B[np.ix_(keep, keep)], tol=1e-3)
        assert sub.lower <= full.upper + 1e-9


def test_09_ball_kernel_norms_stay_under_section_ceiling():
    for sym in (geometric(0.5), alternating_power(1.5)):
        for degrees, radius in (((3,), 3), ((3, 3), 2)):
            rep = sandwich_check(sym, degrees, radius)
            uppers = [row.cb_upper for row in rep.rows]
            for row in rep.rows:
                assert row.cb_upper <= row.ceiling + 1e-4
            for a, b in zip(uppers, uppers[1:]):
                assert b >= a - 2e-4


def test_10_growth_verdicts_separate_the_class_levels():
    sizes = (64, 128, 256, 512)
    for alpha, at, above in ((1.5, 1, 3), (2.5, 2, 4)):
        sym = alternating_power(alpha)
        assert s1_estimate(class_spec(sym, at, "B"), sizes,
                           1e-3).verdict == "CONVERGENT"
        assert s1_estimate(class_spec(sym, above, "B"), sizes,
                           1e-3).verdict == "DIVERGENT"

    deep = (128, 256, 512, 1024)
    for n in (1, 2):
        sym = partial_sum(n)
        assert s1_estimate(class_spec(sym, n, "C"), deep,
                           2e-2).verdict == "CONVERGENT"
        assert s1_estimate(class_spec(sym, n + 1, "C"), deep,
                           2e-2).verdict == "DIVERGENT"

    assert s1_estimate(class_spec(power(0.5), 2, "C"), sizes,
                       1e-3).verdict == "DIVERGENT"
    # three step-2 differences beat the 2 - 0.5 deficit and restore summability
    variant = HankelSpec(power(0.5), DerivativeSpec(2, 3), power_sum(1), "RAW")
    assert s1_estimate(variant, sizes, 1e-3).verdict == "CONVERGENT"

    zero = s1_estimate(class_spec(parity(), 1, "C"), sizes, 1e-3)
    assert zero.verdict == "CONVERGENT" and set(zero.values) == {0.0}
    diag = s1_estimate(class_spec(parity(), 1, "B"), sizes, 1e-3)
    assert diag.verdict == "DIVERGENT" and diag.detail["diag_certificate"]


def test_11_series_and_section_verdicts_never_contradict():
    for level in (1, 2):
        family = []
        for sym in (geometric(0.5), parity(), alternating_power(level + 0.5),
                    imaginary_power(1.0), power(1.5), partial_sum(level),
                    sphere(4), from_table([1.0, 0.5, 0.25], "ZERO")):
            for tag in ("A", "B", "C"):
                family.append((sym, tag))
        rep = peller_concordance(family, level, [64, 128, 256, 512], 10, 1e-3)
        assert not any(row.agree is False for row in rep.rows)
        assert sum(row.agree is not None for row in rep.rows) >= 15


def test_12_difference_calculus_identities():
    rng = np.random.default_rng(53)

    def iterated(table, step, order):
        vals = list(table)
        for _ in range(order):
            vals = [vals[i] - vals[i + step] for i in range(len(vals) - step)]
        return vals

    for _ in range(40):
        table = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                 for _ in range(14)]
        for step in (1, 2):
            for order in range(1, 5):
                direct = iterated(table, step, order)
                for n in range(len(direct)):
                    spec = DerivativeSpec(step, order)
                    assert discrete_derivative(table, spec, n) == direct[n]

    for _ in range(1000):
        table = [int(rng.integers(-5, 6)) for _ in range(12)]
        n = int(rng.integers(0, 5))
        order = int(rng.integers(1, 5))
        assert weighted_leibniz_check(table, n, order)

    for beta in (0.4, 0.7, 1.3, 2.2):
        sym = power(beta)
        for order in (1, 2, 3):
            for n in (0, 3, 10):
                direct = discrete_derivative(sym, DerivativeSpec(2, order), n)
                oracle = integral_derivative_oracle(sym, order, n)
                assert abs(direct - oracle) <= 1e-8
