"""Tests for the weighted Hankel and lattice sections."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import hankel
from schurmult.errors import (
    NotRealError,
    StructureViolationError,
    TailUndefinedError,
)
from schurmult.hankel import (
    DerivativeSpec,
    HankelSpec,
    TruncatedMatrix,
    binom_half,
    bonsall_test,
    box_section,
    build_hankel,
    build_multiradial_T,
    class_spec,
    even_subsample,
    fold_unfold,
    lattice_points,
    parity_lift,
    power_split,
    power_sum,
    radial_lift,
    rank_one_geom,
    s1_estimate,
    series_tail_flag,
    shell_size,
    shift_product,
    smoothed_shift,
    sphere_indicator_bound,
    tau_transform,
    weight_equivalence,
    WeightScheme,
)
from schurmult.symbols import (
    alternating_power,
    discrete_derivative,
    from_table,
    geometric,
    imaginary_power,
    parity,
    partial_sum,
    power,
    sphere,
)


def hankel_points(K):
    return tuple((i,) for i in range(K))


# ---------------------------------------------------------------- weights


def test_weight_schemes():
    w = binom_half(2)
    # binom(2+i-1, 1) = i+1, so the pair weight is sqrt((i+1)(j+1))
    assert w.pair(3, 0) == pytest.approx(2.0)
    assert w.pair(3, 3) == pytest.approx(4.0)
    assert power_split(0.5, 0.5).pair(3, 3) == pytest.approx(4.0)
    assert power_sum(2).pair(1, 2) == 16.0
    assert power_sum(2).pair_exact(1, 2) == 16
    assert binom_half(1).pair_exact(5, 7) == 1
    with pytest.raises(ValueError):
        power_split(-0.5, 0.0)
    with pytest.raises(ValueError):
        binom_half(0)
    with pytest.raises(ValueError):
        WeightScheme("DIAGONAL", (1,))
    with pytest.raises(ValueError):
        binom_half(2).pair_exact(1, 2)


def test_class_spec_shapes():
    spec = class_spec(geometric(0.5), 3, "A")
    assert spec.derivative == DerivativeSpec(2, 3)
    assert spec.weight == power_sum(2)
    assert class_spec(geometric(0.5), 3, "B").derivative == DerivativeSpec(1, 3)
    assert class_spec(geometric(0.5), 3, "C").derivative == DerivativeSpec(2, 1)
    with pytest.raises(ValueError):
        HankelSpec(geometric(0.5), DerivativeSpec(1, 2), power_sum(0), "A")
    with pytest.raises(ValueError):
        HankelSpec(geometric(0.5), DerivativeSpec(2, 2), power_sum(0), "C")
    with pytest.raises(ValueError):
        class_spec(geometric(0.5), 1, "D")


# ---------------------------------------------------------------- Hankel builds


def test_build_hankel_geometric_rank_one():
    r = Fraction(1, 2)
    H = build_hankel(class_spec(geometric(r), 1, "B"), 4, exact=True)
    for i in range(4):
        for j in range(4):
            assert H.entries[i, j] == (1 - r) * r ** (i + j)


def test_build_hankel_matches_rank_one_report():
    rep = rank_one_geom(2, 0.3, 12)
    spec = HankelSpec(geometric(0.3), DerivativeSpec(1, 2), binom_half(2), "B")
    H = build_hankel(spec, 12)
    assert np.allclose(H.entries, rep.matrix.entries, rtol=1e-13, atol=0)
    assert rep.closed_form_norm == pytest.approx(1.3 ** -2)


def test_rank_one_geom_truncation_converges():
    rep = rank_one_geom(3, 0.9, 400)
    assert abs(rep.truncated_norm - 1.9 ** -3) < 1e-8
    assert rep.matrix.trace_norm() == pytest.approx(rep.truncated_norm, abs=1e-10)
    with pytest.raises(ValueError):
        rank_one_geom(1, 1.0, 10)


def test_build_hankel_parity_class_c_zero():
    H = build_hankel(class_spec(parity(), 2, "C"), 8, exact=True)
    assert all(v == 0 for v in H.entries.ravel())


def test_build_hankel_sphere_band():
    H = build_hankel(class_spec(sphere(3), 1, "B"), 5, exact=True)
    for i in range(5):
        for j in range(5):
            expect = 1 if i + j == 3 else (-1 if i + j == 2 else 0)
            assert H.entries[i, j] == expect


def test_build_hankel_tail_and_size_errors():
    short = from_table([1, 2, 3], tail="ERROR")
    with pytest.raises(TailUndefinedError):
        build_hankel(class_spec(short, 1, "B"), 4)
    with pytest.raises(ValueError):
        build_hankel(class_spec(geometric(0.5), 1, "B"), 0)


# ---------------------------------------------------------------- lattice builds


def test_lattice_points_graded_lex():
    assert lattice_points(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    pts = lattice_points(3, 5)
    assert len(pts) == math.comb(8, 3)
    assert [shell_size(2, i) for i in range(4)] == [1, 2, 3, 4]


def test_multiradial_fast_path_matches_subset_sum():
    sym = geometric(Fraction(2, 3))
    for dim in (1, 2, 3):
        fast = build_multiradial_T(sym, dim, 5, step=2, exact=True)
        slow = build_multiradial_T(radial_lift(sym), dim, 5, step=2, exact=True)
        assert fast.points == slow.points and fast.entries.dtype == object
        assert all(a == b and type(a) is Fraction
                   for a, b in zip(fast.entries.ravel(), slow.entries.ravel()))

    sym = alternating_power(1.5)
    fast = build_multiradial_T(sym, 2, 5, step=2)
    slow = build_multiradial_T(radial_lift(sym), 2, 5, step=2)
    assert np.allclose(fast.entries, slow.entries, rtol=1e-13, atol=1e-15)


def test_multiradial_dimension_one_is_hankel():
    sym = alternating_power(0.5)
    T = build_multiradial_T(sym, 1, 10, step=1)
    H = build_hankel(HankelSpec(sym, DerivativeSpec(1, 1), power_sum(0)), 11)
    assert np.array_equal(T.entries, H.entries)


def test_multiradial_separable_symbol_vanishes():
    f = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7]
    g = [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0]

    def phi(v):
        return f[v[0]] + g[v[1]]

    T = build_multiradial_T(phi, 2, 3, step=2, exact=True)
    assert all(v == 0 for v in T.entries.ravel())
    T = build_multiradial_T(phi, 2, 4, step=1, exact=True)
    assert all(v == 0 for v in T.entries.ravel())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("step", [1, 2])
def test_multiradial_symbol_sequence_is_the_pointwise_product(dim, step):
    syms = [geometric(Fraction(1, 2)),
            from_table([Fraction(3), Fraction(-1, 2), Fraction(2, 3), Fraction(1, 5)],
                       tail="ZERO"),
            geometric(Fraction(2, 3))][:dim]

    def product(v):
        return math.prod(f(t) for f, t in zip(syms, v))

    T = build_multiradial_T(syms, dim, 3, step=step, exact=True)
    ref = build_multiradial_T(product, dim, 3, step=step, exact=True)
    assert T.points == ref.points
    assert any(v != 0 for v in T.entries.ravel())
    assert all(a == b for a, b in zip(T.entries.ravel(), ref.entries.ravel()))
    assert T.provenance["spec"].startswith("product[GEOM(1/2),TABLE(4,ZERO)")


def test_multiradial_callable_is_read_below_the_section_totals():
    # corners of the cutoff-4 section reach total 2*4 + 2*2 = 12, the last
    # table entry; the rest of the 11 x 11 box would pass the ERROR tail
    sym = from_table([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9], tail="ERROR")
    lifted = build_multiradial_T(radial_lift(sym), 2, 4)
    fast = build_multiradial_T(sym, 2, 4)
    assert lifted.points == fast.points
    assert np.array_equal(lifted.entries, fast.entries)


# ---------------------------------------------------------------- fold / unfold


def test_fold_matches_weighted_hankel():
    sym = geometric(0.6)
    T = build_multiradial_T(sym, 2, 12, step=2)
    H = fold_unfold("fold", T, 2)
    ref = build_hankel(HankelSpec(sym, DerivativeSpec(2, 2), binom_half(2)), 13)
    assert np.allclose(H.entries, ref.entries, rtol=1e-12, atol=1e-15)


def test_fold_unfold_roundtrip_and_singular_values():
    sym = geometric(0.6)
    T = build_multiradial_T(sym, 3, 10, step=2)
    H = fold_unfold("fold", T, 3)
    back = fold_unfold("unfold", H, 3)
    assert np.allclose(back.entries, T.entries, rtol=1e-12, atol=1e-15)

    sv_T = np.linalg.svd(T.entries, compute_uv=False)
    sv_H = np.linalg.svd(H.entries, compute_uv=False)
    scale = sv_T[0]
    assert np.allclose(sv_T[: len(sv_H)], sv_H, atol=1e-10 * scale, rtol=0)
    assert np.all(sv_T[len(sv_H):] < 1e-10 * scale)
    assert abs(T.trace_norm() - H.trace_norm()) < 1e-10 * scale


def test_fold_dimension_one_is_identity():
    T = build_multiradial_T(geometric(0.5), 1, 8, step=2)
    H = fold_unfold("fold", T, 1)
    assert np.array_equal(H.entries, T.entries)


def test_fold_rejects_non_radial():
    T = build_multiradial_T(geometric(0.5), 2, 4, step=2)
    broken = T.entries.copy()
    broken[1, 2] += 0.1
    with pytest.raises(StructureViolationError):
        fold_unfold("fold", TruncatedMatrix(broken, T.points, {}), 2)
    with pytest.raises(ValueError):
        fold_unfold("sideways", T, 2)


# ---------------------------------------------------------------- even subsample


def test_even_subsample_recovers_step_one():
    r = Fraction(1, 2)
    sym = geometric(r)
    T = build_multiradial_T(parity_lift(sym), 1, 12, step=2, exact=True)
    out = even_subsample(T, 1)
    for a, m in enumerate(out.points):
        for b, n in enumerate(out.points):
            assert out.entries[a, b] == (1 - r) * r ** (m[0] + n[0])


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-5, 5), min_size=11, max_size=11))
def test_even_subsample_exact_identity(table):
    sym = from_table(table, tail="ERROR")
    T = build_multiradial_T(parity_lift(sym), 2, 4, step=2, exact=True)
    out = even_subsample(T, 2)
    spec = DerivativeSpec(1, 2)
    for a, m in enumerate(out.points):
        for b, n in enumerate(out.points):
            assert out.entries[a, b] == discrete_derivative(sym, spec, sum(m) + sum(n))


def test_even_subsample_norm_and_errors():
    sym = geometric(0.7)
    T = build_multiradial_T(parity_lift(sym), 2, 8, step=2)
    out = even_subsample(T, 2)
    assert out.trace_norm() <= T.trace_norm() + 1e-9
    with pytest.raises(TailUndefinedError):
        even_subsample(box_section({}, 2, 3), 2)


# ---------------------------------------------------------------- shift words


def test_smoothed_shift_plain_forward():
    S = smoothed_shift((1,), (0,), (2,), 5)
    expect = np.zeros((5, 5))
    for a in range(1, 5):
        expect[a, a - 1] = 1.0
    assert np.array_equal(S.entries, expect)


def test_smoothed_shift_diagonal_example():
    S = smoothed_shift((1,), (1,), (2,), 6)
    expect = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert np.allclose(S.entries, expect, atol=1e-15)


def test_smoothed_shift_tensor_pattern():
    S = smoothed_shift((1, 0), (0, 0), (2, 2), 3)
    one = smoothed_shift((1,), (0,), (2,), 3).entries
    assert np.array_equal(S.entries, np.kron(one, np.eye(3)))
    with pytest.raises(ValueError):
        smoothed_shift((1,), (0, 0), (2, 2), 3)
    with pytest.raises(ValueError):
        smoothed_shift((1,), (0,), (1,), 3)
    with pytest.raises(ValueError):
        smoothed_shift((4,), (0,), (2,), 3)


def test_tau_transform_rank_one_example():
    T = box_section({((0,), (0,)): 1.0}, 1, 4)
    out = tau_transform(T, (2,))
    expect = np.zeros((4, 4))
    expect[0, 0] = 2.0
    expect[1, 1] = -1.0
    assert np.allclose(out.entries, expect, atol=1e-15)
    assert np.allclose(tau_transform(box_section({}, 1, 4), (2,)).entries, 0.0)


def test_tau_transform_trace_identity():
    # Tr(smoothed(m,n) T) = Tr(S^m S*^n T'), checked over random supports
    rng = np.random.default_rng(7)
    dim, side, q = 2, 6, (2, 3)
    support = [(m, n) for m in lattice_points(2, 4) if max(m) <= 2
               for n in lattice_points(2, 4) if max(n) <= 2]
    words = [(m, n) for (m, n) in support]
    smoothed = {w: smoothed_shift(w[0], w[1], q, side).entries for w in words}
    plain = {w: shift_product(w[0], w[1], side).entries for w in words}
    inflation = 3.0 * 2.0  # (q+1)/(q-1) per axis
    for _ in range(200):
        values = {}
        for pair in support:
            v = int(rng.integers(-3, 4))
            if v:
                values[pair] = float(v)
        T = box_section(values, dim, side)
        Tp = tau_transform(T, q)
        assert Tp.entries.shape == T.entries.shape
        for w in words:
            lhs = np.einsum("ij,ji->", smoothed[w], T.entries)
            rhs = np.einsum("ij,ji->", plain[w], Tp.entries)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
        assert Tp.trace_norm() <= inflation * T.trace_norm() + 1e-9


def test_tau_transform_validation():
    T = box_section({((0, 0), (0, 0)): 1.0}, 2, 3)
    with pytest.raises(ValueError):
        tau_transform(T, (2,))
    with pytest.raises(ValueError):
        tau_transform(T, (2, 1))
    simplex = build_multiradial_T(geometric(0.5), 2, 3, step=2)
    with pytest.raises(StructureViolationError):
        tau_transform(simplex, (2, 2))


# ---------------------------------------------------------------- estimates


def test_s1_estimate_geometric_converges():
    est = s1_estimate(class_spec(geometric(0.5), 1, "B"), [25, 50, 100, 200], 1e-6)
    assert est.verdict == "CONVERGENT"
    assert est.values[-1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert est.cauchy_gap < 1e-12
    assert not est.detail["diag_certificate"]


def test_s1_estimate_zero_matrix_converges():
    est = s1_estimate(class_spec(parity(), 2, "C"), [10, 20, 40], 1e-9)
    assert est.verdict == "CONVERGENT"
    assert est.values == (0.0, 0.0, 0.0)


def test_s1_estimate_alternating_diagonal_certificate():
    # level 2 weight against decay (n+1)^(-2): the weighted diagonal is ~ 1/i
    est = s1_estimate(class_spec(alternating_power(1.0), 2, "B"), [40, 80, 160], 1e-6)
    assert est.verdict == "DIVERGENT"
    assert est.detail["diag_certificate"]
    assert est.detail["diag_ratio"] >= 0.85


def test_s1_estimate_growth_rule():
    def builder(K):
        return TruncatedMatrix(np.fliplr(np.eye(K)), hankel_points(K), {})

    est = s1_estimate(builder, [8, 16, 32, 64, 96], 1e-6)
    assert est.verdict == "DIVERGENT"
    assert est.detail["growth_trigger"]
    assert not est.detail["diag_certificate"]


def test_s1_estimate_validation():
    with pytest.raises(ValueError):
        s1_estimate(class_spec(geometric(0.5), 1, "B"), [10], 1e-6)
    with pytest.raises(ValueError):
        s1_estimate(class_spec(geometric(0.5), 1, "B"), [10, 10], 1e-6)
    with pytest.raises(TypeError):
        s1_estimate("not a spec", [10, 20], 1e-6)


@pytest.mark.parametrize("spec", [
    class_spec(sphere(3), 1, "B"),
    class_spec(sphere(2), 2, "A"),
    class_spec(from_table([1.0, 0.5, 0.25], "ZERO"), 1, "A"),
    class_spec(from_table([1.0, 0.5, 0.25], "ZERO"), 2, "C"),
], ids=lambda spec: spec.label())
def test_s1_estimate_cuts_exact_zero_tails_with_no_allowance(spec):
    sizes = (4, 8, 64, 512)
    est = s1_estimate(spec, sizes, 1e-6)
    assert est.detail["cut_allowance"] == (0.0,) * 4
    assert len(set(est.detail["cuts"])) == 1 and est.detail["cuts"][0] <= 4
    for K, value in zip(sizes, est.values):
        want = svd_trace_norm(build_hankel(spec, K).as_numeric())
        assert value == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_s1_estimate_cut_stays_within_its_allowance(eigvalsh_calls):
    spec = class_spec(geometric(0.9), 1, "A")
    sizes = (64, 512, 1024)
    est = s1_estimate(spec, sizes, 1e-6)
    cuts, allowances = est.detail["cuts"], est.detail["cut_allowance"]
    assert cuts[0] == 64 and allowances[0] == 0.0
    assert cuts[1] == cuts[2] < 512 and 0.0 < allowances[1] <= allowances[2]
    # sizes that cut to one block solve it once, without a memo
    assert len(eigvalsh_calls) == 2
    for K, value, allowance in zip(sizes, est.values, allowances):
        want = svd_trace_norm(build_hankel(spec, K).as_numeric())
        assert abs(value - want) <= allowance + 1e-14 * want
    # the cut reads the 2K - 1 values: no K x K temporary at K = 4096
    tracemalloc.start()
    try:
        s1_estimate(class_spec(geometric(0.5), 1, "A"), (64, 4096), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 4096


def test_series_tail_flag():
    flag, _ = series_tail_flag([(n + 1.0) ** -1.5 for n in range(256)])
    assert flag
    flag, _ = series_tail_flag([1.0 / (n + 1.0) for n in range(256)])
    assert not flag
    flag, _ = series_tail_flag([0.0] * 8)
    assert flag


def svd_trace_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the calls made to numpy.linalg.eigvalsh."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("spec", [
    class_spec(geometric(0.5), 2, "A"),
    class_spec(parity(), 1, "B"),
    class_spec(alternating_power(2.5), 2, "C"),
    class_spec(power(1.5), 1, "B"),
    HankelSpec(geometric(0.3), DerivativeSpec(1, 2), binom_half(2), "B"),
], ids=lambda spec: spec.label())
def test_trace_norm_of_symmetric_sections_matches_svd(spec):
    for K in (1, 7, 64, 200):
        sec = build_hankel(spec, K).as_numeric()
        want = svd_trace_norm(sec)
        assert hankel._trace_norm(sec) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_trace_norm_takes_svd_path_off_real_symmetric(eigvalsh_calls):
    split = build_hankel(HankelSpec(geometric(0.5), DerivativeSpec(1, 1), power_split(0, 1)), 32)
    assert not np.array_equal(split.entries, split.entries.T)
    rotated = build_hankel(class_spec(imaginary_power(1.0), 1, "B"), 32)
    assert np.iscomplexobj(rotated.entries)
    for T in (split, rotated):
        assert hankel._trace_norm(T.entries) == svd_trace_norm(T.entries)
        assert T.trace_norm() == svd_trace_norm(T.entries)
    assert len(eigvalsh_calls) == 0
    symmetric = build_hankel(class_spec(geometric(0.5), 1, "B"), 32)
    symmetric.trace_norm()
    assert len(eigvalsh_calls) == 1


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the calls made to numpy.linalg.svd."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def undo_phase(section):
    """conj(D) S conj(D) with D = diag(i^k)."""
    k = np.arange(section.shape[0])
    return section * (-1j) ** ((k[:, None] + k[None, :]) % 4)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("tag", ["A", "C"])
def test_phase_reduced_sections_match_svd(tag, level, eigvalsh_calls, svd_calls):
    spec = class_spec(imaginary_power(1.0), level, tag)
    sizes = [1, 7, 64, 512]
    est = s1_estimate(spec, sizes, 1e-3)
    assert est.detail["paths"] == ("phase",) * 4
    assert len(eigvalsh_calls) == 4 and len(svd_calls) == 0
    for K, value, allowance in zip(sizes, est.values, est.detail["phase_allowance"]):
        sec = build_hankel(spec, K).entries
        assert np.iscomplexobj(sec)
        assert value == pytest.approx(svd_trace_norm(sec), rel=1e-12)
        assert allowance == math.sqrt(K) * float(np.linalg.norm(undo_phase(sec).imag))
    assert est.detail["phase_allowance"][-1] > 0.0


def test_unaligned_complex_sections_keep_the_svd(eigvalsh_calls):
    rng = np.random.default_rng(5)
    z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    sections = [z + z.T]
    for level in (1, 2):
        sections.append(build_hankel(class_spec(imaginary_power(1.0), level, "B"), 64).entries)
    for sec in sections:
        assert np.array_equal(sec, sec.T)
        assert hankel._section_norm(sec) == (svd_trace_norm(sec), "svd", 0.0)
    est = s1_estimate(class_spec(imaginary_power(1.0), 2, "B"), [8, 16], 1e-3)
    assert est.detail["paths"] == ("svd", "svd")
    assert len(eigvalsh_calls) == 0


def test_zero_sections_take_no_eigensolver(eigvalsh_calls, svd_calls):
    for zero in (np.zeros((6, 6)), np.zeros((6, 6), dtype=complex), np.zeros((3, 5))):
        assert hankel._section_norm(zero) == (0.0, "zero", 0.0)
    # step-2 differences of (-1)^n vanish
    est = s1_estimate(class_spec(parity(), 2, "A"), [8, 16, 32], 1e-3)
    assert est.values == (0.0, 0.0, 0.0)
    assert est.detail["paths"] == ("zero",) * 3
    assert len(eigvalsh_calls) == len(svd_calls) == 0


CATALOG_SYMBOLS = [
    geometric(0.5), geometric(Fraction(1, 3)), geometric(0.5j), parity(),
    alternating_power(1.5), imaginary_power(1.0), power(1.5), power(0.0),
    partial_sum(2), sphere(3),
    from_table([0.5, -0.25, 1e-3, -0.0, 2.0], tail="ZERO"),
    from_table([1, Fraction(1, 2), 3], tail="CONSTANT"),
]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("tag", ["A", "B", "C"])
@pytest.mark.parametrize("symbol", CATALOG_SYMBOLS, ids=lambda s: s.label())
def test_table_built_sections_are_bitwise_the_per_value_ones(symbol, tag, level):
    spec = class_spec(symbol, level, tag)
    for K in (1, 9, 64):
        vals = [discrete_derivative(symbol, spec.derivative, n) for n in range(2 * K - 1)]
        svals = np.asarray(vals, dtype=float if symbol.real else complex)
        total = np.add.outer(np.arange(K), np.arange(K))
        want = (1.0 + total) ** (level - 1) * svals[total]
        got = build_hankel(spec, K).entries
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_table_built_exact_sections_stay_exact():
    for symbol in (geometric(Fraction(1, 3)), parity(), sphere(2)):
        spec = class_spec(symbol, 2, "A")
        got = build_hankel(spec, 5, exact=True).entries
        assert got.dtype == object
        for i in range(5):
            for j in range(5):
                want = (1 + i + j) * discrete_derivative(symbol, spec.derivative, i + j)
                assert got[i, j] == want and type(got[i, j]) is type(want)
    assert isinstance(build_hankel(class_spec(geometric(Fraction(1, 3)), 1, "B"), 3,
                                   exact=True).entries[2, 2], Fraction)


# ---------------------------------------------------------------- Bonsall


def test_bonsall_monotone_power():
    rep = bonsall_test(power(1.5), "MONOTONE", 256)
    assert rep.satisfied and rep.converged
    assert rep.statistic == pytest.approx(sum((n + 1.0) ** -1.5 for n in range(257)))
    rep = bonsall_test(power(0.9), "MONOTONE", 256)
    assert rep.satisfied and not rep.converged


def test_bonsall_monotone_rejects():
    rep = bonsall_test(parity(), "MONOTONE", 64)
    assert not rep.satisfied
    with pytest.raises(NotRealError):
        bonsall_test(imaginary_power(1.0), "MONOTONE", 16)
    with pytest.raises(ValueError):
        bonsall_test(power(1.0), "SOMETHING", 16)


def test_bonsall_weighted_alternating():
    alt = alternating_power(2.5)
    spec = DerivativeSpec(1, 2)

    def weighted(s):
        return [(1.0 + n) ** s * discrete_derivative(alt, spec, n) for n in range(513)]

    rep = bonsall_test(weighted(0.9), "WEIGHTED", 512)  # s < alpha - 1
    assert rep.satisfied
    rep = bonsall_test(weighted(2.5), "WEIGHTED", 512)  # s = alpha
    assert not rep.satisfied
    rep = bonsall_test([0.0] * 301, "WEIGHTED", 300)
    assert rep.satisfied and rep.statistic == 0.0


def reference_bonsall_weighted_terms(a, K):
    """WEIGHTED's terms by the pointwise loop."""
    fn = hankel._as_fn(a)
    vals = [fn(n) for n in range(K + 1)]
    return [abs(vals[n - 1] - vals[n]) * n * math.log(n) for n in range(2, K + 1)]


@pytest.mark.parametrize("a", [
    alternating_power(2.5), geometric(0.7), geometric(-0.3 + 0.8j), imaginary_power(1.0),
    power(0.5), parity(), [0.0] * 301, [(-1) ** n * n for n in range(301)],
    [complex(math.cos(n), math.sin(n)) / (1 + n) for n in range(301)],
], ids=lambda a: a.label() if hasattr(a, "label") else type(a[1]).__name__)
@pytest.mark.parametrize("K", [0, 1, 2, 17, 300])
def test_bonsall_weighted_is_the_pointwise_loop(a, K):
    terms = reference_bonsall_weighted_terms(a, K)
    flag, sums = hankel.series_tail_flag(terms)
    rep = bonsall_test(a, "WEIGHTED", K)
    # the same bits: table differences, hypot for the modulus, math.log
    assert rep.statistic == float(sum(terms))
    assert rep.satisfied == flag and rep.converged == flag
    assert rep.window_sums == sums


# ---------------------------------------------------------------- reports


def test_class_membership_smoke():
    est = s1_estimate(class_spec(geometric(0.5), 1, "B"), [20, 40, 80], 1e-8)
    assert est.verdict == "CONVERGENT"


def test_sphere_indicator_bound():
    rep = sphere_indicator_bound(1, 1)
    # 2x2 section [[-1, 1], [1, 0]] has trace norm sqrt(5)
    assert rep.norm == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert rep.bound == 4.0
    assert rep.d_norms == (1.0, 2.0)

    rep = sphere_indicator_bound(2, 5)
    assert rep.norm <= rep.bound == 144.0
    assert rep.d_norms == tuple(float(l + 1) for l in range(3, 6))
    with pytest.raises(ValueError):
        sphere_indicator_bound(3, 2)


def test_weight_equivalence_flat():
    rep = weight_equivalence(geometric(0.5), DerivativeSpec(1, 1), 0.0, 0.0, 32)
    lo, hi = rep.ratio_window
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert set(rep.verdicts.values()) == {"CONVERGENT"}


def test_weight_equivalence_split_vs_sum():
    rep = weight_equivalence(geometric(0.5), DerivativeSpec(1, 1), 0.5, 0.5, 32)
    lo, hi = rep.ratio_window
    assert 0.0 < lo <= 1.0 <= hi < 10.0
    assert set(rep.verdicts.values()) == {"CONVERGENT"}
    assert set(rep.verdicts) == {"POWER_SPLIT", "POWER_SUM", "BINOM_HALF"}
