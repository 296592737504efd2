"""Tests for the dyadic series diagnostics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import besov
from schurmult.besov import (
    AnalyticSeries,
    besov_norm,
    block_project,
    class_series_verdict,
    dyadic_block,
    fractional_integration,
    l1_circle_norm,
    peller_concordance,
    shift_series,
    symbol_series,
)
from schurmult.errors import TailUndefinedError
from schurmult.symbols import (
    DerivativeSpec,
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


def series(coeffs):
    return AnalyticSeries(tuple(coeffs))


# ---------------------------------------------------------------- blocks


def test_dyadic_block_tables():
    assert dyadic_block(0).table == {0: 1, 1: 1}
    assert dyadic_block(1).table == {1: 0, 2: 1, 3: Fraction(1, 2), 4: 0}
    b2 = dyadic_block(2).table
    assert b2[4] == 1 and b2[3] == Fraction(1, 2) and b2[6] == Fraction(1, 2)
    assert b2[2] == 0 and b2[8] == 0
    for n in range(1, 8):
        assert dyadic_block(n).table[2 ** n] == 1
    with pytest.raises(ValueError):
        dyadic_block(-1)


def test_float_tents_are_the_exact_tents_rounded():
    for n in range(13):
        table = dyadic_block(n).table
        lo, tent = besov._tent(n)
        assert list(range(lo, lo + len(tent))) == sorted(table)
        assert tent.tolist() == [float(table[k]) for k in sorted(table)]


def test_blocks_partition_unity():
    # sum over blocks of the tent weight at k is exactly 1 for every k >= 1
    total = {}
    for n in range(10):
        for k, w in dyadic_block(n).table.items():
            total[k] = total.get(k, Fraction(0)) + w
    for k in range(1, 2 ** 8 + 1):
        assert total[k] == 1


def test_block_project():
    L = 40
    mono = [0] * L
    mono[16] = 3.5
    out = block_project(series(mono), 4)
    assert out.coefficients == tuple(mono)

    mono = [0] * 70
    mono[64] = 1.0
    assert all(v == 0 for v in block_project(series(mono), 5).coefficients)

    geo = series([Fraction(1, 2) ** n for n in range(20)])
    out = block_project(geo, 3)
    assert out.coefficients[8] == Fraction(1, 2) ** 8
    assert out.coefficients[6] == Fraction(1, 2) * Fraction(1, 2) ** 6
    assert out.coefficients[12] == Fraction(1, 2) * Fraction(1, 2) ** 12
    assert out.coefficients[3] == 0
    with pytest.raises(TailUndefinedError):
        block_project(series([1.0] * 8), 3)


# ---------------------------------------------------------------- circle norm


def test_l1_circle_norm_basics():
    assert l1_circle_norm(series([1.0]), 8) == pytest.approx(1.0, abs=1e-15)
    mono = [0.0] * 5 + [2.0]
    assert l1_circle_norm(series(mono), 64) == pytest.approx(2.0, abs=1e-12)
    # independent closed form: mean of |1 + e^(i t)| = 4/pi
    assert l1_circle_norm(series([1.0, 1.0]), 1 << 16) == pytest.approx(
        4.0 / math.pi, abs=1e-6
    )
    with pytest.raises(ValueError):
        l1_circle_norm(series([1.0] * 10), 32)


# ---------------------------------------------------------------- besov norm


def test_besov_norm_zero_series():
    rep = besov_norm(series([0.0] * 200), 1.0, 5, 1 << 10)
    assert rep.partial == 0.0
    assert rep.tail_flag == "CONVERGENT"


def test_besov_norm_subadditive():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(130) + 1j * rng.standard_normal(130)
    b = rng.standard_normal(130) + 1j * rng.standard_normal(130)
    na = besov_norm(series(a), 1.5, 6, 1 << 11).partial
    nb = besov_norm(series(b), 1.5, 6, 1 << 11).partial
    nab = besov_norm(series(a + b), 1.5, 6, 1 << 11).partial
    assert nab <= na + nb + 1e-9


def test_besov_norm_flags_alternating_family():
    sym = alternating_power(2.5)
    L = 2 ** 10 + 1
    s = symbol_series(sym, 2, "B", L)
    rep = besov_norm(s, 2.0, 9, 1 << 13)
    assert rep.tail_flag == "CONVERGENT"
    rep = besov_norm(s, 4.0, 9, 1 << 13)
    assert rep.tail_flag == "DIVERGENT"


def test_besov_norm_validation():
    with pytest.raises(TailUndefinedError):
        besov_norm(series([1.0] * 10), 1.0, 4, 1 << 10)
    with pytest.raises(ValueError):
        besov_norm(series([1.0] * 200), 1.0, 5, 64)


# ---------------------------------------------------------------- integration


def test_fractional_integration():
    s = series([Fraction(3), Fraction(1, 2), Fraction(5)])
    assert fractional_integration(s, 0).coefficients == s.coefficients
    delta = [0, 0, 0, Fraction(8)]
    out = fractional_integration(series(delta), 1)
    assert out.coefficients[3] == Fraction(2)
    out = fractional_integration(series(delta), 2)
    assert out.coefficients[3] == Fraction(1, 2)

    f = series([0.3, -1.2, 0.7, 2.5])
    back = fractional_integration(fractional_integration(f, 0.7), -0.7)
    assert np.allclose(back.coefficients, f.coefficients, atol=1e-14, rtol=0)


def test_integration_shifts_verdict_exponent():
    sym = alternating_power(2.5)
    s = symbol_series(sym, 2, "B", 2 ** 10 + 1)
    for base, alpha in [(2.0, 1.0), (4.0, -1.0)]:
        direct = besov_norm(s, base, 9, 1 << 13).tail_flag
        moved = besov_norm(fractional_integration(s, alpha), base + alpha, 9, 1 << 13)
        assert moved.tail_flag == direct


# ---------------------------------------------------------------- symbol series


def test_symbol_series_parity_flavor_c_telescopes():
    s = symbol_series(parity(), 1, "C", 32)
    assert s.coefficients[0] == -1
    assert s.coefficients[1] == 1
    assert all(c == 0 for c in s.coefficients[2:])


def test_symbol_series_flavor_b_ones():
    ones = from_table([1] * 16, tail="CONSTANT")
    s = symbol_series(ones, 1, "B", 16)
    assert s.coefficients[0] == -1
    assert all(c == 0 for c in s.coefficients[1:])


def test_symbol_series_flavor_a_identity():
    table = [Fraction(k * k - 3 * k + 1, 4) for k in range(24)]
    sym = from_table(table, tail="ERROR")
    s = symbol_series(sym, 2, "A", 24)
    spec = DerivativeSpec(2, 2)
    for n in range(4, 24):
        assert s.coefficients[n] == discrete_derivative(sym, spec, n - 4)
    with pytest.raises(TailUndefinedError):
        symbol_series(sym, 2, "A", 30)
    with pytest.raises(ValueError):
        symbol_series(sym, 2, "D", 10)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 2), st.lists(st.integers(-9, 9), min_size=12, max_size=12))
def test_symbol_series_identity_property(level, table):
    sym = from_table(table, tail="ERROR")
    s = symbol_series(sym, level, "A", 12)
    spec = DerivativeSpec(2, level)
    for n in range(2 * level, 12):
        assert s.coefficients[n] == discrete_derivative(sym, spec, n - 2 * level)


def reference_symbol_series(symbol, level, flavor, L):
    """symbol_series coefficient by coefficient: each flavor-polynomial term
    added in at every n, in polynomial order."""
    vals = [symbol.eval(n) for n in range(L)]
    out = [0] * L
    for k, pk in besov._flavor_poly(level, flavor).items():
        for n in range(k, L):
            out[n] = out[n] + pk * vals[n - k]
    return out


@pytest.mark.parametrize("sym", [
    geometric(0.5), geometric(Fraction(1, 2)), geometric(0.3 + 0.4j), parity(),
    alternating_power(1.5), imaginary_power(0.5), power(0.5), partial_sum(2), sphere(5),
    from_table([1, -2, 0.5, 3, 0.25], tail="ZERO"),
], ids=lambda s: s.label())
def test_symbol_series_is_the_coefficientwise_sum(sym):
    for level, flavor, L in itertools.product((1, 2), "ABC", (1, 3, 4, 2049)):
        got = symbol_series(sym, level, flavor, L).coefficients
        want = reference_symbol_series(sym, level, flavor, L)
        # repr tells apart every float bit pattern, the sign of zero included
        assert [(type(g), repr(g)) for g in got] == [(type(w), repr(w)) for w in want]


# ---------------------------------------------------------------- shifts


def test_shift_series():
    f = series([Fraction(1), Fraction(2), Fraction(3)])
    assert shift_series(shift_series(f, "FORWARD"), "BACKWARD").coefficients == f.coefficients
    assert shift_series(series([5.0]), "BACKWARD").coefficients == (0,)

    r = 0.5
    geo = series([r ** n for n in range(10)])
    back = shift_series(geo, "BACKWARD")
    assert back.coefficients == tuple(r ** (n + 1) for n in range(9))
    with pytest.raises(ValueError):
        shift_series(geo, "SIDEWAYS")


# ---------------------------------------------------------------- concordance


def test_class_series_verdict_matches_flags():
    assert class_series_verdict(alternating_power(2.5), 2, "B", n_max=9, grid=1 << 13) \
        == "CONVERGENT"
    assert class_series_verdict(power(0.5), 2, "C", n_max=9, grid=1 << 13) == "DIVERGENT"


def test_peller_concordance_rows():
    family = [
        (alternating_power(2.5), "B"),
        (parity(), "C"),
        (power(0.5), "C"),
    ]
    rep = peller_concordance(family, 2, [40, 80, 160], 9, 1e-3, grid=1 << 13)
    verdictmap = {(r.symbol, r.tag): r for r in rep.rows}
    alt = verdictmap[("ALT_POWER(2.5)", "B")]
    assert alt.class_verdict == alt.series_flag == "CONVERGENT" and alt.agree
    par = verdictmap[("PARITY", "C")]
    assert par.class_verdict == par.series_flag == "CONVERGENT" and par.agree
    pow_row = verdictmap[("POWER(0.5)", "C")]
    assert pow_row.class_verdict == pow_row.series_flag == "DIVERGENT" and pow_row.agree
    assert rep.agreements == 3 and rep.undecided == 0
