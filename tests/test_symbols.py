"""Symbol catalog and difference calculus tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import symbols as sym
from schurmult.errors import TailUndefinedError, UnsupportedEnvelopeError, WeightOverflowError


def iterated_difference(fn, step, order):
    """Independent oracle: iterate the one-step difference `order` times."""
    g = fn
    for _ in range(order):
        g = (lambda h: lambda n: h(n) - h(n + step))(g)
    return g


def test_binomial_values():
    assert sym.binomial(5, 2) == 10
    assert sym.binomial(0, 0) == 1
    assert sym.binomial(4, -1) == 0
    assert sym.binomial(4, 7) == 0
    with pytest.raises(ValueError):
        sym.binomial(-1, 0)


def test_binomial_weight_overflow():
    assert sym.binomial_weight(10, 3) == 120.0
    with pytest.raises(WeightOverflowError):
        sym.binomial_weight(10000, 5000)


def test_catalog_values():
    assert sym.geometric(Fraction(1, 2)).eval(3) == Fraction(1, 8)
    assert sym.geometric(1.0).eval(7) == 1.0
    assert sym.parity().eval(5) == -1
    assert sym.alternating_power(1.0).eval(1) == -0.25
    assert sym.imaginary_power(0.0).eval(2) == pytest.approx(-1 / 3)
    assert not sym.imaginary_power(0.0).real
    assert sym.power(0).eval(9) == 1
    assert sym.power(2.0).eval(1) == 0.25
    assert sym.sphere(4).eval(4) == 1 and sym.sphere(4).eval(5) == 0
    with pytest.raises(ValueError):
        sym.parity().eval(-1)


def test_partial_sum_values_and_identity():
    ps = sym.partial_sum(2)
    assert ps.eval(0) == 0.0 and ps.eval(1) == 0.0
    assert ps.eval(2) == -1.0  # -(1)^(-5/2)
    assert ps.eval(3) == pytest.approx(-(2.0 ** -2.5))
    # step-2 difference collapses to a clean power law
    for n in range(60):
        d2 = sym.discrete_derivative(ps, sym.DerivativeSpec(2, 1), n)
        assert d2 == pytest.approx((n + 1) ** -2.5, rel=1e-13)
    # bound covers the sampled range
    assert all(abs(ps.eval(n)) <= ps.bound + 1e-12 for n in range(0, 400))


def test_table_tail_policies():
    t_err = sym.from_table([1, 2, 3])
    assert t_err.eval(2) == 3
    with pytest.raises(TailUndefinedError):
        t_err.eval(3)
    assert sym.from_table([1, 2], tail="ZERO").eval(10) == 0
    assert sym.from_table([1, 2], tail="CONSTANT").eval(10) == 2
    with pytest.raises(ValueError):
        sym.from_table([1], tail="WRAP")


def test_closed_form_matches_iteration_exactly():
    table = [Fraction(3, 7), Fraction(-1, 2), 5, Fraction(9, 4), -2, Fraction(1, 3),
             8, Fraction(-5, 6), 1, 0, Fraction(2, 11), 4, -7, Fraction(1, 9), 2, 6]
    fn = sym._as_fn(table)
    for step in (1, 2):
        for order in range(0, 5):
            oracle = iterated_difference(fn, step, order)
            for n in range(0, len(table) - step * order):
                assert sym.discrete_derivative(table, sym.DerivativeSpec(step, order), n) == oracle(n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=12, max_size=12),
       st.integers(1, 2), st.integers(0, 4))
def test_closed_form_matches_iteration_property(vals, step, order):
    fn = sym._as_fn(vals)
    oracle = iterated_difference(fn, step, order)
    n_max = len(vals) - step * order
    for n in range(max(0, n_max)):
        assert sym.discrete_derivative(vals, sym.DerivativeSpec(step, order), n) == oracle(n)


def test_step_two_splits_into_step_ones():
    table = [Fraction(k * k - 3 * k, 5) for k in range(20)]
    d1 = sym.DerivativeSpec(1, 1)
    d2 = sym.DerivativeSpec(2, 1)
    for n in range(17):
        assert sym.discrete_derivative(table, d2, n) == (
            sym.discrete_derivative(table, d1, n) + sym.discrete_derivative(table, d1, n + 1)
        )


def test_derivative_spec_validation():
    with pytest.raises(ValueError):
        sym.DerivativeSpec(3, 1)
    with pytest.raises(ValueError):
        sym.DerivativeSpec(1, -1)


def test_limits_constant_and_parity():
    rep = sym.limits_report(sym.geometric(1.0), window=32, tol=1e-12)
    assert rep.even_converged and rep.odd_converged
    assert rep.c_plus == 1.0 and rep.c_minus == 0.0
    rep = sym.limits_report(sym.parity(), window=32, tol=1e-12)
    assert rep.even_limit == 1 and rep.odd_limit == -1
    assert rep.c_plus == 0.0 and rep.c_minus == 1.0


def test_limits_decaying_symbol():
    rep = sym.limits_report(sym.alternating_power(1.0), window=96, tol=1e-4)
    assert rep.even_converged and rep.odd_converged
    assert abs(rep.c_plus) < 1e-3 and abs(rep.c_minus) < 1e-3
    # same symbol at a strict tolerance must refuse to decide
    strict = sym.limits_report(sym.alternating_power(1.0), window=96, tol=1e-12)
    assert not strict.even_converged and strict.c_plus is None


def test_limits_partial_sum_against_series_oracle():
    # independent oracle: direct partial sum plus integral tail bound
    js = np.arange(2_000_000)
    even_oracle = -float(np.sum((2 * js + 1.0) ** -2.5))
    even_tail = (2 * 1_999_999 + 1.0) ** -1.5 / 3.0
    rep = sym.limits_report(sym.partial_sum(2), window=4096, tol=1e-8)
    assert rep.even_converged and rep.odd_converged
    # reported limit is the last window sample; its distance to the true limit
    # is the series tail from the window edge (last even sample is phi(4094))
    window_tail = (2 * 2046 + 1.0) ** -1.5 / 3.0
    assert abs(rep.even_limit - even_oracle) <= window_tail + even_tail + 1e-12
    assert rep.c_plus == pytest.approx((rep.even_limit + rep.odd_limit) / 2)
    assert rep.c_minus == pytest.approx((rep.even_limit - rep.odd_limit) / 2)


def test_weighted_leibniz_exact_rational():
    rng = np.random.default_rng(7)
    for _ in range(50):
        table = [Fraction(int(rng.integers(-30, 30)), int(rng.integers(1, 12)))
                 for _ in range(14)]
        n = int(rng.integers(0, 6))
        order = int(rng.integers(0, 7))
        if n + order + 1 < len(table):
            assert sym.weighted_leibniz_check(table, n, order)


def test_weighted_leibniz_simple_cases():
    # constant sequence: both sides vanish for m >= 1
    ones = [1] * 8
    assert sym.weighted_leibniz_check(ones, 0, 1)
    assert sym.weighted_leibniz_check(ones, 3, 2)
    # linear case is hand-checkable: lhs = -(n+1), rhs = -(n+1)-1+1
    lin = list(range(8))
    assert sym.weighted_leibniz_check(lin, 0, 1)


def test_weighted_leibniz_float_path():
    table = [math.sin(k) for k in range(16)]
    for n in range(4):
        for order in range(5):
            assert sym.weighted_leibniz_check(table, n, order, tol=1e-11)


def test_asymptotic_ratio_alternating():
    # |phi| itself carries exponent alpha+1; all difference orders keep it
    phi = sym.alternating_power(1.0)
    flat = sym.asymptotic_ratio_check(phi, 2.0, 0, window=(10, 200))
    assert flat.passed and flat.lower == pytest.approx(1.0) and flat.upper == pytest.approx(1.0)
    first = sym.asymptotic_ratio_check(phi, 2.0, 1, window=(10, 200))
    assert first.passed and first.upper / first.lower < 2.5
    # wrong exponent: statistic decays like 1/n, the ratio blows past the bound
    wrong = sym.asymptotic_ratio_check(sym.power(1.0), 1.0, 1, window=(10, 200))
    assert not wrong.passed


def test_integral_oracle_matches_discrete():
    phi = sym.power(1.5)
    for order in (1, 2, 3):
        spec = sym.DerivativeSpec(2, order)
        for n in (0, 3, 10):
            direct = sym.discrete_derivative(phi, spec, n)
            quad = sym.integral_derivative_oracle(phi, order, n)
            assert abs(direct - quad) < 1e-8
    assert sym.integral_derivative_oracle(phi, 0, 4) == phi.eval(4)
    with pytest.raises(UnsupportedEnvelopeError):
        sym.integral_derivative_oracle(sym.geometric(0.5), 1, 0)


def test_make_symbol_catalog():
    assert sym.make_symbol("GEOM", 0.5).eval(2) == 0.25
    assert sym.make_symbol("PARITY").eval(3) == -1
    with pytest.raises(ValueError):
        sym.make_symbol("NOPE")


def test_derived_table_symbol():
    base = sym.power(0.5)
    der = sym.derived_table(base, sym.DerivativeSpec(2, 2), 40)
    for n in range(10):
        assert der.eval(n) == sym.discrete_derivative(base, sym.DerivativeSpec(2, 2), n)
    with pytest.raises(TailUndefinedError):
        der.eval(40)


# one symbol per catalog id, exact and inexact, real and complex
TABLE_SYMBOLS = [
    sym.geometric(0.5),
    sym.geometric(Fraction(2, 3)),
    sym.geometric(0.3 + 0.4j),
    sym.parity(),
    sym.alternating_power(1.5),
    sym.imaginary_power(0.5),
    sym.power(0.5),
    sym.power(-1.0),
    sym.partial_sum(2),
    sym.sphere(3),
    sym.from_table([Fraction(k * k - 5, k + 1) for k in range(60)], tail="ERROR"),
    sym.from_table([1, -2, 0.5, 3, 0.25], tail="ZERO"),
]


def test_table_symbols_cover_the_catalog():
    assert {s.name for s in TABLE_SYMBOLS} == set(sym.CATALOG)


@pytest.mark.parametrize("phi", TABLE_SYMBOLS, ids=lambda s: s.label())
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_derivative_table_is_the_pointwise_derivative(phi, step, order):
    spec = sym.DerivativeSpec(step, order)
    exact = sym.derivative_table(phi, spec, 40, exact=True)
    numeric = sym.derivative_table(phi, spec, 40)
    kind = float if phi.real else complex
    assert exact.dtype == object and len(exact) == 40
    assert numeric.dtype == kind
    for n, (e, v) in enumerate(zip(exact.tolist(), numeric.tolist())):
        want = sym.discrete_derivative(phi, spec, n)
        # repr tells apart every float bit pattern, the sign of zero included
        assert type(e) is type(want) and repr(e) == repr(want)
        # unless exact, an exact value is rounded once, at the end
        assert type(v) is kind and repr(v) == repr(kind(want))


@pytest.mark.parametrize("values", [
    [Fraction(k, 3) - Fraction(1, k + 1) for k in range(30)],
    [0.5 ** k for k in range(30)],
    [1j ** k / (k + 1) for k in range(30)],
    [(-1) ** k * k for k in range(30)],
], ids=["fractions", "floats", "complex", "ints"])
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_derivative_table_takes_sequences_and_callables(values, step, order):
    spec = sym.DerivativeSpec(step, order)
    count = len(values) - step * order
    kind = complex if any(isinstance(v, complex) for v in values) else float
    for phi in (values, tuple(values), values.__getitem__):
        exact = sym.derivative_table(phi, spec, count, exact=True).tolist()
        numeric = sym.derivative_table(phi, spec, count)
        assert numeric.dtype == kind
        for n in range(count):
            want = sym.discrete_derivative(phi, spec, n)
            assert type(exact[n]) is type(want) and repr(exact[n]) == repr(want)
            assert repr(numeric[n].item()) == repr(kind(want))
    with pytest.raises(TailUndefinedError):
        sym.derivative_table(values, spec, count + 1)


def test_derived_table_keeps_exact_values():
    base = sym.geometric(Fraction(1, 3))
    der = sym.derived_table(base, sym.DerivativeSpec(1, 2), 12)
    assert all(der(n) == Fraction(4, 9) / 3 ** n and type(der(n)) is Fraction for n in range(12))
