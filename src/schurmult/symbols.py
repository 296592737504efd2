"""Radial symbol catalog and discrete difference calculus.

A radial symbol is a function phi on hop counts n >= 0.  Everything downstream
(Hankel sections, Besov series, kernel witnesses) consumes symbols through the
small interface here: pointwise evaluation, forward differences with step 1 or
2, and parity-split limit detection.  `derivative_table` takes differences over
a range from one table, bit for bit those of `discrete_derivative` at a point.

Exact arithmetic is preserved whenever the inputs are exact: tables of ints or
Fractions flow through the difference operators without float conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import TailUndefinedError, UnsupportedEnvelopeError, WeightOverflowError

__all__ = [
    "RadialSymbol",
    "DerivativeSpec",
    "LimitReport",
    "RatioCheck",
    "binomial",
    "binomial_weight",
    "geometric",
    "parity",
    "alternating_power",
    "imaginary_power",
    "power",
    "partial_sum",
    "sphere",
    "from_table",
    "from_function",
    "derived_table",
    "derivative_table",
    "CATALOG",
    "make_symbol",
    "symbol_constructor",
    "discrete_derivative",
    "limits_report",
    "weighted_leibniz_check",
    "asymptotic_ratio_check",
    "integral_derivative_oracle",
]

Scalar = Union[int, float, complex, Fraction]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 outside the triangle (negative k or k > n)."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_weight(n: int, k: int) -> float:
    """binomial(n, k) as a float, raising instead of returning inf."""
    b = binomial(n, k)
    try:
        f = float(b)
    except OverflowError as exc:
        raise WeightOverflowError(f"binomial({n},{k}) exceeds float range") from exc
    if not math.isfinite(f):
        raise WeightOverflowError(f"binomial({n},{k}) exceeds float range")
    return f


@dataclass(frozen=True)
class RadialSymbol:
    """A named function on hop counts.

    `bound` is a known sup bound when available (None otherwise), `real` tells
    whether all values are real, so downstream code can pick float dtypes.
    """

    name: str
    params: tuple = ()
    real: bool = True
    bound: Optional[float] = None
    fn: Callable[[int], Scalar] = field(default=None, repr=False, compare=False)

    def eval(self, n: int) -> Scalar:
        if n < 0:
            raise ValueError(f"radial symbols are defined on n >= 0, got {n}")
        return self.fn(n)

    __call__ = eval

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(str(p) for p in self.params)
        return f"{self.name}({inner})"


def geometric(r: Scalar) -> RadialSymbol:
    """phi(n) = r^n.  Exact for Fraction r, constant one for r = 1."""
    is_real = not isinstance(r, complex)
    bound = 1.0 if abs(r) <= 1 else None
    return RadialSymbol("GEOM", (r,), is_real, bound, lambda n: r**n)


def parity() -> RadialSymbol:
    """phi(n) = (-1)^n."""
    return RadialSymbol("PARITY", (), True, 1.0, lambda n: (-1) ** n)


def alternating_power(alpha: float) -> RadialSymbol:
    """phi(n) = (-1)^n / (n+1)^(alpha+1)."""
    return RadialSymbol(
        "ALT_POWER", (alpha,), True, 1.0,
        lambda n: (-1) ** n / (n + 1) ** (alpha + 1.0),
    )


def imaginary_power(alpha: float) -> RadialSymbol:
    """phi(n) = i^n / (n+1)^(alpha+1)."""
    return RadialSymbol(
        "I_POWER", (alpha,), False, 1.0,
        lambda n: 1j**n / (n + 1) ** (alpha + 1.0),
    )


def power(alpha: float) -> RadialSymbol:
    """phi(n) = (n+1)^(-alpha).  alpha = 0 gives the constant one."""
    bound = 1.0 if alpha >= 0 else None
    return RadialSymbol("POWER", (alpha,), True, bound, lambda n: (n + 1) ** (-alpha))


def _odd_even_tail(s: float, first: int) -> float:
    # integral upper bound for sum_{j >= 50000} (2j + first)^(-s)
    return (2 * 49999 + first) ** (1.0 - s) / (2.0 * (s - 1.0))


def partial_sum(level: int) -> RadialSymbol:
    """Step-2 antiderivative of (n+1)^(-level-1/2), split by parity.

    phi(2k) = -sum_{j<k} (2j+1)^(-level-1/2), phi(2k+1) = -sum_{1<=j<=k} (2j)^(-level-1/2),
    so that phi(n) - phi(n+2) = (n+1)^(-level-1/2) for every n.
    """
    if level < 1:
        raise ValueError("partial_sum needs level >= 1")
    s = level + 0.5
    even = [0.0]  # even[k] = phi(2k)
    odd = [0.0]   # odd[k] = phi(2k+1)

    def fn(n: int) -> float:
        k, rem = divmod(n, 2)
        tab = odd if rem else even
        while len(tab) <= k:
            if rem:
                tab.append(tab[-1] - (2 * len(tab)) ** (-s))
            else:
                tab.append(tab[-1] - (2 * (len(tab) - 1) + 1) ** (-s))
        return tab[k]

    js = np.arange(50000)
    bound_even = float(np.sum((2 * js + 1.0) ** (-s))) + _odd_even_tail(s, 1)
    bound_odd = float(np.sum((2 * js[1:]) ** (-s))) + _odd_even_tail(s, 0)
    return RadialSymbol("PARTIAL_SUM", (level,), True, max(bound_even, bound_odd), fn)


def sphere(n0: int) -> RadialSymbol:
    """Indicator of a single hop count."""
    if n0 < 0:
        raise ValueError("sphere index must be >= 0")
    return RadialSymbol("SPHERE", (n0,), True, 1.0, lambda n: 1 if n == n0 else 0)


def from_table(values: Sequence[Scalar], tail: str = "ERROR", name: str = "TABLE") -> RadialSymbol:
    """Symbol backed by an explicit table with a tail policy (ZERO, CONSTANT, ERROR)."""
    if tail not in ("ZERO", "CONSTANT", "ERROR"):
        raise ValueError(f"unknown tail policy {tail!r}")
    vals = tuple(values)
    if not vals and tail != "ZERO":
        raise ValueError("empty table needs the ZERO tail policy")
    is_real = all(not isinstance(v, complex) for v in vals)
    bound = max((abs(v) for v in vals), default=0.0)

    def fn(n: int) -> Scalar:
        if n < len(vals):
            return vals[n]
        if tail == "ZERO":
            return 0
        if tail == "CONSTANT":
            return vals[-1]
        raise TailUndefinedError(f"table of length {len(vals)} evaluated at {n}")

    return RadialSymbol(name, (len(vals), tail), is_real, float(bound), fn)


def from_function(fn: Callable[[int], Scalar], name: str = "CUSTOM",
                  real: bool = True, bound: Optional[float] = None) -> RadialSymbol:
    """Wrap an arbitrary callable as a symbol (mostly for tests and lifts)."""
    return RadialSymbol(name, (), real, bound, fn)


def derived_table(symbol: RadialSymbol, spec: "DerivativeSpec", length: int,
                  tail: str = "ERROR") -> RadialSymbol:
    """Table of a discrete derivative of `symbol`, usable as a symbol itself."""
    vals = derivative_table(symbol, spec, length, exact=True).tolist()
    return from_table(vals, tail=tail, name=f"D{spec.step}^{spec.order}[{symbol.name}]")


CATALOG = {
    "GEOM": geometric,
    "PARITY": parity,
    "ALT_POWER": alternating_power,
    "I_POWER": imaginary_power,
    "POWER": power,
    "PARTIAL_SUM": partial_sum,
    "SPHERE": sphere,
    "TABLE": from_table,
}


def symbol_constructor(name: str):
    """The catalog constructor of a symbol id."""
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown symbol id {name!r}; known: {sorted(CATALOG)}") from None


def make_symbol(name: str, *params) -> RadialSymbol:
    """Catalog lookup by id."""
    return symbol_constructor(name)(*params)


@dataclass(frozen=True)
class DerivativeSpec:
    """Forward difference with step size 1 or 2, iterated `order` times."""

    step: int
    order: int

    def __post_init__(self):
        if self.step not in (1, 2):
            raise ValueError(f"step must be 1 or 2, got {self.step}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")


def _as_fn(symbol) -> Callable[[int], Scalar]:
    if isinstance(symbol, RadialSymbol):
        return symbol.eval
    if callable(symbol):
        return symbol
    seq = symbol

    def fn(n: int) -> Scalar:
        if n < 0 or n >= len(seq):
            raise TailUndefinedError(f"sequence of length {len(seq)} evaluated at {n}")
        return seq[n]

    return fn


def _value_table(symbol, length: int, exact: bool = False):
    """phi(n) for n < length, and float or complex: from `symbol.real`, else
    from the values.  The table holds Python objects when exact or when phi
    has other values (ints, Fractions), so that those stay exact."""
    phi = [_as_fn(symbol)(n) for n in range(length)]
    real = (symbol.real if isinstance(symbol, RadialSymbol)
            else not any(isinstance(v, complex) for v in phi))
    numeric = float if real else complex
    kinds = (float,) if real else (float, complex)
    on_objects = exact or not all(isinstance(v, kinds) for v in phi)
    return np.array(phi, dtype=object if on_objects else numeric), numeric


def derivative_table(symbol, spec: DerivativeSpec, count: int,
                     exact: bool = False) -> np.ndarray:
    """(d phi)(n) for n < count, from one table of phi; takes what
    `discrete_derivative` takes.  The sum runs over shifted slices, term by
    term in `discrete_derivative`'s order, so every value has its bits; on
    objects it uses Python's arithmetic and, unless exact, is then converted."""
    table, numeric = _value_table(symbol, count + spec.step * spec.order, exact)
    total = 0
    for k in range(spec.order + 1):
        term = binomial(spec.order, k) * table[spec.step * k: spec.step * k + count]
        total = total + term if k % 2 == 0 else total - term
    if exact or table.dtype != object:
        return total
    return np.asarray(total.tolist(), dtype=numeric)


def discrete_derivative(symbol, spec: DerivativeSpec, n: int) -> Scalar:
    """sum_k binom(order, k) (-1)^k phi(n + step*k).

    Identical to iterating the one-step difference phi(n) - phi(n + step);
    exact when the symbol values are exact.
    """
    fn = _as_fn(symbol)
    total = 0
    for k in range(spec.order + 1):
        term = binomial(spec.order, k) * fn(n + spec.step * k)
        total = total + term if k % 2 == 0 else total - term
    return total


@dataclass(frozen=True)
class LimitReport:
    """Parity-split limits of a symbol over a sample window.

    c_plus/c_minus are half the sum/difference of the even and odd limits,
    None unless both parities settled under the windowed rule.
    """

    even_limit: Optional[complex]
    odd_limit: Optional[complex]
    c_plus: Optional[complex]
    c_minus: Optional[complex]
    even_converged: bool
    odd_converged: bool
    window: int
    tol: float


def _parity_limit(samples: list, quota: int, tol: float):
    diffs = [abs(samples[i + 1] - samples[i]) for i in range(len(samples) - 1)]
    if len(diffs) < quota:
        return None, False
    if all(d < tol for d in diffs[-quota:]):
        return samples[-1], True
    return None, False


def limits_report(symbol, window: int = 64, tol: float = 1e-9) -> LimitReport:
    """Windowed limit detection: a parity subsequence counts as converged when
    its last ceil(window/4) successive differences all fall below tol."""
    if window < 8:
        raise ValueError("window must be at least 8")
    fn = _as_fn(symbol)
    values = [fn(n) for n in range(window)]
    quota = math.ceil(window / 4)
    even, even_ok = _parity_limit(values[0::2], quota, tol)
    odd, odd_ok = _parity_limit(values[1::2], quota, tol)
    if even_ok and odd_ok:
        c_plus = (even + odd) / 2
        c_minus = (even - odd) / 2
    else:
        c_plus = c_minus = None
    return LimitReport(even, odd, c_plus, c_minus, even_ok, odd_ok, window, tol)


def weighted_leibniz_check(a, n: int, order: int, tol: float = 1e-12) -> bool:
    """Check the weighted difference identity

        (n+1) * d1^order a(n) =
            sum_k binom(order,k)(-1)^k (n+k+1) a(n+k) + order * d1^(order-1) a(n+1)

    Exact comparison when all touched values are int/Fraction, tolerance otherwise.
    """
    fn = _as_fn(a)
    touched = [fn(n + k) for k in range(order + 1)]
    lhs = (n + 1) * discrete_derivative(fn, DerivativeSpec(1, order), n)
    rhs = 0
    for k in range(order + 1):
        term = binomial(order, k) * (n + k + 1) * fn(n + k)
        rhs = rhs + term if k % 2 == 0 else rhs - term
    if order > 0:
        rhs = rhs + order * discrete_derivative(fn, DerivativeSpec(1, order - 1), n + 1)
    if all(isinstance(v, (int, Fraction)) for v in touched):
        return lhs == rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= tol * scale


@dataclass(frozen=True)
class RatioCheck:
    """Envelope test for |d1^order a(n)| * (n+1)^alpha over a window."""

    lower: float
    upper: float
    ratio: float
    passed: bool


def asymptotic_ratio_check(a, alpha: float, order: int, window=(10, 200),
                           ratio_bound: float = 10.0) -> RatioCheck:
    """Scan b_n = |d1^order a(n)| (n+1)^alpha; pass when the window stats stay
    inside a bounded ratio (so the decay rate alpha is the right one)."""
    lo, hi = window
    if not (0 <= lo < hi):
        raise ValueError(f"bad window {window}")
    der = derivative_table(a, DerivativeSpec(1, order), hi + 1)[lo:].tolist()
    stats = [abs(d) * (n + 1) ** alpha for n, d in enumerate(der, lo)]
    lower, upper = min(stats), max(stats)
    passed = lower > 0 and upper / lower <= ratio_bound
    return RatioCheck(lower, upper, upper / lower if lower > 0 else math.inf, passed)


def integral_derivative_oracle(symbol: RadialSymbol, order: int, n: int,
                               quad_points: int = 32) -> float:
    """Quadrature oracle for step-2 differences of power envelopes.

    For phi(n) = (1+n)^(-beta) the step-2 difference of order m equals
    (-1)^m times the integral of the m-th derivative of t -> (1+t)^(-beta)
    over the cube [0,2]^m shifted to n.  Tensor Gauss-Legendre converges to
    machine precision for these smooth integrands.
    """
    if not (isinstance(symbol, RadialSymbol) and symbol.name == "POWER"):
        raise UnsupportedEnvelopeError("integral oracle only supports POWER envelopes")
    beta = symbol.params[0]
    if order == 0:
        return (1.0 + n) ** (-beta)
    x, w = np.polynomial.legendre.leggauss(quad_points)
    t, wt = x + 1.0, w  # [-1,1] -> [0,2], unit jacobian
    sums = np.zeros(1)
    weights = np.ones(1)
    for _ in range(order):
        sums = (sums[:, None] + t[None, :]).ravel()
        weights = (weights[:, None] * wt[None, :]).ravel()
    coef = 1.0
    for i in range(order):
        coef *= beta + i
    return float(coef * np.sum(weights * (1.0 + n + sums) ** (-beta - order)))
