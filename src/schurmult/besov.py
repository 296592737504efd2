"""Dyadic smoothness diagnostics for analytic series on the circle.

A series lives through its coefficient table.  Tent-shaped dyadic blocks cut
it into pieces whose circle L1 norms, geometrically weighted, add up to the
smoothness functional; the decay profile of the last few block summands gives
a CONVERGENT / DIVERGENT / UNDECIDED tail flag.  The same three-way reading
lets the series side be compared against the trace-norm verdicts on the
matrix side without either one overriding the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import TailUndefinedError
from .hankel import class_spec, s1_estimate
from .symbols import RadialSymbol, _value_table, binomial

__all__ = [
    "AnalyticSeries",
    "DyadicBlock",
    "dyadic_block",
    "block_project",
    "l1_circle_norm",
    "BesovReport",
    "besov_norm",
    "fractional_integration",
    "symbol_series",
    "shift_series",
    "class_series_verdict",
    "ConcordanceRow",
    "ConcordanceReport",
    "peller_concordance",
]


@dataclass(frozen=True, eq=False)
class AnalyticSeries:
    """Coefficient table of an analytic polynomial, lowest degree first."""

    coefficients: tuple
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise ValueError("a series needs at least one coefficient")

    @property
    def length(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class DyadicBlock:
    """Tent multiplier on the dyadic band [2^(n-1), 2^(n+1)]; block 0 is the
    pair {0, 1}.  Table values are exact rationals."""

    n: int
    table: dict


def dyadic_block(n: int) -> DyadicBlock:
    """Block 0: weight 1 at 0 and 1.  Block n >= 1 ramps linearly from 0 at
    2^(n-1) up to 1 at 2^n and back down to 0 at 2^(n+1)."""
    if n < 0:
        raise ValueError("block index must be >= 0")
    if n == 0:
        return DyadicBlock(0, {0: Fraction(1), 1: Fraction(1)})
    lo, mid, hi = 2 ** (n - 1), 2 ** n, 2 ** (n + 1)
    table = {}
    for k in range(lo, mid):
        table[k] = Fraction(k - lo, lo)
    for k in range(mid, hi + 1):
        table[k] = Fraction(hi - k, mid)
    return DyadicBlock(n, table)


def _tent(n: int):
    """Block n's first index and its tent weights as floats, each equal to
    float() of `dyadic_block(n)`'s exact value: (k - lo)/lo and (hi - k)/mid
    are quotients of small integers, which float division rounds once."""
    if n == 0:
        return 0, np.ones(2)
    lo, mid, hi = 2 ** (n - 1), 2 ** n, 2 ** (n + 1)
    k = np.arange(lo, hi + 1)
    return lo, np.where(k < mid, (k - lo) / lo, (hi - k) / mid)


def block_project(series: AnalyticSeries, n: int) -> AnalyticSeries:
    """Coefficientwise product with the block-n tent."""
    block = dyadic_block(n)
    top = 2 ** (n + 1)
    if series.length <= top:
        raise TailUndefinedError(
            f"series of length {series.length} does not cover block {n} (up to {top})"
        )
    out = [0] * series.length
    for k, w in block.table.items():
        out[k] = w * series.coefficients[k]
    prov = dict(series.provenance)
    prov["block"] = n
    return AnalyticSeries(tuple(out), prov)


def _poly_l1(values: np.ndarray, grid: int) -> float:
    buf = np.zeros(grid, dtype=complex)
    buf[: len(values)] = values
    return float(np.mean(np.abs(np.fft.fft(buf))))


def l1_circle_norm(series: AnalyticSeries, grid: int) -> float:
    """Circle L1 norm by uniform sampling at the grid-th roots of unity."""
    if grid < 4 * series.length:
        raise ValueError(f"grid {grid} too coarse for length {series.length}")
    return _poly_l1(np.array([complex(c) for c in series.coefficients]), grid)


@dataclass(frozen=True)
class BesovReport:
    """block_values are the weighted summands 2^(ns) * block_norms[n]."""

    partial: float
    block_values: tuple
    block_norms: tuple
    tail_flag: str
    exponent: float
    grid: int


def _tail_flag(blocks: Sequence[float]) -> str:
    scale = max(blocks, default=0.0)
    if scale <= 0.0:
        return "CONVERGENT"
    if len(blocks) < 3:
        return "UNDECIDED"
    last = blocks[-3:]
    tiny = 1e-14 * scale
    if all(b <= tiny for b in last):
        return "CONVERGENT"
    if last[0] <= tiny or last[1] <= tiny:
        return "UNDECIDED"
    r1, r2 = last[1] / last[0], last[2] / last[1]
    if r1 <= 0.9 and r2 <= 0.9:
        return "CONVERGENT"
    if r1 >= 1.05 and r2 >= 1.05:
        return "DIVERGENT"
    return "UNDECIDED"


def besov_norm(series: AnalyticSeries, s: float, n_max: int, grid: int) -> BesovReport:
    """Sum of 2^(ns) times the block L1 norms for n up to n_max.

    The tail flag reads geometric growth or decay off the last three block
    summands (ratio thresholds 0.9 and 1.05, a recorded heuristic).
    """
    if series.length <= 2 ** (n_max + 1):
        raise TailUndefinedError(
            f"series of length {series.length} does not cover block {n_max}"
        )
    top_span = 3 * 2 ** max(n_max - 1, 0) + 1
    if grid < 4 * top_span:
        raise ValueError(f"grid {grid} too coarse for block {n_max}")
    coeffs = np.array([complex(c) for c in series.coefficients])
    norms, blocks = [], []
    for n in range(n_max + 1):
        lo, tent = _tent(n)
        vals = tent * coeffs[lo: lo + len(tent)]
        nz = np.nonzero(vals)[0]
        if len(nz) == 0:
            norm = 0.0
        else:
            norm = _poly_l1(vals[nz[0]: nz[-1] + 1], grid)
        norms.append(norm)
        blocks.append(2.0 ** (n * s) * norm)
    return BesovReport(float(sum(blocks)), tuple(blocks), tuple(norms),
                       _tail_flag(blocks), s, grid)


def fractional_integration(series: AnalyticSeries, alpha: float) -> AnalyticSeries:
    """Coefficients k -> (1+k)^(-alpha) a_k; exact for integer alpha on
    rational input, the inverse pair alpha / -alpha composes to the identity."""
    out = []
    exact = float(alpha).is_integer()
    for k, c in enumerate(series.coefficients):
        if exact:
            a = int(alpha)
            w = Fraction(1, (1 + k) ** a) if a > 0 else (1 + k) ** (-a)
        else:
            w = (1.0 + k) ** (-alpha)
        out.append(w * c)
    prov = dict(series.provenance)
    prov["integration"] = prov.get("integration", 0) + alpha
    return AnalyticSeries(tuple(out), prov)


def _flavor_poly(level: int, flavor: str) -> dict:
    if flavor == "A":
        return {2 * k: (-1) ** (level - k) * binomial(level, k) for k in range(level + 1)}
    if flavor == "B":
        return {k: (-1) ** (level - k) * binomial(level, k) for k in range(level + 1)}
    if flavor == "C":
        return {0: -1, 2: 1}
    raise ValueError(f"flavor must be A, B or C, got {flavor!r}")


def symbol_series(symbol: RadialSymbol, level: int, flavor: str, L: int) -> AnalyticSeries:
    """First L coefficients of the flavor polynomial times the symbol series.

    Flavor A multiplies by (z^2 - 1)^level, B by (z - 1)^level, C by
    (z^2 - 1).  Coefficients past the truncation edge are dropped, so for
    flavor A the coefficient at n equals the iterated step-2 difference of
    the symbol at n - 2*level whenever 2*level <= n < L.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if L < 1:
        raise ValueError("L must be >= 1")
    vals, _ = _value_table(symbol, L)
    out = np.zeros(L, dtype=vals.dtype)
    for k, pk in _flavor_poly(level, flavor).items():
        out[k:] = out[k:] + pk * vals[: max(L - k, 0)]
    prov = {"symbol": symbol.label(), "flavor": flavor, "level": level, "length": L}
    return AnalyticSeries(tuple(out.tolist()), prov)


def shift_series(series: AnalyticSeries, direction: str) -> AnalyticSeries:
    """FORWARD moves every coefficient up one slot (index 0 becomes 0);
    BACKWARD drops the constant term."""
    if direction == "FORWARD":
        coeffs = (0,) + series.coefficients
    elif direction == "BACKWARD":
        coeffs = series.coefficients[1:] or (0,)
    else:
        raise ValueError(f"direction must be FORWARD or BACKWARD, got {direction!r}")
    prov = dict(series.provenance)
    prov["shift"] = prov.get("shift", 0) + (1 if direction == "FORWARD" else -1)
    return AnalyticSeries(coeffs, prov)


def class_series_verdict(symbol: RadialSymbol, level: int, tag: str,
                         n_max: int = 10, grid: int = 1 << 14) -> str:
    """Tail flag of the same-letter flavor series at exponent s = level."""
    L = 2 ** (n_max + 1) + 1
    series = symbol_series(symbol, level, tag, L)
    return besov_norm(series, float(level), n_max, grid).tail_flag


@dataclass(frozen=True)
class ConcordanceRow:
    symbol: str
    tag: str
    class_verdict: str
    series_flag: str
    agree: Optional[bool]


@dataclass(frozen=True)
class ConcordanceReport:
    rows: tuple

    @property
    def agreements(self) -> int:
        return sum(1 for r in self.rows if r.agree)

    @property
    def undecided(self) -> int:
        return sum(1 for r in self.rows if r.agree is None)


def peller_concordance(family: Sequence, level: int, sizes: Sequence[int],
                       n_max: int, tol: float,
                       grid: int = 1 << 14) -> ConcordanceReport:
    """Side-by-side verdicts for (symbol, tag) pairs: trace-norm protocol
    against the series tail flag.  Disagreements are reported, not resolved;
    rows with an UNDECIDED side get agree = None."""
    rows = []
    for symbol, tag in family:
        est = s1_estimate(class_spec(symbol, level, tag), sizes, tol)
        flag = class_series_verdict(symbol, level, tag, n_max, grid)
        agree = None
        if est.verdict != "UNDECIDED" and flag != "UNDECIDED":
            agree = est.verdict == flag
        rows.append(ConcordanceRow(symbol.label(), tag, est.verdict, flag, agree))
    return ConcordanceReport(tuple(rows))
