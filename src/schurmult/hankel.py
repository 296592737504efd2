"""Finite sections of weighted Hankel and lattice matrices, with trace-norm
diagnostics.

Everything here is a dense truncation of an infinite operator attached to a
radial symbol: weighted Hankel sections indexed by naturals, and lattice
sections indexed by N-tuples.  Trace norms of growing sections feed a
three-way verdict (CONVERGENT / DIVERGENT / UNDECIDED) standing in for
trace-class membership, which no finite computation can decide; the verdict
thresholds are policy and are recorded in each estimate.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotRealError, StructureViolationError, TailUndefinedError
from .symbols import (
    DerivativeSpec,
    RadialSymbol,
    _as_fn,
    binomial,
    binomial_weight,
    derivative_table,
    sphere,
)

__all__ = [
    "WeightScheme",
    "binom_half",
    "power_split",
    "power_sum",
    "HankelSpec",
    "class_spec",
    "TruncatedMatrix",
    "build_hankel",
    "lattice_points",
    "shell_size",
    "radial_lift",
    "parity_lift",
    "build_multiradial_T",
    "fold_unfold",
    "even_subsample",
    "shift_product",
    "smoothed_shift",
    "box_section",
    "tau_transform",
    "S1Estimate",
    "s1_estimate",
    "trace_norm_memo",
    "series_tail_flag",
    "BonsallReport",
    "bonsall_test",
    "RankOneReport",
    "rank_one_geom",
    "SphereBoundReport",
    "sphere_indicator_bound",
    "WeightEquivalenceReport",
    "weight_equivalence",
]


@dataclass(frozen=True)
class WeightScheme:
    """Entry weight of a Hankel section.

    BINOM_HALF(N): w(i)w(j) with w(i) = binom(N+i-1, N-1)^(1/2).
    POWER_SPLIT(alpha, beta): (1+i)^alpha (1+j)^beta with alpha, beta > -1/2.
    POWER_SUM(s): (1+i+j)^s.
    """

    variant: str
    params: tuple

    def __post_init__(self):
        if self.variant == "BINOM_HALF":
            (level,) = self.params
            if level < 1:
                raise ValueError("BINOM_HALF needs level >= 1")
        elif self.variant == "POWER_SPLIT":
            a, b = self.params
            if a <= -0.5 or b <= -0.5:
                raise ValueError("POWER_SPLIT needs alpha, beta > -1/2")
        elif self.variant == "POWER_SUM":
            if len(self.params) != 1:
                raise ValueError("POWER_SUM takes a single exponent")
        else:
            raise ValueError(f"unknown weight variant {self.variant!r}")

    def pair(self, i: int, j: int) -> float:
        if self.variant == "BINOM_HALF":
            level = self.params[0]
            return math.sqrt(
                binomial_weight(level + i - 1, level - 1)
                * binomial_weight(level + j - 1, level - 1)
            )
        if self.variant == "POWER_SPLIT":
            a, b = self.params
            return (1.0 + i) ** a * (1.0 + j) ** b
        return (1.0 + i + j) ** self.params[0]

    def pair_exact(self, i: int, j: int):
        """Exact pair weight, limited to the integer-valued cases."""
        if self.variant == "POWER_SUM":
            s = self.params[0]
            if s == int(s) and s >= 0:
                return (1 + i + j) ** int(s)
        elif self.variant == "POWER_SPLIT":
            a, b = self.params
            if a == int(a) and b == int(b) and a >= 0 and b >= 0:
                return (1 + i) ** int(a) * (1 + j) ** int(b)
        elif self.params[0] == 1:  # BINOM_HALF at level 1 is the flat weight
            return 1
        raise ValueError(f"{self.label()} has no exact form; build with exact=False")

    def label(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"{self.variant}({inner})"


def binom_half(level: int) -> WeightScheme:
    return WeightScheme("BINOM_HALF", (level,))


def power_split(alpha: float, beta: float) -> WeightScheme:
    return WeightScheme("POWER_SPLIT", (alpha, beta))


def power_sum(s) -> WeightScheme:
    return WeightScheme("POWER_SUM", (s,))


# class tag -> (step, order); None order means any order >= 1
_CLASS_SHAPE = {"A": (2, None), "B": (1, None), "C": (2, 1)}


@dataclass(frozen=True)
class HankelSpec:
    """Recipe for a weighted Hankel section: entry(i,j) = w(i,j) * (d phi)(i+j).

    The class tags pin the derivative shape: A is step 2 iterated N times,
    B step 1 iterated N times, C a single step-2 difference.
    """

    symbol: RadialSymbol
    derivative: DerivativeSpec
    weight: WeightScheme
    class_tag: str = "RAW"

    def __post_init__(self):
        if self.class_tag == "RAW":
            return
        shape = _CLASS_SHAPE.get(self.class_tag)
        if shape is None:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        step, order = shape
        ok = self.derivative.step == step and (
            self.derivative.order == order if order else self.derivative.order >= 1
        )
        if not ok:
            raise ValueError(
                f"class {self.class_tag} needs derivative "
                f"(step={step}, order={order or 'N>=1'}), got {self.derivative}"
            )

    def label(self) -> str:
        return (
            f"{self.class_tag}[{self.symbol.label()}, "
            f"d{self.derivative.step}^{self.derivative.order}, {self.weight.label()}]"
        )


def class_spec(symbol: RadialSymbol, level: int, tag: str) -> HankelSpec:
    """Membership-class spec at a given level: weight (1+i+j)^(level-1) with
    the class derivative."""
    if level < 1:
        raise ValueError("class level must be >= 1")
    if tag not in _CLASS_SHAPE:
        raise ValueError(f"class tag must be one of A, B, C, got {tag!r}")
    step, order = _CLASS_SHAPE[tag]
    deriv = DerivativeSpec(step, order if order else level)
    return HankelSpec(symbol, deriv, power_sum(level - 1), tag)


# conj(i^k) for k mod 4: the phases that undo D = diag(i^k) on both sides
_UNDO_QUARTER_TURNS = np.array([1, -1j, -1, 1j])
# ||Im R||_F over ||Re R||_F at or below which a phase-reduced section counts as real
_PHASE_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)


def _section_norm(section: np.ndarray) -> tuple:
    """(trace norm, path, allowance) of a section, by the cheapest exact path.

    zero: an all-zero section has trace norm 0.0.  symmetric: a real
    symmetric section has its singular values as the absolute eigenvalues.
    phase: a complex symmetric S with R = conj(D) S conj(D), D = diag(i^k),
    real up to ||Im R||_F <= 1e-12 ||Re R||_F (class A and C sections of
    I_POWER) has ||S||_1 = ||R||_1 within sqrt(K) ||Im R||_F of the
    eigenvalue sum of Re R; that bound is the allowance, and every entry of R
    is an entry of S times one of 1, -i, -1, i, which is exact.  svd: every
    other section.
    """
    if not section.any():
        return 0.0, "zero", 0.0
    if np.array_equal(section, section.T):
        if np.isrealobj(section):
            return float(np.abs(np.linalg.eigvalsh(section)).sum()), "symmetric", 0.0
        K = section.shape[0]
        # entry (i, j) turns by conj(i^(i+j)), which depends on i + j alone
        turns = _UNDO_QUARTER_TURNS[np.arange(2 * K - 1) % 4]
        reduced = section * sliding_window_view(turns, K)
        imag = float(np.linalg.norm(reduced.imag))
        if imag <= _PHASE_TOL * float(np.linalg.norm(reduced.real)):
            norm = float(np.abs(np.linalg.eigvalsh(reduced.real)).sum())
            return norm, "phase", math.sqrt(K) * imag
    return float(np.linalg.svd(section, compute_uv=False).sum()), "svd", 0.0


def _trace_norm(section: np.ndarray) -> float:
    """Sum of singular values, by the first of four paths that applies: zero
    section, real symmetric (eigvalsh), phase-reduced complex symmetric
    (eigvalsh of the real part), SVD; see `_section_norm`."""
    return _section_norm(section)[0]


def _to_numeric(entries: np.ndarray) -> np.ndarray:
    if entries.dtype != object:
        return entries
    try:
        return np.array([[float(v) for v in row] for row in entries])
    except TypeError:
        return np.array([[complex(v) for v in row] for row in entries])


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """Finite section plus the index tuples it is sampled on.

    Plain Hankel sections are indexed by 1-tuples (i,); lattice sections by
    dim-tuples.  Entries are float/complex arrays, or object arrays of exact
    scalars when built with exact=True.
    """

    entries: np.ndarray
    points: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def as_numeric(self) -> np.ndarray:
        return _to_numeric(self.entries)

    def trace_norm(self) -> float:
        return _trace_norm(self.as_numeric())


def _power_sum_values(weight: WeightScheme, vals: np.ndarray) -> np.ndarray:
    """The weighted anti-diagonal values (1 + k)^s vals[k] of a POWER_SUM section."""
    return (1.0 + np.arange(len(vals))) ** weight.params[0] * vals


def _weighted_section(weight: WeightScheme, vals: np.ndarray, K: int) -> np.ndarray:
    """entry(i, j) = weight(i, j) * vals[i + j] on the K x K section, from the
    2K - 1 values.  A POWER_SUM weight depends on i + j alone, so its section
    is a read-only Hankel view of one weighted vector."""
    if weight.variant == "POWER_SUM":
        return sliding_window_view(_power_sum_values(weight, vals[: 2 * K - 1]), K)
    idx = np.arange(K)
    if weight.variant == "POWER_SPLIT":
        a, b = weight.params
        wmat = np.outer((1.0 + idx) ** a, (1.0 + idx) ** b)
    else:
        level = weight.params[0]
        w = np.array([math.sqrt(binomial_weight(level + i - 1, level - 1)) for i in range(K)])
        wmat = np.outer(w, w)
    return wmat * sliding_window_view(vals, K)


def build_hankel(spec: HankelSpec, K: int, exact: bool = False) -> TruncatedMatrix:
    """K x K section with entry(i,j) = weight(i,j) * (d phi)(i+j)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    vals = derivative_table(spec.symbol, spec.derivative, 2 * K - 1, exact)
    prov = {"kind": "hankel", "spec": spec.label(), "K": K}
    points = tuple((i,) for i in range(K))
    if exact:
        data = np.empty((K, K), dtype=object)
        for i in range(K):
            for j in range(K):
                data[i, j] = spec.weight.pair_exact(i, j) * vals[i + j]
        return TruncatedMatrix(data, points, prov)
    return TruncatedMatrix(np.array(_weighted_section(spec.weight, vals, K)), points, prov)


def lattice_points(dim: int, cutoff: int) -> tuple:
    """All m in N^dim with |m| <= cutoff, graded lexicographic."""
    if dim < 1 or cutoff < 0:
        raise ValueError(f"bad lattice shape dim={dim}, cutoff={cutoff}")

    def shells(d, total):
        if d == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in shells(d - 1, total - first):
                yield (first,) + rest

    pts = []
    for total in range(cutoff + 1):
        pts.extend(shells(dim, total))
    return tuple(pts)


def shell_size(dim: int, i: int) -> int:
    """Number of lattice points in N^dim with coordinate sum i."""
    return binomial(dim + i - 1, dim - 1)


def radial_lift(symbol: RadialSymbol) -> Callable[[tuple], object]:
    """phi~(v) = phi(|v|)."""
    return lambda v: symbol.eval(sum(v))


def parity_lift(symbol: RadialSymbol) -> Callable[[tuple], object]:
    """phi~(v) = phi(|v|/2) when every coordinate is even, else 0."""

    def fn(v):
        if all(x % 2 == 0 for x in v):
            return symbol.eval(sum(v) // 2)
        return 0

    return fn


def _pointwise(phi_tilde) -> Callable[[tuple], object]:
    """phi~ as a function on integer tuples.

    phi~ takes one of three forms: a RadialSymbol, lifted radially; a
    sequence of RadialSymbols, meaning the product phi_1(v_1) ... phi_N(v_N);
    or a callable on integer tuples.
    """
    if isinstance(phi_tilde, RadialSymbol):
        return lambda v: phi_tilde(int(sum(v)))
    if isinstance(phi_tilde, (tuple, list)):
        if not all(isinstance(f, RadialSymbol) for f in phi_tilde):
            raise TypeError("a sequence phi~ must hold RadialSymbols")
        return lambda v: math.prod(f(int(t)) for f, t in zip(phi_tilde, v))
    if callable(phi_tilde):
        return lambda v: phi_tilde(tuple(int(t) for t in v))
    raise TypeError("expected a RadialSymbol, a sequence of them, "
                    "or a callable on integer tuples")


def _label(phi_tilde, default: str) -> str:
    if isinstance(phi_tilde, RadialSymbol):
        return phi_tilde.label()
    if isinstance(phi_tilde, (tuple, list)):
        return "product[" + ",".join(f.label() for f in phi_tilde) + "]"
    return default


def _real_if_zero_imag(a: np.ndarray) -> np.ndarray:
    return a.real if a.dtype == np.complex128 and not a.imag.any() else a


def _corner_table(phi_tilde, sides: Sequence[int], step: int = 2, exact: bool = False,
                  reach: Optional[int] = None):
    """phi~ on the box with the given sides, and its alternating-corner table
    der[s] = sum over subsets I of the axes of (-1)^|I| phi~(s + step*chi_I)
    on the box shortened by `step` along every axis.

    A sequence is never evaluated off its axes: both tables are outer
    products, in factor order, of the one-axis values f(t) and differences
    f(t) - f(t + step).  Any other phi~ is evaluated pointwise, at the points
    whose coordinate total is at most `reach` (all when None); the rest of
    the box is 0.  Entries are exact scalars when `exact`, else complex, made
    real when every imaginary part is 0.
    """
    fn = _pointwise(phi_tilde)
    dtype = object if exact else np.complex128
    if isinstance(phi_tilde, (tuple, list)):
        if len(phi_tilde) != len(sides):
            raise ValueError(f"{len(phi_tilde)} factors for a {len(sides)}-dimensional box")
        axes = [np.array([f(t) for t in range(side)], dtype=dtype)
                for f, side in zip(phi_tilde, sides)]
        grid = reduce(np.multiply.outer, axes)
        der = reduce(np.multiply.outer, [f[:-step] - f[step:] for f in axes])
    else:
        grid = np.zeros(tuple(sides), dtype=dtype)
        for v in itertools.product(*map(range, sides)):
            if reach is None or sum(v) <= reach:
                grid[v] = fn(v)
        der = grid
        for ax, side in enumerate(sides):
            der = der.take(range(side - step), ax) - der.take(range(step, side), ax)
    return _real_if_zero_imag(grid), _real_if_zero_imag(der)


def _lattice_section(der: np.ndarray, pts: Sequence[tuple]) -> np.ndarray:
    """entry(m, n) = der[m + n] for m, n over the lattice points."""
    idx = np.array(pts, dtype=np.intp)
    return der[tuple(np.moveaxis(idx[:, None, :] + idx[None, :, :], -1, 0))]


def build_multiradial_T(phi_tilde, dim: int, cutoff: int, step: int = 2,
                        exact: bool = False) -> TruncatedMatrix:
    """Lattice section entry(m,n) = sum over subsets I of the coordinates of
    (-1)^|I| phi~(m + n + step*chi_I), on the points with |m| <= cutoff.

    A RadialSymbol argument is lifted radially; the subset sum then collapses
    to the iterated step difference at |m| + |n|, which is used directly.
    Any other phi~ (a sequence of symbols or a callable) is read from its
    alternating-corner table.
    """
    if step not in (1, 2):
        raise ValueError(f"step must be 1 or 2, got {step}")
    pts = lattice_points(dim, cutoff)
    prov = {"kind": "lattice", "dim": dim, "cutoff": cutoff, "step": step}
    if isinstance(phi_tilde, RadialSymbol):
        prov["spec"] = f"radial[{phi_tilde.label()}]"
        vals = derivative_table(phi_tilde, DerivativeSpec(step, dim), 2 * cutoff + 1, exact)
        totals = np.array([sum(p) for p in pts])
        return TruncatedMatrix(vals[totals[:, None] + totals[None, :]], pts, prov)

    prov["spec"] = _label(phi_tilde, getattr(phi_tilde, "__name__", "custom"))
    # m + n stays in the box of side 2*cutoff + 1, and its corners in the
    # box of side 2*cutoff + step + 1 below the total 2*cutoff + step*dim
    _, der = _corner_table(phi_tilde, (2 * cutoff + step + 1,) * dim, step, exact,
                           reach=2 * cutoff + step * dim)
    return TruncatedMatrix(_real_if_zero_imag(_lattice_section(der, pts)), pts, prov)


def _simplex_cutoff(matrix: TruncatedMatrix, dim: int) -> int:
    cutoff = max(sum(p) for p in matrix.points)
    if matrix.points != lattice_points(dim, cutoff):
        raise StructureViolationError("expected a full graded-lex lattice section")
    return cutoff


def fold_unfold(direction: str, matrix: TruncatedMatrix, dim: int) -> TruncatedMatrix:
    """Conjugate by the shell-averaging isometry V delta_i = mult(i)^(-1/2)
    sum over |m| = i of delta_m.

    fold takes a radial lattice section to the Hankel-type section with
    combined weight sqrt(mult(i) mult(j)); unfold is the reverse.  Both
    preserve the multiset of nonzero singular values.
    """
    if direction not in ("fold", "unfold"):
        raise ValueError(f"direction must be fold or unfold, got {direction!r}")
    if direction == "fold":
        cutoff = _simplex_cutoff(matrix, dim)
        shells = [[] for _ in range(cutoff + 1)]
        for pos, p in enumerate(matrix.points):
            shells[sum(p)].append(pos)
        num = matrix.as_numeric()
        scale = 1.0 + float(np.abs(num).max())
        data = np.zeros((cutoff + 1, cutoff + 1), dtype=num.dtype)
        for i in range(cutoff + 1):
            for j in range(cutoff + 1):
                sub = num[np.ix_(shells[i], shells[j])]
                if np.abs(sub - sub[0, 0]).max() > 1e-12 * scale:
                    raise StructureViolationError(
                        f"entries on shell pair ({i},{j}) are not radial"
                    )
                data[i, j] = sub[0, 0] * math.sqrt(shell_size(dim, i) * shell_size(dim, j))
        points = tuple((i,) for i in range(cutoff + 1))
        prov = {"kind": "hankel", "spec": f"fold[{matrix.provenance.get('spec')}]",
                "dim": dim}
        return TruncatedMatrix(data, points, prov)

    K = matrix.size - 1
    pts = lattice_points(dim, K)
    num = matrix.as_numeric()
    totals = np.array([sum(p) for p in pts])
    mults = np.array([math.sqrt(shell_size(dim, i)) for i in range(K + 1)])
    data = num[totals[:, None], totals[None, :]] / np.outer(mults[totals], mults[totals])
    prov = {"kind": "lattice", "dim": dim, "cutoff": K,
            "spec": f"unfold[{matrix.provenance.get('spec')}]"}
    return TruncatedMatrix(data, pts, prov)


def even_subsample(T: TruncatedMatrix, dim: int) -> TruncatedMatrix:
    """Section entry(m,n) = T(2m, 2n), on the half cutoff."""
    try:
        cutoff_in = _simplex_cutoff(T, dim)
    except StructureViolationError as exc:
        raise TailUndefinedError(str(exc)) from None
    index = {p: i for i, p in enumerate(T.points)}
    pts = lattice_points(dim, cutoff_in // 2)
    rows = [index[tuple(2 * x for x in p)] for p in pts]
    data = T.entries[np.ix_(rows, rows)]
    prov = {"kind": "lattice", "dim": dim, "cutoff": cutoff_in // 2,
            "spec": f"even[{T.provenance.get('spec')}]"}
    return TruncatedMatrix(data, pts, prov)


def _shift_product_1d(m: int, n: int, K: int) -> np.ndarray:
    # (S^m S*^n)[a, b] = 1 exactly when a - m == b - n with a >= m, b >= n
    out = np.zeros((K, K))
    for a in range(m, K):
        b = a - m + n
        if n <= b < K:
            out[a, b] = 1.0
    return out


def _box_points(dim: int, side: int) -> tuple:
    return tuple(itertools.product(range(side), repeat=dim))


def shift_product(m: Sequence[int], n: Sequence[int], K: int) -> TruncatedMatrix:
    """Box section of the plain shift word S^m (S*)^n, one factor per axis."""
    factors = [_shift_product_1d(mi, ni, K) for mi, ni in zip(m, n)]
    data = reduce(np.kron, factors)
    prov = {"kind": "box", "dim": len(factors), "K": K, "m": tuple(m), "n": tuple(n)}
    return TruncatedMatrix(data, _box_points(len(factors), K), prov)


def smoothed_shift(m: Sequence[int], n: Sequence[int], q: Sequence[int],
                   K: int) -> TruncatedMatrix:
    """Box section of the smoothed shift word.

    Per axis the factor is S^m (S*)^n when min(m, n) = 0, otherwise
    (1 - 1/q)^(-1) (S^m S*^n - (1/q) S^(m-1) S*^(n-1)).  Indices run over the
    box {0..K-1}^dim in row-major order, so the section is a plain Kronecker
    product of the factors.
    """
    if not (len(m) == len(n) == len(q)):
        raise ValueError("m, n, q must have equal length")
    if any(qi < 2 for qi in q):
        raise ValueError("every q must be >= 2")
    if K < max(itertools.chain(m, n)) + 1:
        raise ValueError("K must exceed every shift exponent")
    factors = []
    for mi, ni, qi in zip(m, n, q):
        raw = _shift_product_1d(mi, ni, K)
        if min(mi, ni) == 0:
            factors.append(raw)
        else:
            prev = _shift_product_1d(mi - 1, ni - 1, K)
            factors.append((raw - prev / qi) / (1.0 - 1.0 / qi))
    data = reduce(np.kron, factors)
    prov = {"kind": "box", "dim": len(factors), "K": K,
            "m": tuple(m), "n": tuple(n), "q": tuple(q)}
    return TruncatedMatrix(data, _box_points(len(factors), K), prov)


def box_section(values: dict, dim: int, side: int) -> TruncatedMatrix:
    """Dense box section from a sparse {(m, n): value} map of lattice pairs."""
    pts = _box_points(dim, side)
    pos = {p: i for i, p in enumerate(pts)}
    cplx = any(isinstance(v, complex) for v in values.values())
    data = np.zeros((len(pts), len(pts)), dtype=complex if cplx else float)
    for (m, n), v in values.items():
        data[pos[tuple(m)], pos[tuple(n)]] = v
    return TruncatedMatrix(data, pts, {"kind": "box", "dim": dim, "K": side})


def _box_shape(T: TruncatedMatrix) -> tuple:
    dim = len(T.points[0])
    side = round(len(T.points) ** (1.0 / dim))
    if T.points != _box_points(dim, side):
        raise StructureViolationError("expected a row-major box section")
    return dim, side


def tau_transform(T: TruncatedMatrix, q: Sequence[int]) -> TruncatedMatrix:
    """Apply the product over axes of (1 - 1/q)^(-1) (identity - tau/q), where
    tau shifts the axis forward on both sides of the section.

    Pairs with smoothed_shift through the trace identity
    Tr(smoothed(m,n) T) = Tr(S^m S*^n T').
    """
    dim, side = _box_shape(T)
    if len(q) != dim:
        raise ValueError(f"need {dim} smoothing parameters, got {len(q)}")
    if any(qi < 2 for qi in q):
        raise ValueError("every q must be >= 2")
    X = T.as_numeric().reshape((side,) * (2 * dim))
    for axis, qi in enumerate(q):
        shifted = np.zeros_like(X)
        src = [slice(None)] * (2 * dim)
        dst = [slice(None)] * (2 * dim)
        src[axis] = src[dim + axis] = slice(0, side - 1)
        dst[axis] = dst[dim + axis] = slice(1, side)
        shifted[tuple(dst)] = X[tuple(src)]
        X = (X - shifted / qi) / (1.0 - 1.0 / qi)
    prov = dict(T.provenance)
    prov["tau_q"] = tuple(q)
    n = side ** dim
    return TruncatedMatrix(X.reshape(n, n), T.points, prov)


@dataclass(frozen=True, eq=False)
class S1Estimate:
    """Trace norms of nested sections plus the three-way summability verdict."""

    sizes: tuple
    values: tuple
    cauchy_gap: float
    verdict: str
    extrapolated: Optional[float]
    detail: dict = field(default_factory=dict)


def _diag_certificate(section: np.ndarray, threshold: float):
    """Median-ratio test on (1+i)|T_ii| over the last three quarters of the
    diagonal.  A non-decaying profile certifies a nonsummable diagonal, which
    rules out trace class."""
    d = np.abs(np.diag(section))
    weighted = (1.0 + np.arange(len(d))) * d
    seg = weighted[len(weighted) // 4:]
    mid = len(seg) // 2
    if mid == 0:
        return False, 0.0
    med1 = float(np.median(seg[:mid]))
    med2 = float(np.median(seg[mid:]))
    if med1 <= 0.0:
        return med2 > 0.0, math.inf if med2 > 0.0 else 0.0
    return med2 / med1 >= threshold, med2 / med1


_GROWTH_BOUND = 10.0
_DIAG_THRESHOLD = 0.85


# (weight, block size, dtype, digest of the derivative values) -> (norm, path,
# allowance) of a Hankel section's cut block, while a trace_norm_memo block is open
_MEMO: contextvars.ContextVar = contextvars.ContextVar("trace_norm_memo", default=None)


@contextlib.contextmanager
def trace_norm_memo():
    """Compute the trace norm of each distinct Hankel section once inside the
    block (one manifest run): s1_estimate looks sections up by their numeric
    content, the weight scheme, the size and a digest of the derivative
    values, never by the symbol, whose equality ignores a table's values or a
    function's body.  The memo holds norms only, and is gone when the block
    ends; threads that should share it run in copies of this context."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _tail_cut(h: np.ndarray, K: int) -> tuple:
    """(block size, allowance) of the K x K Hankel section with anti-diagonal
    values h[:2K - 1].

    Value k fills min(k + 1, 2K - 1 - k) entries.  The cut L is the smallest
    L with sum_{k >= L} |h_k| min(k + 1, 2K - 1 - k) <= eps ||S_K||_F.  Every
    entry outside the leading L x L block has i + j >= L, and a trace norm is
    at most the sum of the entries' moduli, so the block's trace norm is
    within that sum, the allowance, of the section's.  A cut at or past K
    keeps the whole section, with allowance 0.0.  O(K), no K x K temporary.
    """
    a = np.abs(h[: 2 * K - 1])
    k = np.arange(2 * K - 1)
    count = np.minimum(k + 1, 2 * K - 1 - k)
    top = float(a.max())
    if top == 0.0:
        return 1, 0.0
    frob = top * math.sqrt(float(np.dot((a / top) ** 2, count)))
    tails = np.cumsum((a * count)[::-1])[::-1]
    cut = int(np.count_nonzero(tails > _EPS * frob))
    if cut >= K:
        return K, 0.0
    return cut, float(tails[cut])


def _memo_norm(memo, key, section: np.ndarray) -> tuple:
    if memo is None:
        return _section_norm(section)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _section_norm(section)
    return found


def s1_estimate(spec_or_builder, sizes: Sequence[int], tol: float) -> S1Estimate:
    """Trace norms over increasing sections and a verdict.

    CONVERGENT: the last increment is below tol and increments do not grow
    over the final three sizes.  DIVERGENT: the diagonal certificate fires
    (ratio at least 0.85), or the values pass 10 times the first value with
    nondecreasing increments.  Anything else is UNDECIDED.

    Each section's norm takes one of four paths, recorded per size in
    `detail["paths"]`: zero, symmetric, phase (with its allowance in
    `detail["phase_allowance"]`) or svd; see `_section_norm`.  A POWER_SUM
    section (every `class_spec`) is solved on its leading block past which
    the values are negligible, `_tail_cut`; the block size and its allowance
    are recorded per size in `detail["cuts"]` and `detail["cut_allowance"]`,
    and sizes that cut to one block solve it once.  Inside a
    `trace_norm_memo` block, a HankelSpec's blocks already seen there are
    not computed again.  The diagonal certificate reads the largest section
    uncut.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing with >= 2 entries")
    memo = None
    if isinstance(spec_or_builder, HankelSpec):
        spec = spec_or_builder
        vals = derivative_table(spec.symbol, spec.derivative, 2 * sizes[-1] - 1)
        big = _weighted_section(spec.weight, vals, sizes[-1])
        if spec.weight.variant == "POWER_SUM":
            h = _power_sum_values(spec.weight, vals)
            cuts = [_tail_cut(h, K) for K in sizes]
        else:
            cuts = [(K, 0.0) for K in sizes]
        sections = [big[:L, :L] for L, _ in cuts]
        memo = _MEMO.get()
        if memo is None:
            memo = {}
        keys = [(spec.weight, L, vals.dtype.str,
                 hashlib.blake2b(vals[: 2 * L - 1].tobytes(), digest_size=16).digest())
                for L, _ in cuts]
    elif callable(spec_or_builder):
        sections = [spec_or_builder(K).as_numeric() for K in sizes]
        big = sections[-1]
        cuts = [(K, 0.0) for K in sizes]
        keys = [None] * len(sizes)
    else:
        raise TypeError("expected a HankelSpec or a size -> TruncatedMatrix builder")
    values, paths, allowances = zip(*(_memo_norm(memo, key, sec)
                                      for key, sec in zip(keys, sections)))
    for a, b in zip(values, values[1:]):
        if b < a - 1e-9 * (1.0 + a):
            raise StructureViolationError(
                f"trace norms decreased across nested sections: {a} -> {b}"
            )
    diffs = [b - a for a, b in zip(values, values[1:])]
    gap = diffs[-1]
    cert, diag_ratio = _diag_certificate(big, _DIAG_THRESHOLD)
    shrinking = len(diffs) < 2 or diffs[-1] <= diffs[-2] + 1e-12
    growing = len(diffs) >= 2 and diffs[-1] >= diffs[-2] - 1e-12
    grown = values[-1] > _GROWTH_BOUND * max(values[0], 1e-300)
    if cert:
        verdict = "DIVERGENT"
    elif gap < tol and shrinking:
        verdict = "CONVERGENT"
    elif grown and growing:
        verdict = "DIVERGENT"
    else:
        verdict = "UNDECIDED"
    extrapolated = None
    if verdict == "CONVERGENT" and len(diffs) >= 2 and diffs[-2] > 0.0:
        rho = diffs[-1] / diffs[-2]
        if 0.0 < rho < 0.95:
            extrapolated = values[-1] + diffs[-1] * rho / (1.0 - rho)
    detail = {
        "tol": tol,
        "growth_bound": _GROWTH_BOUND,
        "diag_threshold": _DIAG_THRESHOLD,
        "diag_ratio": diag_ratio,
        "diag_certificate": cert,
        "growth_trigger": grown and growing,
        "paths": paths,
        "phase_allowance": allowances,
        "cuts": tuple(L for L, _ in cuts),
        "cut_allowance": tuple(a for _, a in cuts),
    }
    return S1Estimate(tuple(sizes), values, gap, verdict, extrapolated, detail)


def series_tail_flag(terms: Sequence[float]):
    """Dyadic-window heuristic for summability of nonnegative terms: each of
    the last two window sums must undercut the previous one by 8 percent.
    Returns (flag, window_sums)."""
    terms = [float(t) for t in terms]
    L = len(terms)
    sums = (
        sum(terms[L // 8: L // 4]),
        sum(terms[L // 4: L // 2]),
        sum(terms[L // 2:]),
    )
    if sum(terms) == 0.0:
        return True, sums
    if L < 16:
        return False, sums
    flag = sums[1] <= 0.92 * sums[0] and sums[2] <= 0.92 * sums[1]
    return flag, sums


@dataclass(frozen=True)
class BonsallReport:
    satisfied: bool
    statistic: float
    converged: bool
    window_sums: tuple


def bonsall_test(a, mode: str, K: int) -> BonsallReport:
    """Sufficient-condition checks for trace-class Hankel membership from a
    scalar sequence.

    WEIGHTED sums |a(n-1) - a(n)| n log n up to K; the sequence passes when
    the tail windows shrink.  MONOTONE checks the first three step-1
    differences stay nonnegative, then reports the plain partial sum; under
    that hypothesis summability is equivalent to trace class.
    """
    fn = _as_fn(a)
    if mode == "WEIGHTED":
        # a(n-1) - a(n) for n = 2..K; hypot is Python's abs of a complex bit
        # for bit, and math.log keeps each weight off numpy's vector path
        diff = derivative_table(a, DerivativeSpec(1, 1), K)[1:]
        n = np.arange(2, K + 1)
        logs = np.array([math.log(v) for v in range(2, K + 1)])
        terms = (np.hypot(diff.real, diff.imag) * n * logs).tolist()
        flag, sums = series_tail_flag(terms)
        return BonsallReport(flag, float(sum(terms)), flag, sums)
    if mode != "MONOTONE":
        raise ValueError(f"mode must be WEIGHTED or MONOTONE, got {mode!r}")
    vals = [fn(n) for n in range(K + 3)]
    if any(isinstance(v, complex) for v in vals):
        raise NotRealError("MONOTONE needs a real sequence")
    scale = max(1.0, max(abs(v) for v in vals))
    nonneg = not any((derivative_table(vals, DerivativeSpec(1, order), K + 1, exact=True)
                      < -1e-12 * scale).any() for order in range(3))
    terms = [float(v) for v in vals[: K + 1]]
    flag, sums = series_tail_flag(terms)
    return BonsallReport(nonneg, float(sum(terms)), flag, sums)


@dataclass(frozen=True, eq=False)
class RankOneReport:
    matrix: TruncatedMatrix
    closed_form_norm: float
    truncated_norm: float


def rank_one_geom(level: int, r: float, K: int) -> RankOneReport:
    """Step-1 level-N section of r^n under square-root binomial weights: a
    rank-one matrix whose trace norm is (1+r)^(-N) in closed form."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    f = np.array([
        math.sqrt(binomial_weight(level - 1 + i, level - 1)) * r ** i for i in range(K)
    ])
    data = (1.0 - r) ** level * np.outer(f, f)
    prov = {"kind": "hankel", "spec": f"rank_one[{level},{r}]", "K": K}
    matrix = TruncatedMatrix(data, tuple((i,) for i in range(K)), prov)
    truncated = (1.0 - r) ** level * float(f @ f)
    return RankOneReport(matrix, (1.0 + r) ** (-level), truncated)


@dataclass(frozen=True)
class SphereBoundReport:
    norm: float
    bound: float
    d_norms: tuple


def sphere_indicator_bound(level: int, n: int) -> SphereBoundReport:
    """Trace norm of the level-N section for a single-sphere symbol against
    the banded bound 2^N (1+n)^N.

    The section is supported on the anti-diagonals i+j in [n-N, n]; each bare
    anti-diagonal has trace norm l+1, which is verified directly.
    """
    if n < level:
        raise ValueError("need n >= level")
    K = n + 1
    H = build_hankel(class_spec(sphere(n), level, "B"), K)
    norm = H.trace_norm()
    bound = 2.0 ** level * (1.0 + n) ** level
    d_norms = []
    for l in range(max(0, n - level), n + 1):
        D = np.zeros((K, K))
        for i in range(min(l, K - 1) + 1):
            if 0 <= l - i < K:
                D[i, l - i] = 1.0
        s = _trace_norm(D)
        if abs(s - (l + 1)) > 1e-10 * (l + 1):
            raise StructureViolationError(f"anti-diagonal {l} norm {s} != {l + 1}")
        d_norms.append(s)
    if norm > bound + 1e-9:
        raise StructureViolationError(f"section norm {norm} exceeds bound {bound}")
    return SphereBoundReport(norm, bound, tuple(d_norms))


@dataclass(frozen=True)
class WeightEquivalenceReport:
    ratio_window: tuple
    verdicts: dict
    norms: dict


def weight_equivalence(symbol: RadialSymbol, derivative: DerivativeSpec,
                       alpha: float, beta: float, K: int,
                       tol: float = 1e-6) -> WeightEquivalenceReport:
    """Compare trace norms under the split, summed, and (integer case)
    square-root binomial weights.

    Equivalent weights must tell the same story: a CONVERGENT verdict under
    one scheme alongside DIVERGENT under another is flagged as an error.
    """
    if alpha <= -0.5 or beta <= -0.5:
        raise ValueError("alpha, beta must exceed -1/2")
    if K < 8:
        raise ValueError("K must be >= 8")
    sizes = [K // 4, K // 2, K]
    schemes = {
        "POWER_SPLIT": power_split(alpha, beta),
        "POWER_SUM": power_sum(alpha + beta),
    }
    s = alpha + beta
    if abs(s - round(s)) < 1e-12 and round(s) >= 0:
        schemes["BINOM_HALF"] = binom_half(int(round(s)) + 1)
    verdicts, norms = {}, {}
    for name, scheme in schemes.items():
        est = s1_estimate(HankelSpec(symbol, derivative, scheme), sizes, tol)
        verdicts[name] = est.verdict
        norms[name] = est.values
    decided = {v for v in verdicts.values() if v != "UNDECIDED"}
    if len(decided) > 1:
        raise StructureViolationError(f"weight schemes disagree: {verdicts}")
    ratios = []
    names = sorted(schemes)
    for x, y in itertools.combinations(names, 2):
        for vx, vy in zip(norms[x], norms[y]):
            if vy > 0.0:
                ratios.append(vx / vy)
    window = (min(ratios), max(ratios)) if ratios else (math.nan, math.nan)
    return WeightEquivalenceReport(window, verdicts, norms)
