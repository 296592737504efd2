"""Kernels on finite graphs and certified multiplier bounds.

Three layers.  Kernel builders evaluate radial data into concrete matrices
over graph vertices.  `cb_norm_sdp` computes the Schur multiplier norm of a
finite kernel by bisection over a positive semidefinite feasibility problem,
returning a certified upper bound with an explicit row factorization.
Witness builders go the other way: they construct the factorization first
(telescoping geodesic sums over tree products, polytope indicator vectors
over median complexes) and certify its quality by a trace norm plus an
explicit truncation tail, so the bound survives passage to larger balls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConvergenceError,
    MaxIterExceededError,
    RayTooShortError,
    StructureViolationError,
    TailBoundExceededError,
    TailUndefinedError,
)
from .hankel import (
    TruncatedMatrix,
    _corner_table,
    _label,
    _lattice_section,
    _pointwise,
    _trace_norm,
    build_multiradial_T,
    class_spec,
    lattice_points,
    s1_estimate,
)
from .medgraph import (
    FiniteGraph,
    MedianComplex,
    TreeBall,
    _polytopes_in,
    parity_witness,
    polytope_budget,
    product_graph,
    stable_median_table,
    tree_ball,
)
from .symbols import (
    DerivativeSpec,
    RadialSymbol,
    binomial,
    derivative_table,
    from_function,
    limits_report,
)

__all__ = [
    "KernelMatrix",
    "radial_kernel",
    "BallProduct",
    "ball_product",
    "multiradial_kernel",
    "raw_kernel",
    "polar_factor",
    "split_radial",
    "recombined_bound",
    "FactorizationWitness",
    "CbNormResult",
    "cb_norm_sdp",
    "separable_multiradial_T",
    "tree_product_witness",
    "median_witness",
    "SandwichRow",
    "SandwichReport",
    "sandwich_check",
]

_STEP2 = DerivativeSpec(2, 1)


# ---------------------------------------------------------------------------
# kernel matrices


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """A concrete kernel over the vertices of a finite graph.

    `provenance` records how the entries were produced (radial from a
    symbol, multiradial from a product table, or raw), enough to rebuild.
    """

    graph: FiniteGraph
    matrix: np.ndarray
    provenance: dict

    @property
    def size(self) -> int:
        return self.graph.size


def _spot_check(matrix: np.ndarray, reference: Callable[[int, int], complex],
                n: int, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(min(20, n * n)):
        x = int(rng.integers(n))
        y = int(rng.integers(n))
        want = reference(x, y)
        if abs(matrix[x, y] - want) > 1e-12 * (1.0 + abs(want)):
            raise StructureViolationError(
                f"kernel entry ({x},{y}) = {matrix[x, y]} disagrees with {want}"
            )


def radial_kernel(graph: FiniteGraph, symbol: RadialSymbol) -> KernelMatrix:
    """Kernel whose (x, y) entry depends only on the hop count d(x, y)."""
    diam = int(graph.distances.max())
    vals = [symbol(d) for d in range(diam + 1)]
    dtype = np.float64 if symbol.real else np.complex128
    table = np.asarray(vals, dtype=dtype)
    matrix = table[graph.distances]
    _spot_check(matrix, lambda x, y: vals[graph.distances[x, y]], graph.size)
    return KernelMatrix(graph, matrix,
                        {"kind": "radial", "symbol": symbol.label()})


@dataclass(frozen=True, eq=False)
class BallProduct:
    """A product of tree balls with its product graph, row-major order."""

    balls: Tuple[TreeBall, ...]
    graph: FiniteGraph
    shape: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.balls)


def ball_product(balls: Sequence[TreeBall]) -> BallProduct:
    balls = tuple(balls)
    if not balls:
        raise ValueError("need at least one factor")
    graph = product_graph([b.graph for b in balls])
    return BallProduct(balls, graph, tuple(b.graph.size for b in balls))


def _coordinate_distances(product: BallProduct) -> Tuple[np.ndarray, ...]:
    n = product.graph.size
    coords = np.unravel_index(np.arange(n), product.shape)
    out = []
    for ball, c in zip(product.balls, coords):
        out.append(ball.graph.distances[c[:, None], c[None, :]])
    return tuple(out)


def multiradial_kernel(product: BallProduct, phi_tilde) -> KernelMatrix:
    """Kernel over a ball product from a function of the distance vector:
    a RadialSymbol (of the summed distance), a sequence of RadialSymbols (their
    product over the coordinates) or a callable on integer tuples."""
    dists = _coordinate_distances(product)
    table, _ = _corner_table(phi_tilde, tuple(int(d.max()) + 1 for d in dists))
    matrix = table[tuple(dists)]
    fn = _pointwise(phi_tilde)
    _spot_check(matrix, lambda x, y: fn(tuple(d[x, y] for d in dists)),
                product.graph.size)
    return KernelMatrix(product.graph, matrix,
                        {"kind": "multiradial", "symbol": _label(phi_tilde, "callable"),
                         "shape": product.shape})


def raw_kernel(graph: FiniteGraph, matrix: np.ndarray) -> KernelMatrix:
    matrix = np.asarray(matrix)
    if matrix.shape != (graph.size, graph.size):
        raise ValueError(f"matrix shape {matrix.shape} does not match {graph.size} vertices")
    return KernelMatrix(graph, matrix, {"kind": "raw"})


# ---------------------------------------------------------------------------
# polar splitting and the parity part


def polar_factor(T: Union[TruncatedMatrix, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Split T = A* B through the singular value decomposition.

    A = sqrt(S) U*, B = sqrt(S) V*; both Frobenius norms equal the square
    root of the trace norm, so their product recovers it exactly.
    """
    mat = T.as_numeric() if isinstance(T, TruncatedMatrix) else np.asarray(T, dtype=np.complex128)
    u, s, vh = np.linalg.svd(mat)
    root = np.sqrt(s)
    a = root[:, None] * u.conj().T
    b = root[:, None] * vh
    tn = float(s.sum())
    prod = float(np.linalg.norm(a) * np.linalg.norm(b))
    if abs(prod - tn) > 1e-10 * (1.0 + tn):
        raise StructureViolationError(f"polar factor norms drifted: {prod} vs {tn}")
    return a, b


def split_radial(symbol: RadialSymbol, window: int = 64, tol: float = 1e-9):
    """Remove the parity part: returns (centered symbol, c_plus, c_minus).

    The centered symbol is phi(n) - c_plus - c_minus (-1)^n, which tends to
    zero along both parities.  Witness builders want this form; the combined
    kernel bound is recovered by `recombined_bound`.
    """
    rep = limits_report(symbol, window=window, tol=tol)
    if rep.c_plus is None:
        raise ConvergenceError(
            f"parity limits of {symbol.label()} undetermined over window {window}"
        )
    cp, cm = rep.c_plus, rep.c_minus
    real = symbol.real and getattr(cp, "imag", 0.0) == 0.0

    def centered(n: int):
        return symbol(n) - cp - cm * (-1) ** n

    name = f"CENTERED:{symbol.label()}"
    return from_function(centered, name=name, real=real), cp, cm


def recombined_bound(graph: FiniteGraph, witness: "FactorizationWitness",
                     c_plus, c_minus) -> float:
    """Upper bound for the un-centered kernel on a bipartite graph.

    The constant part factors through unit vectors (norm |c_plus|) and the
    alternating part through the two-coloring signs (norm |c_minus|), so the
    three bounds add.
    """
    parity_witness(graph)  # raises NotBipartiteError when signs cannot exist
    return witness.certified + abs(c_plus) + abs(c_minus)


# ---------------------------------------------------------------------------
# cb norm by semidefinite feasibility


@dataclass(frozen=True, eq=False)
class FactorizationWitness:
    """Row vectors P(x), Q(y) with a certified sup bound.

    `certified` = sup_p * sup_q is always a valid upper bound for the
    multiplier norm of whatever kernel the witness reproduces up to
    `reproduction_error`; `tail_bound` is the computed truncation error the
    reproduction is guaranteed to stay under (zero for exact kernels).
    """

    dimension: int
    sup_p: float
    sup_q: float
    certified: float
    reproduction_error: float
    tail_bound: float
    detail: dict = field(default_factory=dict)
    p_rows: Optional[np.ndarray] = None
    q_rows: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class CbNormResult:
    """Bisection outcome with certificates on both sides.

    `upper` comes from an explicit factorization, `lower` from a
    single-entry restriction or a separating dual matrix, so the interval
    is valid independently of how the feasibility verdicts went.
    """

    lower: float
    upper: float
    gap: float
    iterations: int
    trace: tuple
    witness: Optional[FactorizationWitness] = None


_FEAS_EPS = 1e-9          # step gap accepted as a feasible meeting point
_SNAP_EVERY = 20
_INNER_CAP = 2000         # iterations per level before it counts as a cap
_STALL_WINDOW = 40
_STALL_MIN_ITERS = 120
_EPS = float(np.finfo(np.float64).eps)
_ASCENT_ROUNDS = 15       # rounds of the rank-one ascent, two SVDs each
_ASCENT_RTOL = 1e-10      # relative gain of a round under which the ascent stops


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error bound of k roundings of unit u."""
    ku = k * _EPS / 2
    return ku / (1 - ku)


class _Blocks:
    """The doubled matrix [[X, B], [B*, Y]] as Hermitian blocks M + W, M - W.

    For Hermitian B the swap [[X, B], [B, Y]] -> [[Y, B], [B, X]] keeps
    feasibility, so a completion can be taken as [[M, B], [B, M]]; the
    rotation (1/sqrt 2)[[I, I], [I, -I]] turns it into diag(M + B, M - B),
    and both blocks are stored (W = B, m = n).  Any other B runs as its
    Hermitian dilation H = [[0, B], [B*, 0]] (W = H, m = 2n).  There M stays
    block diagonal, so M - H = F (M + H) F with F = diag(I, -I): only the
    first block is stored, and it is the doubled matrix itself.  Every
    eigendecomposition goes through `eigh`, which counts the m x m calls.
    """

    def __init__(self, B: np.ndarray):
        n = B.shape[0]
        self.B, self.n = B, n
        self.eigh_calls = 0
        if np.array_equal(B, B.conj().T):
            self.kernel, self.mask = B, None
        else:
            self.kernel = np.zeros((2 * n, 2 * n), dtype=B.dtype)
            self.kernel[:n, n:] = B
            self.kernel[n:, :n] = B.conj().T
            first = np.arange(2 * n) < n
            self.mask = first[:, None] == first[None, :]   # the diagonal blocks
        self.m = self.kernel.shape[0]
        self.sizes = (n, n) if self.mask is None else (2 * n,)
        self.degeneracies = (1,) * len(self.sizes)
        self.full = self

    def halves(self, Z: np.ndarray):
        """The pair (M, W) whose blocks are stored in Z."""
        if self.mask is None:
            return (Z[0] + Z[1]) / 2, (Z[0] - Z[1]) / 2
        return np.where(self.mask, Z[0], 0), np.where(self.mask, 0, Z[0])

    def join(self, M: np.ndarray, W: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return np.stack((M + W, M - W))
        return (M + W)[None]

    def completion(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Blocks of [[X, B], [B*, Y]], averaged with its swap for Hermitian B."""
        if self.mask is None:
            return self.join((X + Y) / 2, self.kernel)
        n = self.n
        M = np.zeros_like(self.kernel)
        M[:n, :n], M[n:, n:] = X, Y
        return self.join(M, self.kernel)

    def affine(self, Z: np.ndarray, c: float) -> np.ndarray:
        """Nearest blocks with W = the kernel and diag M <= c."""
        if self.mask is None:
            M = (Z[0] + Z[1]) / 2
        else:
            # M + H at once: M and H fill complementary entries, H has zero diagonal
            M = np.where(self.mask, Z[0], self.kernel)
        np.fill_diagonal(M, np.minimum(np.real(np.diagonal(M)), c))
        return self.join(M, self.kernel) if self.mask is None else M[None]

    def structure(self, Z: np.ndarray) -> np.ndarray:
        """Blocks with M cut to its real diagonal: the separator's shape."""
        M, W = self.halves(Z)
        return self.join(np.diag(np.real(np.diagonal(M))), W)

    def norm(self, Z: np.ndarray) -> float:
        return float(np.linalg.norm(Z))

    def lift(self, Z: np.ndarray) -> np.ndarray:
        return Z

    def rows(self, G: Sequence[np.ndarray]):
        """Factor rows (P, Q) of B from Gram factors of the stored blocks:
        [G+, G-] / sqrt 2 and [G+, -G-] / sqrt 2 on the rotated pair, the
        two halves of G+ on the dilation (its G- = F G+ only repeats them)."""
        if self.mask is None:
            P = np.hstack((G[0], G[1])) / np.sqrt(2)
            return P, np.hstack((G[0], -G[1])) / np.sqrt(2)
        return G[0][:self.n], G[0][self.n:]

    def eigh(self, Z: np.ndarray):
        self.eigh_calls += len(Z)
        return np.linalg.eigh(Z)


def _tree_levels(graph: FiniteGraph):
    """(depth of each vertex, parent of each vertex, child count per depth)
    when the graph is a spherically homogeneous tree ball around a unique
    centre, else None.  A tree has n - 1 edges; its centre is the midpoint of
    a diametral path, unique when the diameter is even."""
    n = graph.size
    if graph.edge_count != n - 1:
        return None
    dist = graph.distances
    a = int(dist[0].argmax())
    b = int(dist[a].argmax())
    radius, odd = divmod(int(dist[a, b]), 2)
    if odd:
        return None
    centre = int(np.flatnonzero((dist[a] == radius) & (dist[b] == radius))[0])
    depth = dist[centre].astype(np.intp)
    children = np.fromiter(map(len, graph.neighbors), dtype=np.intp, count=n)
    children[np.arange(n) != centre] -= 1
    inner = depth < radius
    branching = np.zeros(radius, dtype=np.intp)
    branching[depth[inner]] = children[inner]
    if not np.array_equal(children[inner], branching[depth[inner]]):
        return None
    parent = np.array([next((u for u in graph.neighbors[v] if depth[u] < depth[v]), -1)
                       for v in range(n)], dtype=np.intp)
    return depth, parent, branching


def _helmert(q: int) -> np.ndarray:
    """q - 1 orthonormal rows of length q, each summing to zero."""
    rows = np.zeros((q - 1, q))
    for j in range(1, q):
        rows[j - 1, :j] = 1.0
        rows[j - 1, j] = -j
        rows[j - 1] /= np.sqrt(j * (j + 1.0))
    return rows


def _tree_basis(depth: np.ndarray, parent: np.ndarray, branching: np.ndarray):
    """Orthonormal Q that block-diagonalises the root stabiliser's commutant.

    Block 0 holds the normalised sphere indicators, one per level 0..R.
    Block m + 1 holds, for each vertex v at depth m and each row u of a
    sum-zero basis on v's q_m children, the vector u spread evenly over v's
    descendants at each level m+1..R: it has R - m columns per copy and
    N_m (q_m - 1) copies, N_m the vertices at depth m.  Returns Q, per
    block with copies (first level, copies, column offset), and the sphere
    sizes N_0..N_R."""
    n = len(depth)
    R = len(branching)
    levels = [np.flatnonzero(depth == l) for l in range(R + 1)]
    count = np.array([len(x) for x in levels])
    anc = np.full((n, R + 1), -1, dtype=np.intp)
    rank = np.zeros(n, dtype=np.intp)
    pos = np.zeros(n, dtype=np.intp)
    for l, X in enumerate(levels):
        pos[X] = np.arange(len(X))
        if l:
            X = X[np.argsort(parent[X], kind="stable")]
            anc[X, :l] = anc[parent[X], :l]
            rank[X] = np.arange(len(X)) % branching[l - 1]
        anc[X, l] = X
    Q = np.zeros((n, n))
    for l, X in enumerate(levels):
        Q[X, l] = 1.0 / np.sqrt(count[l])
    blocks = [(0, 1, 0)]
    off = R + 1
    for m, q in enumerate(branching):
        if q < 2:
            continue
        size, copies = R - m, count[m] * (q - 1)
        helm = _helmert(q)
        for l in range(m + 1, R + 1):
            X = levels[l]
            first = pos[anc[X, m]] * (q - 1)
            cols = off + (first[:, None] + np.arange(q - 1)) * size + (l - m - 1)
            Q[X[:, None], cols] = helm[:, rank[anc[X, m + 1]]].T / np.sqrt(count[l] / count[m + 1])
        blocks.append((m + 1, copies, off))
        off += copies * size
    return Q, blocks, count.astype(float)


class _TreeBlocks:
    """The rotated pair M + B, M - B in the root stabiliser's commutant.

    A kernel on a spherically homogeneous tree ball that is fixed by every
    automorphism fixing the centre keeps the whole iteration in that
    commutant, so each iterate is Q diag(X_t (x) I_{d_t}) Q^T: one block X_t
    per depth, repeated d_t times (its degeneracy).  Both halves are stored
    as T blocks padded to (R+1) x (R+1), entry (l, l') of every block on
    levels l, l'; zero padding is exact for the positive part.  Norms weight
    each block by its degeneracy, so every step is the n x n step of the
    rotated layout, and Gram factors and separators are lifted through Q to
    be certified against the full B.
    """

    def __init__(self, B: np.ndarray, Q: np.ndarray, blocks, levels: np.ndarray):
        n = B.shape[0]
        self.B, self.n, self.full = B, n, _Blocks(B)
        self.eigh_calls = 0
        L = levels.size
        self.bases = [(first, Q[:, off: off + copies * (L - first)].reshape(n, copies, L - first))
                      for first, copies, off in blocks]
        self.T = len(blocks)
        first = np.array([b[0] for b in blocks])
        copies = np.array([b[1] for b in blocks])
        self.present = np.arange(L)[None, :] >= first[:, None]            # (T, L)
        # the mean (M + W + M - W) / 2 and the padding cut in one product
        self._half_mask = 0.5 * (self.present[:, :, None] & self.present[:, None, :])
        self._sphere_weights = self.present * copies[:, None] / levels[None, :]  # d_t / |S_l|
        self.sizes = tuple(int(L - f) for f in first) * 2
        self.degeneracies = tuple(int(c) for c in copies) * 2
        self._norm_weights = np.concatenate((copies, copies)).astype(float)
        self.L = L
        self.kernel = self.compress(B)

    def compress(self, X: np.ndarray) -> np.ndarray:
        """The T padded blocks of a matrix of the commutant (first copies)."""
        out = np.zeros((self.T, self.L, self.L))
        for t, (first, Qt) in enumerate(self.bases):
            out[t, first:, first:] = Qt[:, 0].T @ X @ Qt[:, 0]
        return out

    def lift_side(self, X: np.ndarray) -> np.ndarray:
        """Q diag(X_t (x) I_{d_t}) Q^T for one half's blocks."""
        out = np.zeros((self.n, self.n))
        for (first, Qt), Xt in zip(self.bases, X):
            Y = Qt @ Xt[first:, first:]
            out += Y.reshape(self.n, -1) @ Qt.reshape(self.n, -1).T
        return out

    def lift(self, Z: np.ndarray) -> np.ndarray:
        """The full layout's (2, n, n) stack of the stored blocks."""
        return np.stack((self.lift_side(Z[:self.T]), self.lift_side(Z[self.T:])))

    def halves(self, Z: np.ndarray):
        return (Z[:self.T] + Z[self.T:]) / 2, (Z[:self.T] - Z[self.T:]) / 2

    def join(self, M: np.ndarray, W: np.ndarray) -> np.ndarray:
        return np.concatenate((M + W, M - W))

    def completion(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.join(self.compress((X + Y) / 2), self.kernel)

    def _diagonals(self, M: np.ndarray) -> np.ndarray:
        """A writable (T, R+1) view of the block diagonals of a fresh stack."""
        return M.reshape(self.T, self.L ** 2)[:, ::self.L + 1]

    def _sphere_diagonal(self, d: np.ndarray) -> np.ndarray:
        """The diagonal of the lifted M on each sphere, one value per level."""
        return (self._sphere_weights * d).sum(axis=0)

    def affine(self, Z: np.ndarray, c: float) -> np.ndarray:
        """Nearest blocks with W = the kernel and diag M <= c on every sphere:
        the level-l clamp subtracts the same amount at (l, l) of each block."""
        M = Z[:self.T] + Z[self.T:]
        M *= self._half_mask
        d = self._diagonals(M)
        d -= np.maximum(self._sphere_diagonal(d) - c, 0.0) * self.present
        return self.join(M, self.kernel)

    def structure(self, Z: np.ndarray) -> np.ndarray:
        M, W = self.halves(Z)
        D = np.zeros_like(M)
        self._diagonals(D)[...] = self._sphere_diagonal(self._diagonals(M)) * self.present
        return self.join(D, W)

    def norm(self, Z: np.ndarray) -> float:
        """Frobenius norm of the lifted blocks: each block counts d_t times."""
        return float(np.sqrt(np.einsum("t,tij,tij->", self._norm_weights, Z, Z)))

    def _lift_rows(self, G: Sequence[np.ndarray]) -> np.ndarray:
        cols = [(Qt @ Gt[first:]).reshape(self.n, -1) for (first, Qt), Gt in zip(self.bases, G)]
        return np.hstack(cols)

    def rows(self, G: Sequence[np.ndarray]):
        """Factor rows (P, Q) of B: block Gram factors lifted through Q,
        then [G+, G-] / sqrt 2 and [G+, -G-] / sqrt 2 as in the rotated pair."""
        Gp, Gm = self._lift_rows(G[:self.T]), self._lift_rows(G[self.T:])
        return np.hstack((Gp, Gm)) / np.sqrt(2), np.hstack((Gp, -Gm)) / np.sqrt(2)

    def eigh(self, Z: np.ndarray):
        self.eigh_calls += len(Z)
        return np.linalg.eigh(Z)


def _layout(kernel, B: np.ndarray):
    """The tree-ball layout when the kernel's graph is a spherically
    homogeneous tree ball, B is real symmetric and B passes the check against
    its block form; the rotated pair or the dilation otherwise."""
    tree = None
    if isinstance(kernel, KernelMatrix) and B.dtype == np.float64 \
            and np.array_equal(B, B.T):
        tree = _tree_levels(kernel.graph)
    if tree is not None:
        Q, blocks, levels = _tree_basis(*tree)
        layout = _TreeBlocks(B, Q, blocks, levels)
        orthogonal = np.abs(Q.T @ Q - np.eye(len(Q))).max() <= 1e-12
        if orthogonal and np.abs(layout.lift_side(layout.kernel) - B).max() \
                <= 1e-12 * np.abs(B).max():
            return layout
    return _Blocks(B)


def _psd_part(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    Y = (V * np.maximum(w, 0.0)[:, None, :]) @ V.conj().swapaxes(1, 2)
    return (Y + Y.conj().swapaxes(1, 2)) / 2


def _max_norm(A: np.ndarray, axis: int) -> float:
    """Largest 2-norm of the rows (axis 1) or of the columns (axis 0) of A."""
    return float(np.sqrt((np.abs(A) ** 2).sum(axis=axis).max()))


def _snapshot(w: np.ndarray, V: np.ndarray, blocks: _Blocks):
    """Corrected certificate from a positive semidefinite Gram candidate.

    The raw rows reproduce B up to a residual E; appending scaled identity
    columns on one side and E columns on the other repairs the factorization
    exactly, at the price sup_p sup_q -> sup_p sup_q + min column/row norm
    of E.  The returned bound is therefore valid no matter how converged
    the iterate is.
    """
    wc = np.maximum(w, 0.0)
    floor = 1e-14 * max(1.0, float(wc.max()))
    G = [Vb[:, wb > floor] * np.sqrt(wb[wb > floor]) for wb, Vb in zip(wc, V)]
    P, Q = blocks.rows(G)
    E = blocks.B - P @ Q.conj().T
    sup_p, sup_q = _max_norm(P, 1), _max_norm(Q, 1)
    cert = sup_p * sup_q + min(_max_norm(E, 0), _max_norm(E, 1))
    return cert, sup_p, sup_q, P, Q, E


def _dual_bound(drift: np.ndarray, blocks: _Blocks, rounds: int = 12):
    """Certified floor under the multiplier norm from a separator candidate,
    with the eigenvalue pad that keeps it certified.

    Any positive semidefinite S = [[D, W], [W*, D']] with diagonal D, D'
    pairs nonnegatively with every feasible completion, which forces
    c >= 2 |Re tr(W* B)| / tr(S); on the stored blocks D + W and D - W this
    reads c >= |Re tr(W* kernel)| / tr(D).  The candidate is rounded onto
    that structure and the cone in the stored layout, lifted to the full
    layout and rounded onto the structure there, then shifted on the
    diagonal until its computed smallest eigenvalue clears m eps ||S||, the
    rounding error of that eigenvalue; the resulting ratio is valid
    regardless of where the candidate came from.
    """
    norm = blocks.norm(drift)
    if norm < 1e-14:
        return 0.0, 0.0
    S = drift / norm
    for _ in range(rounds):
        S = _psd_part(*blocks.eigh(blocks.structure(S)))
    full = blocks.full
    S = full.structure(blocks.lift(S))
    w = full.eigh(S)[0]
    pad = full.m * _EPS * float(np.abs(w).max())
    idx = np.arange(full.m)
    S[:, idx, idx] += max(0.0, pad - float(w.min()))
    D, W = full.halves(S)
    den = float(np.real(np.trace(D)))
    if den <= 1e-14:
        return 0.0, pad
    num = abs(float(np.real(np.sum(np.conj(W) * full.kernel))))
    return num / den, pad


def _feasibility(blocks: _Blocks, c: float, z: np.ndarray, cert_target: float):
    """Douglas-Rachford pass between the cone and the affine slice at level c.

    The step gap converges to the distance between the sets: a vanishing gap
    certifies feasibility, while a plateau only counts as infeasibility once
    a separator rounded from the drift pushes the dual floor above c.  Along
    the way, corrected certificates are harvested from the shadow iterates; a
    certificate at or under `cert_target` settles the level early, and both
    certificate tracks stay valid no matter the verdict.  Returns (verdict,
    state, best snapshot, (dual floor, its pad), iterations, last gap).
    """
    best = None
    dual = (0.0, 0.0)
    r_mark = np.inf
    r = np.inf
    drift = None
    dual_at = -10_000
    for it in range(1, _INNER_CAP + 1):
        w, V = blocks.eigh(z)
        y = _psd_part(w, V)
        refl = blocks.affine(2 * y - z, c)
        drift = y - refl
        r = blocks.norm(drift)
        z = z + refl - y
        if it % _SNAP_EVERY == 0 or r <= _FEAS_EPS or it == _INNER_CAP:
            snap = _snapshot(w, V, blocks)
            if best is None or snap[0] < best[0]:
                best = snap
            if snap[0] <= cert_target:
                return True, z, best, dual, it, r
        if r <= _FEAS_EPS:
            return True, z, best, dual, it, r
        if it >= _STALL_MIN_ITERS and it % _STALL_WINDOW == 0:
            if r > 10 * _FEAS_EPS and r_mark - r < 3e-4 * r \
                    and it - dual_at >= 200:
                dual_at = it
                dual = max(dual, _dual_bound(drift, blocks))
                if dual[0] > c:
                    return False, z, best, dual, it, r
            r_mark = r
    if r > 10 * _FEAS_EPS and drift is not None:
        dual = max(dual, _dual_bound(drift, blocks))
        if dual[0] > c:
            return False, z, best, dual, _INNER_CAP, r
    return None, z, best, dual, _INNER_CAP, r


def _assemble_witness(snap, B: np.ndarray, detail: dict) -> FactorizationWitness:
    """Augment the snapshot rows so they reproduce B exactly, compress the
    stacked rows [P; Q] to their numerical rank (at most 2n columns), then
    certify from the compressed rows themselves: sup_p sup_q plus the
    smaller of the largest row and column norms of what they leave of B."""
    _, sup_p, sup_q, P, Q, E = snap
    n = B.shape[0]
    ecol, erow = _max_norm(E, 0), _max_norm(E, 1)
    eye = np.eye(n, dtype=P.dtype)
    if ecol <= erow:
        delta = ecol * (sup_p / sup_q if sup_q > 0 else 1.0)
        if delta <= 0:
            delta = max(ecol, 1e-300)
        p_rows = np.hstack([P, np.sqrt(delta) * eye])
        q_rows = np.hstack([Q, E.conj().T / np.sqrt(delta)])
    else:
        delta = erow * (sup_q / sup_p if sup_p > 0 else 1.0)
        if delta <= 0:
            delta = max(erow, 1e-300)
        p_rows = np.hstack([P, E / np.sqrt(delta)])
        q_rows = np.hstack([Q, np.sqrt(delta) * eye])
    U, s, _ = np.linalg.svd(np.vstack([p_rows, q_rows]), full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * _EPS * max(2 * n, p_rows.shape[1])))
    stacked = U[:, :rank] * s[:rank]
    p_rows, q_rows = stacked[:n], stacked[n:]
    left = B - p_rows @ q_rows.conj().T
    resid = float(np.abs(left).max())
    if resid > 1e-8:
        raise ConvergenceError(f"witness residual {resid} above 1e-8")
    allowance = min(_max_norm(left, 0), _max_norm(left, 1))
    sup_p_aug, sup_q_aug = _max_norm(p_rows, 1), _max_norm(q_rows, 1)
    return FactorizationWitness(
        dimension=rank,
        sup_p=sup_p_aug,
        sup_q=sup_q_aug,
        certified=sup_p_aug * sup_q_aug + allowance,
        reproduction_error=resid,
        tail_bound=0.0,
        detail={**detail, "residual_correction": min(ecol, erow),
                "residual_allowance": allowance},
        p_rows=p_rows,
        q_rows=q_rows,
    )


def _rank_one_ascent(B: np.ndarray):
    """Certified floor ||D_xi B D_eta||_1 under the multiplier norm, from unit
    xi, eta >= 0, with its rounding pad and the number of SVDs taken.

    B o (xi eta*) = D_xi B D_eta, and the rank-one xi eta* has trace norm 1,
    so the value is a lower bound (Bennett, Duke Math. J. 1977), and the sup
    over unit vectors is the norm.  With UV* the polar part of D_xi B D_eta
    and G = Re(conj(UV*) o B), the value is xi^T G eta, so xi <- |G eta| / ||.||
    cannot lower it, and likewise eta <- |G^T xi| / ||.||; G is recomputed
    from an SVD before each half-step.  The rounds stop once one gains less
    than 1e-10 relative.  The pad, gamma(2n^2 + 10n + 16) times the value,
    covers the SVD's backward error (n eps ||.||_2 on each of n singular
    values), the roundings of the product D_xi B D_eta and of the sum, and
    the norms of xi and eta, each within (n + 2) u of 1.
    """
    n = B.shape[0]

    def value(xi, eta):
        U, s, Vh = np.linalg.svd(xi[:, None] * B * eta)
        return float(s.sum()), np.real(np.conj(U @ Vh) * B)

    xi = eta = np.full(n, 1.0 / np.sqrt(n))
    best, G = value(xi, eta)
    svds = 1
    for _ in range(_ASCENT_ROUNDS):
        start = best
        g = np.abs(G @ eta)
        xi = g / np.linalg.norm(g)
        v, G = value(xi, eta)
        g = np.abs(G.T @ xi)
        eta = g / np.linalg.norm(g)
        w, G = value(xi, eta)
        svds += 2
        best = max(best, v, w)
        if best - start <= _ASCENT_RTOL * best:
            break
    return best, _gamma(2 * n * n + 10 * n + 16) * best, svds


def cb_norm_sdp(kernel, tol: float = 1e-6, max_iter: int = 60_000) -> CbNormResult:
    """Schur multiplier norm of a finite kernel, bracketed to width tol.

    A level c is feasible exactly when the doubled matrix [[X, B], [B*, Y]]
    admits a positive semidefinite completion whose diagonal stays at or
    below c; the Gram rows of a feasible completion are the factorization.
    For Hermitian B a completion can be taken as [[M, B], [B, M]], which is
    positive semidefinite exactly when M + B and M - B are, so the iteration
    runs on two n x n blocks; any other B runs as its Hermitian dilation
    [[0, B], [B*, 0]], whose two 2n x 2n blocks are mirror images, so one
    eigendecomposition per step suffices there too.  The bisection starts
    from the larger of the largest entry and the padded rank-one ascent
    (`_rank_one_ascent`), so it never tries a level below either.
    Feasibility is decided by a splitting iteration, and the reported upper
    bound is the best corrected certificate seen anywhere, so it stays
    valid even when a verdict near the threshold is wrong.  The witness
    detail records the block sizes, the eigendecomposition count, the
    rounding allowances of both ends of the bracket and which certificate
    set the lower end.
    """
    B = kernel.matrix if isinstance(kernel, KernelMatrix) else np.asarray(kernel)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"kernel must be square, got shape {B.shape}")
    dtype = np.complex128 if np.iscomplexobj(B) else np.float64
    B = B.astype(dtype)
    n = B.shape[0]
    scale = float(np.abs(B).max())
    if scale == 0.0:
        zero = FactorizationWitness(0, 0.0, 0.0, 0.0, 0.0, 0.0, {"level": 0.0})
        return CbNormResult(0.0, 0.0, 0.0, 0, (), zero)

    # any single entry embeds as a one-point restriction; the ascent's
    # rank-one restriction is certified once its pad is taken off
    ascent, ascent_pad, ascent_svds = _rank_one_ascent(B)
    lo = max(scale, ascent - ascent_pad)
    lower_by = "ascent" if lo > scale else "entry"
    row = _max_norm(B, 1)
    col = _max_norm(B, 0)
    hi = min(row, col)

    # start from the exact completion at the coarse upper level
    blocks = _layout(kernel, B)
    eye = np.eye(n, dtype=dtype)
    if col <= row:
        z = blocks.completion(hi * eye, (B.conj().T @ B) / hi)
    else:
        z = blocks.completion((B @ B.conj().T) / hi, hi * eye)

    total = 0
    trace = []
    best = None
    best_level = hi
    cert_lower = lo    # certified: entry or ascent, then dual floors
    dual_pad = 0.0
    c = hi
    stuck = 0
    while True:
        verdict, z, snap, dual, used, r = _feasibility(
            blocks, c, z, c + 0.25 * tol)
        total += used
        tag = {True: "feasible", False: "infeasible", None: "cap"}[verdict]
        trace.append((float(c), tag, used, float(r)))
        if snap is not None and (best is None or snap[0] < best[0]):
            best, best_level = snap, c
        if dual[0] > cert_lower:
            cert_lower, dual_pad = dual
            lower_by = "dual"
        if verdict is False:
            lo = max(lo, c)
            stuck = 0
        elif verdict is True:
            hi = min(hi, c)
            stuck = 0
        else:
            # undecided: keep the bracket, carry the warm state forward
            stuck += 1
        upper_now = best[0] if best is not None else hi
        if upper_now - cert_lower <= tol:
            break
        if total > max_iter:
            raise MaxIterExceededError(
                f"iteration budget {max_iter} exhausted at certified bracket "
                f"[{cert_lower}, {upper_now}]",
                bracket=(cert_lower, upper_now),
            )
        lo_eff = max(lo, cert_lower)
        hi_eff = min(hi, upper_now)
        if hi_eff <= lo_eff:
            lo_eff, hi_eff = cert_lower, upper_now
        if stuck >= 2:
            # a level the iteration cannot settle: retreat upward, where
            # early-accepted certificates guarantee progress
            c = (c + hi_eff) / 2 if c < hi_eff else hi_eff
        else:
            c = (lo_eff + hi_eff) / 2

    detail = {"level": best_level, "blocks": blocks.sizes,
              "degeneracies": blocks.degeneracies,
              "eigh_calls": blocks.eigh_calls, "dual_pad": dual_pad,
              "lower_certificate": lower_by, "ascent_pad": ascent_pad,
              "ascent_svds": ascent_svds}
    if blocks.full is not blocks:
        detail["lifted_eigh_calls"] = blocks.full.eigh_calls
    witness = _assemble_witness(best, B, detail)
    upper = witness.certified
    lower = min(cert_lower, upper)
    return CbNormResult(lower, upper, upper - lower, total, tuple(trace), witness)


# ---------------------------------------------------------------------------
# separable product sections


def separable_multiradial_T(symbols: Sequence[RadialSymbol], cutoff: int,
                            exact: bool = False) -> TruncatedMatrix:
    """Step-2 lattice section of the product phi_1(v_1) ... phi_N(v_N) of
    one-variable symbols, built from their one-axis tables."""
    return build_multiradial_T(tuple(symbols), len(symbols), cutoff, 2, exact)


# ---------------------------------------------------------------------------
# tree product witnesses


def _meet_tables(ball: TreeBall) -> np.ndarray:
    """k0[x, y]: how far x's base geodesic runs before it meets y's.

    In a tree that is the Gromov product (d(x,y) + d(x,t) - d(y,t)) / 2 at
    the far ray end t; `meet_data` walks the geodesics for the same numbers.
    """
    d = ball.graph.distances.astype(np.int64)
    t = d[:, ball.base_ray[-1]]
    return (d + t[:, None] - t[None, :]) // 2


_TAIL_PAD = 1e-12  # flat cover for increments beyond the derivative horizon


def tree_product_witness(balls: Sequence[TreeBall], phi_tilde, cutoff: int,
                         j_tail: int, tol: float = 1e-6) -> FactorizationWitness:
    """Certified factorization of a product kernel by telescoping sums.

    Coordinates are indexed by points on geodesics toward the base rays; the
    matched-tail structure makes the inner product at (x, y) a diagonal sum
    of section entries T[m0 + j, k0 + j] starting at the meet depths, so the
    polar factors of T control both sup norms and the certified bound equals
    its trace norm.  T is the step-2 lattice section of phi~ on the points
    with |m| <= cutoff; its entry T[m, n] is the alternating-corner table at
    m + n, so the section and every cell's diagonal sum come from one table.
    The value computed for each meet cell is the exact inner product of the
    truncated vectors; `j_tail` caps the per-coordinate summation range and
    should exceed the cutoff when an exact value is wanted.  phi~ is a
    RadialSymbol, a sequence of them (their product over the coordinates) or
    a callable on integer tuples; every symbol must be centered.
    """
    balls = tuple(balls)
    N = len(balls)
    if N == 0:
        raise ValueError("need at least one ball")
    factors = ((phi_tilde,) if isinstance(phi_tilde, RadialSymbol)
               else phi_tilde if isinstance(phi_tilde, (tuple, list)) else ())
    for sym in factors:
        rep = limits_report(sym)
        if rep.c_plus is not None and max(abs(rep.c_plus), abs(rep.c_minus)) > 1e-8:
            raise ValueError("remove the parity part first (split_radial)")

    radii = tuple(b.radius for b in balls)
    horizon = j_tail + (64 if N <= 2 else 16)
    # the grid must cover both the meet cells and the section indices
    grid, der = _corner_table(phi_tilde, tuple(2 * max(r, cutoff) + 2 * horizon + 3
                                               for r in radii))
    dabs = np.abs(der)
    dscale = float(dabs.max())

    pts = lattice_points(N, cutoff)
    sup_p = sup_q = float(np.sqrt(_trace_norm(_lattice_section(der, pts))))
    certified = sup_p * sup_q

    # offsets j of a cell's diagonal sum, with j_i < j_tail on every axis
    inner = (slice(0, j_tail),) * N
    jsum = sum(np.ogrid[inner])

    k0_tables = [_meet_tables(b) for b in balls]
    factor_cells = []
    for k0 in k0_tables:
        factor_cells.append(sorted({(int(k0[x, y]), int(k0[y, x]))
                                    for x in range(k0.shape[0])
                                    for y in range(k0.shape[0])}))

    max_err = 0.0
    max_tail = 0.0
    seen = {}
    n_cells = 0
    for combo in itertools.product(*factor_cells):
        k0vec = tuple(c[0] for c in combo)
        m0vec = tuple(c[1] for c in combo)
        key = min((k0vec, m0vec), (m0vec, k0vec))
        if key in seen:
            continue
        seen[key] = True
        n_cells += 1

        # T[m0 + j, k0 + j] = der[s + 2j] exists while both totals stay <= cutoff
        svec = tuple(k + m for k, m in zip(k0vec, m0vec))
        box = tuple(slice(s0, s0 + 2 * horizon, 2) for s0 in svec)
        sub = dabs[box]
        mask = jsum <= cutoff - max(sum(k0vec), sum(m0vec))
        value = der[box][inner][mask].sum()
        included_abs = float(sub[inner][mask].sum())

        total_abs = float(sub.sum())
        shell = 0.0
        for ax in range(N):
            sl = [slice(None)] * N
            sl[ax] = slice(-1, None)
            shell += float(sub[tuple(sl)].sum())
        if shell > 1.5e-14 * (1.0 + dscale):
            raise TailBoundExceededError(
                f"increments still {shell:g} at the derivative horizon {horizon}"
            )
        tail = max(total_abs - included_abs, 0.0) + _TAIL_PAD

        target = grid[svec]
        err = abs(value - target)
        if err > tail + 1e-9 * (1.0 + abs(target)):
            raise StructureViolationError(
                f"cell {k0vec}/{m0vec}: error {err:g} above its tail bound {tail:g}"
            )
        max_err = max(max_err, float(err))
        max_tail = max(max_tail, tail)

    if max_tail > tol:
        raise TailBoundExceededError(
            f"tail bound {max_tail:g} exceeds the requested tolerance {tol:g}"
        )
    ambient = len(pts)
    for b in balls:
        ambient *= b.graph.size + j_tail
    return FactorizationWitness(
        dimension=ambient,
        sup_p=sup_p,
        sup_q=sup_q,
        certified=certified,
        reproduction_error=max_err,
        tail_bound=max_tail,
        detail={
            "kind": "tree-product",
            "cells": n_cells,
            "j_tail": j_tail,
            "points": len(pts),
            "radii": radii,
            "trace_norm": certified,
        },
    )


# ---------------------------------------------------------------------------
# median complex witnesses


_TAIL_CAP = 4096


def _increment_tails(symbol: RadialSymbol, starts, cap: int = _TAIL_CAP) -> dict:
    """Sum of |step-2 increments| from each start on, stopped once 8
    consecutive terms fall below 1e-17 (1 + running total) and failing after
    `cap` terms.  Every sum reads one table of increments, doubled while a
    sum is open; a table symbol is read only up to its end."""
    phi: list = []
    tails: dict = {}
    length = max(starts) + 64
    while True:
        try:
            while len(phi) < length + 2:
                phi.append(symbol(len(phi)))
            ended = None
        except TailUndefinedError as exc:
            ended = exc
        incs = derivative_table(phi, _STEP2, len(phi) - 2)
        incs = np.hypot(incs.real, incs.imag)   # Python's abs, bit for bit
        for start in set(starts) - set(tails):
            terms = incs[start::2][:cap]
            totals = np.cumsum(terms)   # in the order of a running sum
            quiet = terms < 1e-17 * (1.0 + totals)
            runs = sliding_window_view(quiet, 8).all(axis=1) if len(terms) >= 8 else quiet[:0]
            if runs.any():   # runs[j]: terms j .. j + 7 are all quiet
                tails[start] = float(totals[runs.argmax() + 7])
            elif len(terms) == cap:
                raise TailBoundExceededError(
                    f"increment tail from {start} did not resolve within {cap} terms"
                )
            elif ended is not None:
                raise ended
        if len(tails) == len(set(starts)):
            return tails
        length = min(2 * length, max(starts) + 2 * cap)


_MEMBERSHIP_SIZES = (64, 128, 256, 512)


def _shared_polytope_sum(A: np.ndarray, H: np.ndarray, chunk: int = 1 << 18) -> np.ndarray:
    """sum over g, k1, k2 of |A[x, k1, g]| H[k2, k1] A[y, k2, g], for all x, y.

    A is sparse, so the sum runs over the pairs (i, j) of its nonzeros that
    lie in one polytope g: grouped by g, each nonzero i meets every j of its
    group, about `chunk` pairs at a time.  Returns the m x m table, m = len(A)."""
    m = len(A)
    g, x, k = np.nonzero(A.transpose(2, 0, 1))    # grouped by polytope
    sign = A[x, k, g].astype(float)
    size = np.bincount(g)[g]                      # the group of each nonzero
    group_start = np.searchsorted(g, g)
    ends = np.cumsum(size)                        # pairs through each nonzero
    total = int(ends[-1]) if len(g) else 0
    bounds = np.unique(np.concatenate(
        ([0], np.searchsorted(ends, np.arange(chunk, total, chunk)), [len(g)])))
    out = np.zeros(m * m, dtype=np.result_type(H, float))
    for a, b in zip(bounds[:-1], bounds[1:]):
        i = np.repeat(np.arange(a, b), size[a:b])
        # the pairs of nonzero i start at ends[i] - size[i]
        firsts = ends[a:b] - size[a:b] - (ends[a] - size[a])
        j = group_start[i] + np.arange(len(i)) - np.repeat(firsts, size[a:b])
        weight = H[k[j], k[i]] * (np.abs(sign[i]) * sign[j])
        cell = x[i] * m + x[j]
        out += np.bincount(cell, weight.real, minlength=m * m)
        if np.iscomplexobj(weight):
            out += 1j * np.bincount(cell, weight.imag, minlength=m * m)
    return out.reshape(m, m)


def median_witness(cx: MedianComplex, symbol: RadialSymbol, K: int = 16,
                   core: Optional[Sequence[int]] = None, tol: float = 1e-6,
                   seed: int = 11) -> FactorizationWitness:
    """Certified factorization over a median complex from polytope vectors.

    Coordinates are signed polytope indicators at levels k < K tensored with
    the polar columns of the plain increment section; their pairings reduce
    inner products to diagonal sums starting at the distances to the stable
    median, which telescope to the centered kernel value.  Reproduction is
    checked cell by cell against the increment tail, the vector identity on
    every pair of core vertices, and each vertex's p- and q-norm against the
    dimension-only budget times the weighted column norms.  `seed` is unused:
    nothing is sampled.
    """
    if not isinstance(symbol, RadialSymbol):
        raise TypeError("median witnesses need a radial symbol")
    centered, cp, cm = split_radial(symbol)
    est = s1_estimate(class_spec(symbol, cx.dimension, "C"), _MEMBERSHIP_SIZES, tol=1e-3)
    if est.verdict != "CONVERGENT":
        raise ConvergenceError(
            f"plain increment sections of {symbol.label()} are {est.verdict}"
        )
    if K - 1 > cx.usable_radius:
        raise RayTooShortError(
            f"K={K} needs usable radius {K - 1}, complex has {cx.usable_radius}"
        )

    n = cx.graph.size
    if core is None:
        interior = set(cx.base_ray[1:])
        core = [v for v in range(n) if v not in interior]
    core = np.asarray(tuple(core), dtype=np.intp)
    dist = cx.graph.distances
    mt = stable_median_table(cx, core)
    l1 = dist[core[:, None], mt]
    l2 = l1.T   # the stable-median table is symmetric

    hv = derivative_table(symbol, _STEP2, 2 * K + 2 * int(l1.max()) + 2)
    idx = np.arange(K)
    H = hv[idx[:, None] + idx[None, :]]   # the plain increment section
    At, Bt = polar_factor(H)
    trace_norm = float(np.linalg.norm(At) * np.linalg.norm(Bt))
    anorm2 = (np.abs(At) ** 2).sum(axis=0)
    bnorm2 = (np.abs(Bt) ** 2).sum(axis=0)

    width = int(l1.max()) + 1
    cells = [divmod(int(c), width) for c in np.unique((l1 + l2) * width + np.maximum(l1, l2))]
    starts = [s + 2 * max(K - mx, 0) for s, mx in cells]   # where each cell's tail begins
    tails = _increment_tails(symbol, starts, _TAIL_CAP)
    max_err = 0.0
    max_tail = 0.0
    tail_pad = 0.0
    values = np.zeros((2 * l1.max() + 1, l1.max() + 1), dtype=complex)   # by (s, max)
    for (s, mx), start in zip(cells, starts):
        terms = hv[s: start: 2]
        value = complex(terms.sum()) if start > s else 0.0
        target = centered(s)
        tail = tails[start]
        err = abs(value - target)
        # rounding of the float sums: the value adds len(terms) rounded
        # differences, the target takes two operations on phi(s) and the
        # parity limits, err subtracts once, and the tail adds at most
        # _TAIL_CAP rounded differences
        pad = (_gamma(len(terms) + 3) * (float(np.abs(terms).sum()) + abs(target)
                                          + 2 * (abs(cp) + abs(cm)))
               + _gamma(_TAIL_CAP + 1) * tail)
        if err > tail + pad + 1e-9 * (1.0 + abs(target)):
            raise StructureViolationError(
                f"cell (s={s}, max={mx}): error {err:g} above tail {tail:g}"
            )
        values[s, mx] = value
        max_err = max(max_err, float(err))
        max_tail = max(max_tail, float(tail))
        tail_pad = max(tail_pad, pad)
    tail_bound = max_tail + tail_pad
    if tail_bound > tol:
        raise TailBoundExceededError(
            f"tail bound {tail_bound:g} exceeds the requested tolerance {tol:g}"
        )

    # the alternating vectors as one int8 table A[i, k, g] over the polytopes
    # some vector holds; |A| holds the unsigned
    inside, level = _polytopes_in(cx, core, range(K))
    used = inside.any(axis=(0, 1))
    A = inside[:, :, used] * np.where(level[used] % 2, -1, 1).astype(np.int8)

    # on every pair, the diagonal sum must be sum_k1,k2 H[k2, k1] <|A[x, k1]|, A[y, k2]>;
    # only the entries (x, k1), (y, k2) of one polytope g meet, so it is one
    # weighted count over the pairs of nonzeros that share a polytope
    direct = _shared_polytope_sum(A, H)
    want = values[l1 + l2, np.maximum(l1, l2)]
    bad = np.argwhere(np.abs(direct - want) > 1e-10 * (1.0 + np.abs(want)))
    if bad.size:
        i, j = bad[0]
        raise StructureViolationError(
            f"pair ({core[i]},{core[j]}): vector pairing {complex(direct[i, j])} "
            f"!= diagonal sum {want[i, j]}"
        )

    N = cx.dimension
    budget = polytope_budget(N)
    weights = np.array([binomial(N - 1 + k, N - 1) for k in range(K)], dtype=float)
    norms2 = np.column_stack([bnorm2, anorm2])
    lhs = np.count_nonzero(A, axis=2) @ norms2   # each vertex's squared p- and q-norm
    cap = budget * (weights @ norms2)
    over = np.argwhere(lhs > cap + 1e-9)
    if over.size:
        i, side = over[0]
        raise StructureViolationError(
            f"vertex {core[i]}: {'pq'[side]}-norm {lhs[i, side]:g} above budget {cap[side]:g}"
        )
    sup_p, sup_q = map(float, np.sqrt(lhs.max(axis=0)))
    return FactorizationWitness(
        dimension=K * int(used.sum()),
        sup_p=sup_p,
        sup_q=sup_q,
        certified=sup_p * sup_q,
        reproduction_error=max_err,
        tail_bound=tail_bound,
        detail={
            "kind": "median",
            "tail_pad": tail_pad,
            "K": K,
            "core": len(core),
            "cells": len(cells),
            "budget": budget,
            "trace_norm": trace_norm,
            "c_plus": cp,
            "c_minus": cm,
            "checked_pairs": len(core) ** 2,
        },
    )


# ---------------------------------------------------------------------------
# sandwich experiments


@dataclass(frozen=True, eq=False)
class SandwichRow:
    radius: int
    vertices: int
    cb_lower: float
    cb_upper: float
    ceiling: float
    floor_report: float


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Ball-kernel norms against the section-norm ceiling, radius by radius.

    The ceiling is asserted; the floor is the degree-damped expression that
    only binds in the infinite limit, so it is reported without assertion.
    """

    symbol: str
    degrees: Tuple[int, ...]
    hankel_norm: float
    hankel_verdict: str
    c_plus: complex
    c_minus: complex
    rows: Tuple[SandwichRow, ...]


def sandwich_check(symbol: RadialSymbol, degrees: Sequence[int], radius: int,
                   sizes: Sequence[int] = (64, 128, 256, 512),
                   tol: float = 1e-4, sdp_tol: float = 1e-4) -> SandwichReport:
    """Ball kernels of a radial symbol against the trace-norm ceiling."""
    degrees = tuple(int(d) for d in degrees)
    if any(d < 3 for d in degrees):
        raise ValueError(f"tree degrees must be at least 3, got {degrees}")
    if radius < 1:
        raise ValueError("radius must be at least 1")
    # slowly decaying symbols need a deep window before the limits settle
    for window in (64, 512, 4096, 32768):
        rep = limits_report(symbol, window=window)
        if rep.c_plus is not None:
            break
    if rep.c_plus is None:
        raise ConvergenceError(
            f"parity limits of {symbol.label()} undetermined; ceiling unavailable"
        )
    cp, cm = rep.c_plus, rep.c_minus
    est = s1_estimate(class_spec(symbol, len(degrees), "A"), sizes, tol=1e-3)
    hankel_norm = float(est.values[-1])
    ceiling = hankel_norm + abs(cp) + abs(cm)
    damp = 1.0
    for d in degrees:
        damp *= (d - 2) / d
    floor = damp * hankel_norm + abs(cp) + abs(cm)

    rows = []
    prev = None
    for r in range(1, radius + 1):
        balls = [tree_ball(d - 1, r) for d in degrees]
        graph = product_graph([b.graph for b in balls]) if len(balls) > 1 else balls[0].graph
        kern = radial_kernel(graph, symbol)
        res = cb_norm_sdp(kern, tol=sdp_tol)
        if res.upper > ceiling + tol:
            raise StructureViolationError(
                f"radius {r}: ball norm {res.upper:g} above ceiling {ceiling:g}"
            )
        if prev is not None and res.upper < prev - 2 * sdp_tol:
            raise StructureViolationError(
                f"radius {r}: ball norm {res.upper:g} dropped below radius "
                f"{r - 1} value {prev:g}"
            )
        prev = res.upper
        rows.append(SandwichRow(r, graph.size, res.lower, res.upper, ceiling, floor))
    return SandwichReport(
        symbol=symbol.label(),
        degrees=degrees,
        hankel_norm=hankel_norm,
        hankel_verdict=est.verdict,
        c_plus=cp,
        c_minus=cm,
        rows=tuple(rows),
    )
