"""The doubled linearized operator on a truncation box.

F' = D + delta*A acts on pairs (u-component, v-component) of lattice
functions.  D is the dispersion diagonal +-n.w + |j|^2 (+ phase, +- theta
for the shifted family); A couples sites through three convolution symbols.
Inversion is certified in the style of the analysis: dense determinant /
singular-value bounds on the resonance-graph blocks sitting on the
characteristic variety, a uniformly bounded diagonal off it, and a measured
exponential decay rate for the inverse kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    ConvolutionSymbols,
    box_strides,
    branch_tags,
    enumerate_box_sites,
    ordered_components,
)
from .lattice import (
    Box,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
)

# scipy is imported by the functions that build or factor sparse matrices,
# so that importing nlsqp (and the commands that never reach those
# functions) costs no scipy import.
if TYPE_CHECKING:
    import scipy.sparse as sp


class LinopError(RuntimeError):
    pass


class ExcisionError(LinopError):
    """A resonance block fails its invertibility threshold: the amplitude
    vector lies in (or too close to) the excised set."""

    def __init__(self, block_index: int, value: float, threshold: float, size: int):
        super().__init__(
            f"block {block_index} (size {size}): |P_k| = {value:.3e} "
            f"below threshold {threshold:.3e}")
        self.block_index = block_index
        self.value = value
        self.threshold = threshold
        self.size = size


class OffCharDiagonalError(LinopError):
    def __init__(self, site: SiteIndex, value: float):
        super().__init__(
            f"off-characteristic diagonal too close to zero at {site}: {value:.3e}")
        self.site = site
        self.value = value


@dataclass
class BlockOperator:
    spec: ProblemSpec
    u: SparseSeries
    v: SparseSeries
    omega: FrequencyVector
    box: Box
    theta: float
    coords: np.ndarray          # (Ns, b+d) lexicographic site list
    diag: np.ndarray            # (2 Ns,) real dispersion diagonal
    matrix: sp.csr_matrix      # D + delta*A, complex, 2Ns x 2Ns
    symbols: ConvolutionSymbols
    tags: np.ndarray            # per-site: +1 on C+, -1 on C-, 0 off (w.r.t. omega0)
    # Doubled components whose seed-frequency diagonal vanishes exactly;
    # at sites with j = 0 and n.w0 = 0 both copies are resonant.
    resonant_mask: np.ndarray = None

    @property
    def n_sites(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return 2 * self.n_sites

    @property
    def delta(self) -> float:
        return self.spec.delta

    def omega0(self) -> FrequencyVector:
        return self.spec.omega0()

    def site_at(self, i: int) -> SiteIndex:
        return self.sites_at([i])[0]

    def sites_at(self, idx: Sequence[int]) -> List[SiteIndex]:
        """The sites of box indices idx, in that order."""
        b = self.spec.b
        return [SiteIndex(tuple(row[:b]), tuple(row[b:]))
                for row in self.coords[np.asarray(idx, dtype=np.int64)].tolist()]

    def lin_index(self, s: SiteIndex) -> Optional[int]:
        if not self.box.contains(s):
            return None
        radii, strides = box_strides(self.spec.b, self.spec.d, self.box)
        return int((np.array(s.n + s.j, dtype=np.int64) + radii) @ strides)

    def doubled_index(self, s: SiteIndex, comp: str) -> Optional[int]:
        i = self.lin_index(s)
        if i is None:
            return None
        return i if comp == "U" else self.n_sites + i

    def q_indices(self) -> List[int]:
        """Doubled indices of the 2b frequency equations: the u-component on
        the seed sites and the v-component on their flips."""
        out = []
        for s in self.spec.seed_sites():
            out.append(self.doubled_index(s, "U"))
        for s in self.spec.seed_sites():
            out.append(self.doubled_index(-s, "V"))
        if any(i is None for i in out):
            raise LinopError("truncation box does not contain the seed modes")
        return out  # type: ignore[return-value]


def assemble(
    u: SparseSeries,
    v: SparseSeries,
    omega: FrequencyVector,
    spec: ProblemSpec,
    box: Box,
    theta: float = 0.0,
) -> BlockOperator:
    """Build D + delta*A over the box.

    Diagonal: n.w + |j|^2 + m + theta on the u block, -n.w + |j|^2 + m - theta
    on the v block.  Off-diagonal entries at column y, row x = y + shift are
    (p+1)(u*v)^{*p} on the diagonal blocks and p(u*v)^{*(p-1)}*u*u (u-row,
    v-column) / p(u*v)^{*(p-1)}*v*v (v-row, u-column), all scaled by delta.
    """
    import scipy.sparse as sp

    b, d, p = spec.b, spec.d, spec.p
    coords = enumerate_box_sites(b, d, box)
    ns = coords.shape[0]
    narr = coords[:, :b]
    jarr = coords[:, b:]
    w = np.array(omega.omega, dtype=float)
    nw = narr @ w
    jsq = np.sum(jarr * jarr, axis=1).astype(float)
    m = spec.phase_m
    diag = np.concatenate([nw + jsq + m + theta, -nw + jsq + m - theta])

    tags, resonant = branch_tags(coords, spec.omega0())

    symbols = ConvolutionSymbols.from_fields(u, v, p)
    delta = spec.delta
    radii, strides = (x.tolist() for x in box_strides(b, d, box))

    # (column minus row, columns, value) of every shift.
    terms: List[Tuple[int, np.ndarray, complex]] = []

    def scatter(shift: SiteIndex, amp: complex, row_off: int, col_off: int):
        # Column y and row y + shift both lie in the box exactly when each
        # coordinate of y lies in [-r, r] and in [-r - s, r - s]: the columns
        # are an outer sum of per-axis ranges times strides, in ascending
        # order, and each row is its column plus shift . strides.
        cols_k = np.zeros(1, dtype=np.int64)
        for r, s, stride in zip(radii, shift.n + shift.j, strides):
            lo, hi = max(-r, -r - s), min(r, r - s)
            if lo > hi:
                return
            cols_k = (cols_k[:, None] + np.arange(lo + r, hi + r + 1) * stride).ravel()
        lin = sum(s * stride for s, stride in zip(shift.n + shift.j, strides))
        terms.append((col_off - row_off - lin, cols_k + col_off, amp))

    for shift, ampl in symbols.uv_p.items():
        a = delta * (p + 1) * ampl
        scatter(shift, a, 0, 0)
        scatter(shift, a, ns, ns)
    for shift, ampl in symbols.uu.items():
        scatter(shift, delta * p * ampl, 0, ns)
    for shift, ampl in symbols.vv.items():
        scatter(shift, delta * p * ampl, ns, 0)

    # In order of column minus row, each row's entries come out with their
    # columns ascending, so the CSR conversion needs no sort.
    terms.sort(key=lambda t: t[0])
    if terms:
        cols = np.concatenate([t[1] for t in terms])
        rows = np.concatenate([t[1] - t[0] for t in terms])
        vals = np.concatenate([np.full(len(t[1]), t[2], dtype=complex) for t in terms])
        a_mat = sp.coo_matrix((vals, (rows, cols)), shape=(2 * ns, 2 * ns)).tocsr()
    else:
        a_mat = sp.csr_matrix((2 * ns, 2 * ns), dtype=complex)
    mat = a_mat + sp.diags(diag.astype(complex), format="csr")

    return BlockOperator(spec=spec, u=u, v=v, omega=omega, box=box, theta=theta,
                         coords=coords, diag=diag, matrix=mat, symbols=symbols,
                         tags=tags, resonant_mask=resonant)


# ---------------------------------------------------------------------------
# Block decomposition along resonance-graph components


@dataclass
class BlockDecomposition:
    """The resonance blocks of an operator, numbered by smallest member.

    Block c covers the doubled operator indices order[bounds[c]:bounds[c +
    1]], ascending, and sizes = np.diff(bounds).  dets, dets_normalized
    (|det(Gamma_k / delta^size)|) and min_singulars hold one value per
    block.  stacks maps each block size k to the (count, k, k) stack of the
    blocks of that size, in block order: the rows of `members_of_size`.
    """

    order: np.ndarray
    bounds: np.ndarray
    sizes: np.ndarray
    dets: np.ndarray
    dets_normalized: np.ndarray
    min_singulars: np.ndarray
    stacks: Dict[int, np.ndarray]


def block_decompose(op: BlockOperator, exclude: frozenset = frozenset()
                    ) -> BlockDecomposition:
    """Dense blocks of the operator over the resonance components.

    At the seed frequency the diagonal vanishes on the variety and each
    block is delta * A_k; afterwards the diag(n . delta-omega) part rides
    along automatically since blocks are cut from the assembled matrix.

    The blocks are the connected components of the resonant doubled
    indices under the sparsity pattern of the operator; they coincide with
    the resonance-graph components except at j = 0 kernel sites, where both
    copies are resonant and the extra copy joins through the diagonal
    symbol.  Blocks are ordered by their smallest index, members ascending.
    `exclude` removes doubled indices (the seed equations) from their
    blocks after the components are found; a block left empty is dropped,
    and the later blocks keep their order.

    The operator is sliced once, to the indices of all blocks; the entries
    of that slice are scattered into one (count, k, k) stack per block size,
    so det and svd run once per distinct size.
    """
    index = np.nonzero(op.resonant_mask)[0]
    sub = op.matrix[index][:, index].tocoo()
    # Numbered by smallest member: the order ExcisionError block indices
    # refer to.
    labels, order, bounds = ordered_components(len(index), sub.row, sub.col)
    if exclude:
        dropped = np.isin(index, np.fromiter(exclude, dtype=np.int64, count=len(exclude)))
        order = order[~dropped[order]]
        sizes = np.bincount(labels[order], minlength=len(bounds) - 1)
        bounds = np.concatenate([[0], np.cumsum(sizes[sizes > 0])])
    sizes = np.diff(bounds)
    n_comp = len(sizes)

    # Block and row of each position into index; -1 for the excluded.
    comp_of = np.full(len(index), -1, dtype=np.int64)
    comp_of[order] = np.repeat(np.arange(n_comp), sizes)
    pos = np.zeros(len(index), dtype=np.int64)
    pos[order] = np.arange(len(order)) - np.repeat(bounds[:-1], sizes)
    rows, cols, vals = sub.row, sub.col, sub.data
    owner = comp_of[rows]
    inside = (owner >= 0) & (owner == comp_of[cols])
    rows, cols, vals, owner = rows[inside], cols[inside], vals[inside], owner[inside]

    stacks: Dict[int, np.ndarray] = {}
    dets = np.empty(n_comp, dtype=complex)
    dets_norm = np.empty(n_comp)
    min_sv = np.empty(n_comp)
    slot = np.empty(n_comp, dtype=np.int64)
    for k in np.unique(sizes).tolist():
        members = np.nonzero(sizes == k)[0]
        slot[members] = np.arange(len(members))
        sel = sizes[owner] == k
        stack = np.zeros((len(members), k, k), dtype=complex)
        np.add.at(stack, (slot[owner[sel]], pos[rows[sel]], pos[cols[sel]]), vals[sel])
        stacks[k] = stack
        det = np.linalg.det(stack)
        dets[members] = det
        # np.hypot equals Python's abs() of a complex bit for bit.
        dets_norm[members] = np.hypot(det.real, det.imag) / op.delta ** k
        min_sv[members] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return BlockDecomposition(order=index[order], bounds=bounds, sizes=sizes, dets=dets,
                              dets_normalized=dets_norm, min_singulars=min_sv,
                              stacks=stacks)


# ---------------------------------------------------------------------------
# Certified inversion


@dataclass
class DecayFit:
    beta_hat: float      # certified exponent: the bound holds at this value
    bound_ok: bool
    checked_beyond: int  # entries at distance > 1/beta^2 that were checked


@dataclass
class CertifiedInverse:
    norm_bound: float
    decay: Optional[DecayFit]
    mode: str
    threshold: float
    min_block_value: float
    # The factorisation that was certified: solve(rhs, trans="N") takes and
    # returns vectors indexed by `keep`, the doubled indices not dropped.
    solve: Callable[..., np.ndarray] = field(repr=False, default=None)
    keep: np.ndarray = field(repr=False, default=None)
    power_iterations: int = 0
    # True only when power iteration stopped because sigma settled; False
    # when it ran out of rounds, so norm_bound is an unconverged estimate.
    power_settled: bool = False


# Power iteration stops once sigma changes by at most this fraction.
_SIGMA_RTOL = 1e-13


def _power_norm(apply: Callable[[np.ndarray], np.ndarray],
                apply_adj: Callable[[np.ndarray], np.ndarray], dim: int, seed: int,
                max_rounds: int) -> Tuple[float, int, bool]:
    """Largest singular value sigma of a linear map on C^dim, by power
    iteration on apply_adj(apply(x)) from a seeded random unit vector.

    Returns (sigma, rounds, settled).  It stops after max_rounds rounds, or
    as soon as sigma changes by at most _SIGMA_RTOL of itself, the only case
    with settled=True; a zero image also stops it, leaving sigma as it was.
    Power iteration converges from below, so sigma is an estimate from below.
    With no rounds to run it returns (0.0, 0, False) without drawing the
    start vector.
    """
    if max_rounds < 1:
        return 0.0, 0, False
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    sigma = 0.0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        z = apply_adj(apply(x))
        nrm = np.linalg.norm(z)
        if nrm == 0:
            break
        prev, sigma = sigma, math.sqrt(nrm)
        x = z / nrm
        if abs(sigma - prev) <= _SIGMA_RTOL * sigma:
            return sigma, rounds, True
    return sigma, rounds, False


def invert_with_certificates(
    op: BlockOperator,
    mode: Optional[str] = None,
    eps_first: float = 1e-4,
    eps_second: float = 0.5,
    fit_decay: bool = True,
    drop_indices: Optional[Sequence[int]] = None,
    power_iters: int = 60,
) -> CertifiedInverse:
    """Factor F' and certify: resonance blocks above the excision threshold,
    off-characteristic diagonal bounded away from zero, measured operator
    norm of the inverse, and a fitted decay exponent beta.

    mode "seed" thresholds the delta-normalized block determinants (the
    blocks are delta * A_k(a) with A_k independent of delta); mode
    "modulated" thresholds block minimum singular values against
    delta^{1+eps}, the certificate used once the frequency has moved.

    drop_indices restricts everything to the complement of the given
    doubled indices.  The Newton iteration passes the 2b seed equations
    here: at a frequency solving them the seed block carries the exact
    phase-symmetry kernel, which the scheme never needs to invert.

    The matrix is factored once, by `restricted_solver`; the factor is
    returned on the certificate (`solve`, `keep`) for the caller to reuse.
    The norm is estimated by `_power_norm` on (F'^H F')^{-1}, at most
    power_iters rounds (a Newton step, which needs only the factor, asks
    for none).
    """
    if mode is None:
        w = np.array(op.omega.omega)
        w0 = np.array(op.omega0().omega)
        mode = "seed" if np.allclose(w, w0) and op.theta == 0.0 else "modulated"

    dropped = frozenset(int(i) for i in drop_indices) if drop_indices else frozenset()
    decomp = block_decompose(op, exclude=dropped)
    delta = op.delta
    if mode == "seed":
        threshold = eps_first
        values = decomp.dets_normalized
    else:
        threshold = delta ** (1.0 + eps_second)
        values = decomp.min_singulars
    failing = np.nonzero(values <= threshold)[0]
    if len(failing):
        k = int(failing[0])
        raise ExcisionError(k, float(values[k]), threshold, int(decomp.sizes[k]))
    min_val = float(values.min(initial=math.inf))

    # Non-resonant diagonal must stay uniformly away from zero.
    off_diag = op.diag[~op.resonant_mask]
    if len(off_diag):
        k = int(np.argmin(np.abs(off_diag)))
        gap = abs(off_diag[k])
        if gap < 0.25:
            full = np.nonzero(~op.resonant_mask)[0][k]
            raise OffCharDiagonalError(op.site_at(full % op.n_sites), float(gap))

    solve, keep = restricted_solver(op, sorted(dropped))
    sigma, rounds, settled = _power_norm(solve, lambda y: solve(y, trans="H"), len(keep),
                                         seed=7, max_rounds=power_iters)

    decay = None
    if fit_decay:
        decay = _fit_decay(op, solve, keep)

    return CertifiedInverse(norm_bound=float(sigma), decay=decay, mode=mode,
                            threshold=threshold, min_block_value=min_val,
                            solve=solve, keep=keep, power_iterations=rounds,
                            power_settled=settled)


def _fit_decay(op: BlockOperator, solve: Callable[..., np.ndarray], keep: np.ndarray
               ) -> DecayFit:
    """Least-squares decay exponent of the inverse kernel.

    Probes up to four columns at the seed sites (or, when those rows are excluded,
    at the nonlinear forcing sites next to them), pools log|entry| against the
    l1 site distance, and fits log|entry| = c - beta * |log delta| * dist.
    `solve` is the restricted factor, indexed by the sorted `keep`.
    """
    delta = op.delta
    logd = abs(math.log(delta))
    kept = np.zeros(op.dim, dtype=bool)
    kept[keep] = True
    candidates: List[int] = []
    for s in op.spec.seed_sites():
        for idx in (op.doubled_index(s, "U"), op.doubled_index(-s, "V")):
            if idx is not None and kept[idx]:
                candidates.append(idx)
    if not candidates:
        from .lattice import convolve as _conv
        forcing = _conv(op.symbols.uv_p, op.u)
        seeds = set(op.spec.seed_sites())
        for s in forcing.support():
            if s in seeds:
                continue
            idx = op.doubled_index(s, "U")
            if idx is not None and kept[idx]:
                candidates.append(idx)
    probe_idx = candidates[:4]

    dists: List[np.ndarray] = []
    logs: List[np.ndarray] = []
    for pi in probe_idx:
        e = np.zeros(len(keep), dtype=complex)
        e[np.searchsorted(keep, pi)] = 1.0
        col = solve(e)
        ps = op.site_at(pi % op.n_sites)
        av = np.abs(col)
        floor = max(av.max() * 1e-16, 1e-300)
        src = np.array(list(ps.n) + list(ps.j), dtype=np.int64)
        dist_all = np.sum(np.abs(op.coords - src), axis=1)
        dist_full = np.concatenate([dist_all, dist_all]).astype(float)[keep]
        mask = (av > floor) & (dist_full >= 1)
        dists.append(dist_full[mask])
        logs.append(np.log(av[mask]))
    dists_a = np.concatenate(dists) if dists else np.zeros(0)
    logs_a = np.concatenate(logs) if logs else np.zeros(0)
    levels = np.unique(dists_a)
    if len(dists_a) < 2 or len(levels) < 2:
        return DecayFit(beta_hat=0.0, bound_ok=True, checked_beyond=0)
    alpha = np.vstack([dists_a, np.ones_like(dists_a)]).T
    slope = np.linalg.lstsq(alpha, logs_a, rcond=None)[0][0]
    beta_ls = max(-slope / logd, 0.0)
    # Certify the largest beta <= beta_ls such that every entry at distance
    # beyond 1/beta^2 obeys |entry| <= delta^{beta * dist}.  The resonant
    # blocks carry O(1/delta) inverse entries at short distance, which is
    # exactly why the bound only starts past 1/beta^2: the cutoff must be
    # pushed beyond the block diameter.
    per_entry = -logs_a / (dists_a * logd)
    beta = 0.0
    checked = 0
    for cut in [0.0] + levels.tolist():
        far = dists_a > cut
        cap = beta_ls if cut == 0 else min(beta_ls, (1.0 - 1e-12) / math.sqrt(cut))
        cand = cap if not np.any(far) else min(cap, float(np.min(per_entry[far])))
        if cand > beta:
            beta = cand
            checked = int(np.sum(dists_a > 1.0 / beta ** 2)) if beta > 0 else 0
    beta = max(beta, 0.0)
    ok = True
    if beta > 0:
        far = dists_a > 1.0 / beta ** 2
        if np.any(far):
            ok = bool(np.all(per_entry[far] >= beta - 1e-12))
    return DecayFit(beta_hat=float(beta), bound_ok=ok, checked_beyond=checked)


def restricted_solver(op: BlockOperator, exclude: Sequence[int]
                      ) -> Tuple[Callable[..., np.ndarray], np.ndarray]:
    """LU factorisation of F' restricted off a set of doubled indices.

    Returns (solve, kept_indices): solve(rhs, trans="N") takes and returns
    vectors indexed by kept_indices; trans="H" solves with the adjoint.
    """
    import scipy.sparse.linalg as spla

    mask = np.ones(op.dim, dtype=bool)
    mask[list(exclude)] = False
    keep = np.nonzero(mask)[0]
    # The CSR slice is dropped before SuperLU's workspace peaks.
    sub = op.matrix[keep][:, keep].tocsc()
    lu = spla.splu(sub)
    return lu.solve, keep


# ---------------------------------------------------------------------------
# Theta-shifted family


@dataclass
class ThetaPoint:
    theta: float
    theta_int: int
    theta_frac: float
    norm: float
    ok: bool
    restricted: bool


@dataclass
class ThetaScanReport:
    points: List[ThetaPoint]
    bad_fraction: float
    bad_measure: float
    threshold: float
    eps: float


def theta_spectrum_scan(
    u: SparseSeries,
    v: SparseSeries,
    omega: FrequencyVector,
    spec: ProblemSpec,
    box: Box,
    theta_grid: Sequence[float],
    eps: float = 0.3,
) -> ThetaScanReport:
    """Inverse-norm certificates along the theta-shifted family T(theta).

    theta enters as +theta on the u diagonal and -theta on the v diagonal.
    A grid point is bad when ||T(theta)^{-1}|| exceeds delta^{-(1+eps)};
    the measured bad set is returned with its grid measure.  Each theta is
    also decomposed as Theta + delta*theta' with integral Theta, and points
    with |Theta| beyond 2|log delta|^{2s}+1, at the second-step exponent
    s = 2, are flagged as outside the range the analysis needs.

    The grid points run one after another: each is one SuperLU factor and
    at most 25 power-iteration rounds, and two threads were slower than
    one on a 2-core host.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    base = assemble(u, v, omega, spec, box, theta=0.0)
    delta = spec.delta
    threshold = delta ** (-(1.0 + eps))
    shift = sp.diags(np.concatenate([np.ones(base.n_sites), -np.ones(base.n_sites)]),
                     format="csr").astype(complex)
    restrict_cut = 2.0 * abs(math.log(delta)) ** 4.0 + 1.0

    points = []
    thetas = list(theta_grid)
    for theta in thetas:
        theta_int = math.floor(theta + 0.5)
        try:
            lu = spla.splu((base.matrix + theta * shift).tocsc())
        except RuntimeError:  # singular at this theta
            sigma = float("inf")
        else:
            sigma, _, _ = _power_norm(lu.solve, lambda y: lu.solve(y, trans="H"),
                                      base.dim, seed=11, max_rounds=25)
        points.append(ThetaPoint(theta, theta_int, theta - theta_int, float(sigma),
                                 sigma <= threshold, abs(theta_int) > restrict_cut))
    bad = [pt for pt in points if not pt.ok]
    frac = len(bad) / len(points) if points else 0.0
    span = (max(thetas) - min(thetas)) if len(thetas) > 1 else 0.0
    return ThetaScanReport(points=points, bad_fraction=frac,
                           bad_measure=frac * span, threshold=threshold, eps=eps)
