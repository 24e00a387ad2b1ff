"""The doubled linearized operator, on a truncation box and on the
conservation lattice.

F' = D + delta*A acts on pairs (u-component, v-component) of lattice
functions.  D is the dispersion diagonal +-n.w + |j|^2 (+ phase, +- theta
for the shifted family); A couples sites through three convolution symbols.
Inversion is certified in the style of the analysis: dense determinant /
singular-value bounds on the resonance-graph blocks sitting on the
characteristic variety, a uniformly bounded diagonal off it, and a measured
exponential decay rate for the inverse kernel.  The box operator is sparse
and factored by SuperLU; on Lambda_R (`characteristics.conservation_sites`),
where the Newton iteration lives, F' is small and dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    BoxVariety,
    ConvolutionSymbols,
    box_strides,
    box_variety,
    branch_tags,
    enumerate_box_sites,
    members_of_size,
    on_lattice,
    ordered_components,
    resonance_links,
)
from .lattice import (
    Box,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    convolve,
    site,
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
    vector lies in (or too close to) the excised set.  `site` is the block's
    first member and `meets_lattice` says whether any member is a u-copy
    on Lambda or a v-copy on -Lambda, the part of the box the Newton
    iteration moves."""

    def __init__(self, block_index: int, value: float, threshold: float, size: int,
                 site: SiteIndex, meets_lattice: bool):
        where = "meets" if meets_lattice else "is off"
        super().__init__(
            f"block {block_index} (size {size}): |P_k| = {value:.3e} "
            f"below threshold {threshold:.3e}; first member "
            f"({' '.join(map(str, site.n))} | {' '.join(map(str, site.j))}), "
            f"the block {where} the conservation lattice")
        self.block_index = block_index
        self.value = value
        self.threshold = threshold
        self.size = size
        self.site = site
        self.meets_lattice = meets_lattice


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
        return site(self.coords[i, :self.spec.b], self.coords[i, self.spec.b:])

    def lin_index(self, s: SiteIndex) -> Optional[int]:
        return _box_index(s, self.spec, self.box)

    def q_indices(self) -> List[int]:
        """Doubled indices of the 2b frequency equations: the u-component on
        the seed sites and the v-component on their flips."""
        return _seed_equations(self.spec, self.box)


def _box_index(s: SiteIndex, spec: ProblemSpec, box: Box) -> Optional[int]:
    """The box's linear index of a site, or None outside the box."""
    if not box.contains(s):
        return None
    radii, strides = box_strides(spec.b, spec.d, box)
    return int((np.array(s.n + s.j, dtype=np.int64) + radii) @ strides)


def _seed_equations(spec: ProblemSpec, box: Box) -> List[int]:
    """Doubled box indices of the 2b frequency equations (the u-copies of
    the seed sites, then the v-copies of their flips); LinopError if the
    box misses a seed."""
    lin = [_box_index(s, spec, box) for s in spec.seed_sites()]
    if None in lin:
        raise LinopError("truncation box does not contain the seed modes")
    # The flip of the site at box index i sits at box index ns - 1 - i.
    return lin + [2 * box.site_count(spec.b, spec.d) - 1 - i for i in lin]


def _dispersion(coords: np.ndarray, omega: FrequencyVector, spec: ProblemSpec,
                theta: float = 0.0) -> np.ndarray:
    """The diagonal D of F' at the rows of a (count, b + d) site array, as a
    (2, count) array: n.w + |j|^2 + m + theta on the u-copies, then
    -n.w + |j|^2 + m - theta on the v-copies.  Column by column, so a row's
    value does not depend on the other rows."""
    cols = coords.T
    nw = sum(w * n for w, n in zip(omega.omega, cols[:spec.b]))
    jsq = sum(j * j for j in cols[spec.b:])
    m = spec.phase_m
    return np.stack([nw + jsq + m + theta, -nw + jsq + m - theta])


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
    diag = _dispersion(coords, omega, spec, theta).ravel()

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
# Dense pieces of F': resonance blocks and the conservation lattice


def _dense(coords: np.ndarray, copies: np.ndarray, members: np.ndarray,
           symbols: ConvolutionSymbols, omega: FrequencyVector, spec: ProblemSpec,
           theta: float = 0.0) -> np.ndarray:
    """F' on groups of doubled vertices as a (count, k, k) stack, one group
    per row of the (count, k) array members.  Vertex i is the copy
    copies[i] (+1 u, -1 v) of the site coords[i].  An entry reads the symbol
    the two copies select (the diagonal one between equal copies, uu from a
    u-row to a v-column, vv the other way) at row site minus column site,
    and the diagonal adds D: bit for bit the entries `assemble` places."""
    delta, p = spec.delta, spec.p
    keys, vals = [], []
    for kind, (coef, series) in enumerate(((delta * (p + 1), symbols.uv_p),
                                           (delta * p, symbols.uu), (delta * p, symbols.vv))):
        keys += [(kind,) + s.n + s.j for s in series.support()]
        vals += [coef * ampl for _, ampl in series.items()]
    x, c = coords[members], copies[members]
    kind = np.where(c[:, :, None] == c[:, None, :], 0, np.where(c[:, :, None] > 0, 1, 2))
    query = np.concatenate([kind[..., None], x[:, :, None, :] - x[:, None, :, :]], axis=3)
    # Rows are coded in the mixed radix of the keys' bounding box; a query
    # row outside that box matches no key.
    keys, vals = np.array(keys, dtype=np.int64), np.array(vals, dtype=complex)
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    radix = np.cumprod(np.concatenate([[1], (hi - lo + 1)[:0:-1]]))[::-1]
    by_code = np.argsort((keys - lo) @ radix)
    codes = ((keys - lo) @ radix)[by_code]
    at = (np.clip(query, lo, hi) - lo) @ radix
    pos = np.minimum(np.searchsorted(codes, at), len(codes) - 1)
    hit = (codes[pos] == at) & np.all((query >= lo) & (query <= hi), axis=3)
    out = np.where(hit, vals[by_code][pos], 0)
    diag = _dispersion(x.reshape(-1, x.shape[2]), omega, spec, theta).reshape(2, *c.shape)
    k = members.shape[1]
    out[:, np.arange(k), np.arange(k)] += np.where(c > 0, diag[0], diag[1])
    return out


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


def resonance_blocks(symbols: ConvolutionSymbols, omega: FrequencyVector,
                     spec: ProblemSpec, variety: BoxVariety, theta: float = 0.0,
                     exclude: frozenset = frozenset()) -> BlockDecomposition:
    """Dense blocks of F' over the resonance components of a box, from its
    variety and the symbols, with the entries `assemble` would place.

    The blocks live on the variety's vertices, the resonant doubled
    indices: the u-copy of each C+ site, the v-copy of each C- site, and
    both copies of a site with j = 0 (and n.w0 = 0).  The components are
    those of the links from every vertex (`resonance_links`): the resonance
    graph's edges and the links of the j = 0 twins.  Blocks are ordered by
    their smallest doubled index, members ascending.  `exclude` removes
    doubled indices (the seed equations) from their blocks after the
    components are found; a block left empty is dropped, and the later
    blocks keep their order.  det and svd run once per distinct size, on
    the stack of the blocks of that size.
    """
    coords, copies = variety.vertices, variety.copies
    edges = resonance_links(variety, np.arange(len(coords)), symbols)
    # Components run over the vertices in the order of their doubled index.
    index = np.flatnonzero(variety.vertex_of >= 0)
    by_index = variety.vertex_of[index]
    rank = np.argsort(by_index)
    labels, order, bounds = ordered_components(len(index), rank[edges[0]], rank[edges[1]])
    if exclude:
        dropped = np.isin(index, np.fromiter(exclude, dtype=np.int64, count=len(exclude)))
        order = order[~dropped[order]]
        sizes = np.bincount(labels[order], minlength=len(bounds) - 1)
        bounds = np.concatenate([[0], np.cumsum(sizes[sizes > 0])])
    sizes = np.diff(bounds)

    stacks: Dict[int, np.ndarray] = {}
    dets = np.empty(len(sizes), dtype=complex)
    dets_norm = np.empty(len(sizes))
    min_sv = np.empty(len(sizes))
    for k in np.unique(sizes).tolist():
        members = np.nonzero(sizes == k)[0]
        stacks[k] = stack = _dense(coords, copies, by_index[members_of_size(order, bounds, k)],
                                   symbols, omega, spec, theta)
        dets[members] = det = np.linalg.det(stack)
        # np.hypot equals Python's abs() of a complex bit for bit.
        dets_norm[members] = np.hypot(det.real, det.imag) / spec.delta ** k
        min_sv[members] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return BlockDecomposition(order=index[order], bounds=bounds, sizes=sizes, dets=dets,
                              dets_normalized=dets_norm, min_singulars=min_sv,
                              stacks=stacks)


def block_decompose(op: BlockOperator, exclude: frozenset = frozenset()
                    ) -> BlockDecomposition:
    """`resonance_blocks` of an assembled operator: each block equals the
    slice of op.matrix at its members."""
    return resonance_blocks(op.symbols, op.omega, op.spec,
                            box_variety(op.omega0(), op.spec.d, op.box), op.theta, exclude)


def lattice_operator(symbols: ConvolutionSymbols, omega: FrequencyVector,
                     spec: ProblemSpec, sites: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """F' on the u-copies at the rows of `sites` and then the v-copies at
    their flips, as a dense (2k, 2k) matrix, and the mask of the rows and
    columns off the 2b seed equations.  On sites = Lambda_R this is the
    Newton operator: u on Lambda and v on -Lambda couple to nothing else."""
    k = len(sites)
    mat = _dense(np.concatenate([sites, -sites]), np.repeat([1, -1], k),
                 np.arange(2 * k)[None, :], symbols, omega, spec)[0]
    seeds = {s.n + s.j for s in spec.seed_sites()}
    return mat, np.tile([tuple(r) not in seeds for r in sites.tolist()], 2)


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
    threshold: float
    min_block_value: float
    power_iterations: int = 0
    # True only when power iteration stopped because sigma settled; False
    # when it ran out of rounds, so norm_bound is an unconverged estimate.
    power_settled: bool = False


def _mode(omega: FrequencyVector, spec: ProblemSpec, theta: float) -> str:
    """"seed" at the seed frequency with no theta shift, else "modulated"."""
    seed = np.allclose(np.array(omega.omega), np.array(spec.omega0().omega))
    return "seed" if seed and theta == 0.0 else "modulated"


def _certify(decomp: BlockDecomposition, coords: np.ndarray, diag: np.ndarray,
             resonant: np.ndarray, spec: ProblemSpec, mode: str, eps_first: float,
             eps_second: float) -> Tuple[float, float]:
    """The threshold of the mode and the smallest block value.  The first
    block at or below the threshold raises ExcisionError; then, over the
    box's doubled indices (diag and resonant, for the sites coords), a
    diagonal off the variety below 0.25 raises OffCharDiagonalError at its
    first smallest value."""
    b = spec.b
    if mode == "seed":
        threshold, values = eps_first, decomp.dets_normalized
    else:
        threshold, values = spec.delta ** (1.0 + eps_second), decomp.min_singulars
    failing = np.nonzero(values <= threshold)[0]
    if len(failing):
        k = int(failing[0])
        doubled = decomp.order[decomp.bounds[k]:decomp.bounds[k + 1]]
        sites = coords[doubled % len(coords)]
        meets = on_lattice(sites, np.where(doubled < len(coords), 1, -1), spec).any()
        raise ExcisionError(k, float(values[k]), threshold, int(decomp.sizes[k]),
                            site(sites[0, :b], sites[0, b:]), bool(meets))
    off = np.nonzero(~resonant)[0]
    if len(off):
        i = off[np.argmin(np.abs(diag[off]))]
        if abs(diag[i]) < 0.25:
            x = coords[i % len(coords)]
            raise OffCharDiagonalError(site(x[:b], x[b:]), float(abs(diag[i])))
    return threshold, float(values.min(initial=math.inf))


def admissibility_gate(omega: FrequencyVector, spec: ProblemSpec, variety: BoxVariety,
                       symbols: ConvolutionSymbols, eps_first: float = 1e-4,
                       eps_second: float = 0.5) -> Tuple[str, float]:
    """The block and diagonal certificate of `invert_with_certificates` over
    the whole box of a variety (`box_variety`) at omega and the symbols of
    the iterate, without assembling the box: the blocks off the seed
    equations from `resonance_blocks`, the diagonal from `_dispersion` on
    the box sites.  Returns the mode and the smallest block value."""
    exclude = frozenset(_seed_equations(spec, variety.box))
    decomp = resonance_blocks(symbols, omega, spec, variety, exclude=exclude)
    mode = _mode(omega, spec, 0.0)
    _, min_val = _certify(decomp, variety.coords,
                          _dispersion(variety.coords, omega, spec).ravel(),
                          variety.resonant, spec, mode, eps_first, eps_second)
    return mode, min_val


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
    doubled indices, such as the 2b seed equations: at a frequency solving
    them the seed block carries the exact phase-symmetry kernel, which the
    scheme never needs to invert.

    This is the certificate of an assembled box operator (the Newton
    iteration certifies with `admissibility_gate` and solves on the
    lattice instead).  The matrix is factored once, by `restricted_solver`.
    The norm is estimated by `_power_norm` on (F'^H F')^{-1}, at most
    power_iters rounds.
    """
    if mode is None:
        mode = _mode(op.omega, op.spec, op.theta)
    dropped = frozenset(int(i) for i in drop_indices) if drop_indices else frozenset()
    threshold, min_val = _certify(block_decompose(op, exclude=dropped), op.coords, op.diag,
                                  op.resonant_mask, op.spec, mode, eps_first, eps_second)

    solve, keep = restricted_solver(op, sorted(dropped))
    sigma, rounds, settled = _power_norm(solve, lambda y: solve(y, trans="H"), len(keep),
                                         seed=7, max_rounds=power_iters)

    decay = None
    if fit_decay:
        decay = _fit_decay(op.spec, op.symbols, op.u,
                           np.concatenate([op.coords, op.coords])[keep],
                           np.repeat([1, -1], op.n_sites)[keep],
                           lambda i: solve(np.eye(1, len(keep), i, dtype=complex)[0]))

    return CertifiedInverse(norm_bound=float(sigma), decay=decay, threshold=threshold,
                            min_block_value=min_val, power_iterations=rounds,
                            power_settled=settled)


def lattice_inverse(symbols: ConvolutionSymbols, u: SparseSeries, omega: FrequencyVector,
                    spec: ProblemSpec, sites: np.ndarray) -> Tuple[float, DecayFit]:
    """||F'^{-1}|| on the lattice sites off the seed equations
    (`lattice_operator`), exactly 1/sigma_min by a dense SVD, and the decay
    fit of that inverse's kernel.  With no equation left the norm is 0."""
    mat, keep = lattice_operator(symbols, omega, spec, sites)
    if not keep.any():
        return 0.0, DecayFit(beta_hat=0.0, bound_ok=True, checked_beyond=0)
    a = mat[np.ix_(keep, keep)]
    sv = np.linalg.svd(a, compute_uv=False)
    return float(1.0 / sv[-1]), _fit_decay(spec, symbols, u,
                                           np.concatenate([sites, -sites])[keep],
                                           np.repeat([1, -1], len(sites))[keep],
                                           lambda i: np.linalg.solve(a, np.eye(len(a))[i]))


def _fit_decay(spec: ProblemSpec, symbols: ConvolutionSymbols, u: SparseSeries,
               coords: np.ndarray, copies: np.ndarray,
               column: Callable[[int], np.ndarray]) -> DecayFit:
    """Least-squares decay exponent of an inverse kernel.

    Kept index i is the copy copies[i] (+1 u, -1 v) of the site coords[i],
    and column(i) is the inverse's column there.  Up to four columns are
    probed: at the seed equations (u at each seed, v at its flip) where
    kept, else at the u-copies of the nonlinear forcing sites (uv_p * u)
    off the seeds.  Their log|entry| are pooled against the l1 site
    distance from the probe and fitted as log|entry| = c - beta * |log
    delta| * dist.
    """
    def at(s: SiteIndex, copy: int) -> List[int]:
        return np.nonzero(np.all(coords == s.n + s.j, axis=1) & (copies == copy))[0].tolist()

    seeds = spec.seed_sites()
    probes = [i for s in seeds for i in at(s, 1) + at(-s, -1)]
    if not probes:
        probes = [i for s in convolve(symbols.uv_p, u).support() if s not in seeds
                  for i in at(s, 1)]
    delta = spec.delta
    logd = abs(math.log(delta))
    dists: List[np.ndarray] = []
    logs: List[np.ndarray] = []
    for pi in probes[:4]:
        av = np.abs(column(pi))
        floor = max(av.max() * 1e-16, 1e-300)
        dist = np.sum(np.abs(coords - coords[pi]), axis=1).astype(float)
        mask = (av > floor) & (dist >= 1)
        dists.append(dist[mask])
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
