"""The doubled linearized operator, on a truncation box and on the
conservation lattice.

F' = D + delta*A acts on pairs (u-component, v-component) of lattice
functions.  D is the dispersion diagonal +-n.w + |j|^2 (+ phase); A
couples sites through three convolution symbols.
Admissibility is certified in the style of the analysis: dense determinant /
singular-value bounds on the resonance-graph blocks sitting on the
characteristic variety, and a uniformly bounded diagonal off it.  Every
inverse is dense: on Lambda_R (`characteristics.conservation_sites`), where
the Newton iteration lives, and on a whole box, which F' splits into the
blocks of the cosets of the difference lattice.  Each inverse norm is
1/sigma_min by SVD, with a measured exponential decay rate for the inverse
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    BoxVariety,
    ConvolutionSymbols,
    box_strides,
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
            f"below threshold {threshold:.3e}; first member {site}, "
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


def _seed_equations(spec: ProblemSpec, box: Box) -> List[int]:
    """Doubled box indices of the 2b frequency equations (the u-copies of
    the seed sites, then the v-copies of their flips); LinopError if the
    box misses a seed."""
    seeds = np.array([s.n + s.j for s in spec.seed_sites()], dtype=np.int64)
    radii, strides = box_strides(spec.b, spec.d, box)
    if np.any(np.abs(seeds) > radii):
        raise LinopError("truncation box does not contain the seed modes")
    lin = ((seeds + radii) @ strides).tolist()
    # The flip of the site at box index i sits at box index ns - 1 - i.
    return lin + [2 * box.site_count(spec.b, spec.d) - 1 - i for i in lin]


def _dispersion(coords: np.ndarray, omega: FrequencyVector, spec: ProblemSpec
                ) -> np.ndarray:
    """The diagonal D of F' at the rows of a (count, b + d) site array, as a
    (2, count) array: n.w + |j|^2 + m on the u-copies, then -n.w + |j|^2 + m
    on the v-copies.  Column by column, so a row's
    value does not depend on the other rows."""
    cols = coords.T
    nw = sum(w * n for w, n in zip(omega.omega, cols[:spec.b]))
    jsq = sum(j * j for j in cols[spec.b:])
    m = spec.phase_m
    return np.stack([nw + jsq + m, -nw + jsq + m])


# ---------------------------------------------------------------------------
# Dense pieces of F': resonance blocks, the conservation lattice, cosets


def _dense(coords: np.ndarray, copies: np.ndarray, members: np.ndarray,
           symbols: ConvolutionSymbols, omega: FrequencyVector, spec: ProblemSpec
           ) -> np.ndarray:
    """F' on groups of doubled vertices as a (count, k, k) stack, one group
    per row of the (count, k) array members.  Vertex i is the copy
    copies[i] (+1 u, -1 v) of the site coords[i].  An entry reads the symbol
    the two copies select at row site minus column site, times delta: (p +
    1) uv_p between equal copies, p uu from a u-row to a v-column and p vv
    the other way; the diagonal adds D (`_dispersion`)."""
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
    diag = _dispersion(x.reshape(-1, x.shape[2]), omega, spec).reshape(2, *c.shape)
    k = members.shape[1]
    out[:, np.arange(k), np.arange(k)] += np.where(c > 0, diag[0], diag[1])
    return out


def _stacks(coords: np.ndarray, copies: np.ndarray, order: np.ndarray, bounds: np.ndarray,
            symbols: ConvolutionSymbols, omega: FrequencyVector, spec: ProblemSpec
            ) -> Dict[int, np.ndarray]:
    """`_dense` on the groups order[bounds[c]:bounds[c + 1]] of the vertices
    (coords, copies), one stack per group size k, sizes ascending: the
    (count, k, k) stack of the size-k groups, rows as in `members_of_size`."""
    return {k: _dense(coords, copies, members_of_size(order, bounds, k), symbols, omega, spec)
            for k in np.unique(np.diff(bounds)).tolist()}


@dataclass
class BlockDecomposition:
    """The resonance blocks of an operator, numbered by smallest member.

    Block c covers the doubled operator indices order[bounds[c]:bounds[c +
    1]], ascending.  stacks maps each block size k to the (count, k, k)
    stack of the blocks of that size, in block order: the rows of
    `members_of_size`.
    """

    order: np.ndarray
    bounds: np.ndarray
    stacks: Dict[int, np.ndarray]


def resonance_blocks(symbols: ConvolutionSymbols, omega: FrequencyVector,
                     spec: ProblemSpec, variety: BoxVariety,
                     exclude: frozenset = frozenset()) -> BlockDecomposition:
    """Dense blocks of F' over the resonance components of a box, from its
    variety and the symbols.

    The blocks live on the variety's vertices, the resonant doubled
    indices: the u-copy of each C+ site, the v-copy of each C- site, and
    both copies of a site with j = 0 (and n.w0 = 0).  The components are
    those of the links from every vertex (`resonance_links`): the resonance
    graph's edges and the links of the j = 0 twins.  Blocks are ordered by
    their smallest doubled index, members ascending.  `exclude` removes
    doubled indices (the seed equations) from their blocks after the
    components are found; a block left empty is dropped, and the later
    blocks keep their order.
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
    return BlockDecomposition(order=index[order], bounds=bounds,
                              stacks=_stacks(coords, copies, by_index[order], bounds,
                                             symbols, omega, spec))


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
# Admissibility


def _mode(omega: FrequencyVector, spec: ProblemSpec) -> str:
    """"seed" at the seed frequency, else "modulated"."""
    seed = np.allclose(np.array(omega.omega), np.array(spec.omega0().omega))
    return "seed" if seed else "modulated"


def _certify(decomp: BlockDecomposition, coords: np.ndarray, diag: np.ndarray,
             resonant: np.ndarray, spec: ProblemSpec, mode: str, eps_first: float,
             eps_second: float) -> float:
    """The smallest block value under the threshold of the mode: in mode
    "seed" the delta-normalized |det(Gamma_k / delta^size)|, otherwise the
    smallest singular value, by one batched det or SVD per block size.  The
    first block at or below the threshold raises ExcisionError; then, over
    the box's doubled indices (diag and resonant, for the sites coords), a
    diagonal off the variety below 0.25 raises OffCharDiagonalError at its
    first smallest value."""
    b = spec.b
    sizes = np.diff(decomp.bounds)
    values = np.empty(len(sizes))
    for k, stack in decomp.stacks.items():
        if mode == "seed":
            det = np.linalg.det(stack)
            # np.hypot equals Python's abs() of a complex bit for bit.
            values[sizes == k] = np.hypot(det.real, det.imag) / spec.delta ** k
        else:
            values[sizes == k] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    threshold = eps_first if mode == "seed" else spec.delta ** (1.0 + eps_second)
    failing = np.nonzero(values <= threshold)[0]
    if len(failing):
        k = int(failing[0])
        doubled = decomp.order[decomp.bounds[k]:decomp.bounds[k + 1]]
        sites = coords[doubled % len(coords)]
        meets = on_lattice(sites, np.where(doubled < len(coords), 1, -1), spec).any()
        raise ExcisionError(k, float(values[k]), threshold, int(sizes[k]),
                            site(sites[0, :b], sites[0, b:]), bool(meets))
    off = np.nonzero(~resonant)[0]
    if len(off):
        i = off[np.argmin(np.abs(diag[off]))]
        if abs(diag[i]) < 0.25:
            x = coords[i % len(coords)]
            raise OffCharDiagonalError(site(x[:b], x[b:]), float(abs(diag[i])))
    return float(values.min(initial=math.inf))


def admissibility_gate(omega: FrequencyVector, spec: ProblemSpec, variety: BoxVariety,
                       symbols: ConvolutionSymbols, eps_first: float = 1e-4,
                       eps_second: float = 0.5) -> Tuple[str, float]:
    """The admissibility certificate over the whole box of a variety
    (`box_variety`) at omega and the symbols of the iterate: the blocks off
    the seed equations from `resonance_blocks`, the diagonal from
    `_dispersion` on the box sites.  mode "seed" thresholds the
    delta-normalized block determinants (the blocks are delta * A_k(a) with
    A_k independent of delta) against eps_first; mode "modulated", once the
    frequency has moved, thresholds block minimum singular values against
    delta^(1 + eps_second).  Returns the mode and the smallest block value."""
    exclude = frozenset(_seed_equations(spec, variety.box))
    decomp = resonance_blocks(symbols, omega, spec, variety, exclude=exclude)
    mode = _mode(omega, spec)
    min_val = _certify(decomp, variety.coords, _dispersion(variety.coords, omega, spec).ravel(),
                       variety.resonant, spec, mode, eps_first, eps_second)
    return mode, min_val


# ---------------------------------------------------------------------------
# Inverse norms and decay


@dataclass
class DecayFit:
    beta_hat: float      # certified exponent: the bound holds at this value
    bound_ok: bool
    checked_beyond: int  # entries at distance > 1/beta^2 that were checked


def _inverse_norm(blocks: Iterable[np.ndarray]) -> float:
    """The 2-norm of the inverse of the direct sum of stacks of square
    blocks, max 1/sigma_min by one batched SVD per stack; inf when a block
    is singular."""
    smin = min((np.linalg.svd(s, compute_uv=False)[:, -1].min() for s in blocks),
               default=math.inf)
    return float(1.0 / smin) if smin > 0 else math.inf


def _coset_blocks(u: SparseSeries, v: SparseSeries, spec: ProblemSpec, box: Box
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The doubled indices of a box grouped by the coset of the difference
    lattice L = {sum_k c_k s_k : sum_k c_k = 0} that F' keeps them in.

    The coset key of a site is phi(n, j) = (sum n, j + sum_k n_k j_k).  With
    u on Lambda (key (-1, 0)) and v on -Lambda the symbols of F' lie on L
    (uv_p), 2 s_1 + L (uu) and its negative (vv), so a u-copy at x couples
    only to u-copies of its key and to v-copies at y with phi(y) = phi(x) +
    (2, 0).  A v-copy is keyed phi(y) - (2, 0); F' has no entry between
    doubled indices of different keys, and key (-1, 0) is Lambda's block.
    Any other u or v raises LinopError.

    Returns (sites, copies, keys, order, bounds): doubled index i is the copy
    copies[i] (+1 u, -1 v) of sites[i] with key keys[i], the box sites for
    the u-copies, then again for the v-copies; the block c of key rank c
    covers order[bounds[c]:bounds[c + 1]], ascending.
    """
    b = spec.b
    for series, copy in ((u, 1), (v, -1)):
        sup = np.array([s.n + s.j for s in series.support()], dtype=np.int64)
        if not on_lattice(sup.reshape(-1, b + spec.d), copy, spec).all():
            raise LinopError("the box inverse splits F' by cosets, which needs u on "
                             "the conservation lattice and v on its negative")
    coords = enumerate_box_sites(b, spec.d, box)
    n = coords[:, :b]
    jmat = np.array(spec.j_list, dtype=np.int64).reshape(b, spec.d)
    phi = np.concatenate([n.sum(axis=1, keepdims=True), coords[:, b:] + n @ jmat], axis=1)
    keys = np.concatenate([phi, phi - np.eye(1, 1 + spec.d, dtype=np.int64) * 2])
    label = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    bounds = np.concatenate([[0], np.cumsum(np.bincount(label))])
    return (np.concatenate([coords, coords]), np.repeat([1, -1], len(coords)), keys,
            np.argsort(label, kind="stable"), bounds)


def box_inverse(u: SparseSeries, v: SparseSeries, omega: FrequencyVector,
                spec: ProblemSpec, box: Box, fit_decay: bool = True
                ) -> Tuple[float, Optional[DecayFit]]:
    """||F'^{-1}|| over a whole box, exactly, and the decay fit of the
    inverse's kernel on Lambda's block.

    F' is block diagonal over the cosets of `_coset_blocks`, so the norm is
    max 1/sigma_min over the coset blocks.  With fit_decay the kernel is probed
    at the seed equations of Lambda's block (`_fit_decay`), every row kept;
    otherwise the fit is None.  This reports a norm and certifies nothing:
    admissibility is `admissibility_gate`'s.
    """
    symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    sites, copies, keys, order, bounds = _coset_blocks(u, v, spec, box)
    norm = _inverse_norm(_stacks(sites, copies, order, bounds, symbols, omega, spec).values())
    if not fit_decay:
        return norm, None
    lam = np.flatnonzero((keys[:, 0] == -1) & ~keys[:, 1:].any(axis=1))
    a = _dense(sites, copies, lam[None, :], symbols, omega, spec)[0]
    return norm, _fit_decay(spec, symbols, u, sites[lam], copies[lam],
                            lambda i: np.linalg.solve(a, np.eye(len(a))[i]))


def lattice_inverse(symbols: ConvolutionSymbols, u: SparseSeries, omega: FrequencyVector,
                    spec: ProblemSpec, sites: np.ndarray) -> Tuple[float, DecayFit]:
    """||F'^{-1}|| on the lattice sites off the seed equations
    (`lattice_operator`), exactly 1/sigma_min (`_inverse_norm`), and the
    decay fit of that inverse's kernel.  With no equation left the norm is
    0."""
    mat, keep = lattice_operator(symbols, omega, spec, sites)
    if not keep.any():
        return 0.0, DecayFit(beta_hat=0.0, bound_ok=True, checked_beyond=0)
    a = mat[np.ix_(keep, keep)]
    return _inverse_norm([a[None]]), _fit_decay(spec, symbols, u,
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


def _copy_signs(copies: np.ndarray, order: np.ndarray, bounds: np.ndarray,
                sizes: Iterable[int]) -> Dict[int, np.ndarray]:
    """The copy signs (+1 u, -1 v) of the groups of `_stacks`, per size k as
    a diagonal (count, k, k) stack: theta times it is the theta shift."""
    return {k: np.eye(k) * copies[members_of_size(order, bounds, k)][:, None, :] for k in sizes}


def theta_spectrum_scan(
    u: SparseSeries,
    v: SparseSeries,
    omega: FrequencyVector,
    spec: ProblemSpec,
    box: Box,
    theta_grid: Sequence[float],
    eps: float = 0.3,
) -> ThetaScanReport:
    """Inverse norms along the theta-shifted family T(theta) on a box.

    theta enters as +theta on the u diagonal and -theta on the v diagonal.
    A grid point is bad when ||T(theta)^{-1}|| exceeds delta^{-(1+eps)};
    the measured bad set is returned with its grid measure.  Each theta is
    also decomposed as Theta + delta*theta' with integral Theta, and points
    with |Theta| beyond 2|log delta|^{2s}+1, at the second-step exponent
    s = 2, are flagged as outside the range the analysis needs.

    The coset blocks of `box_inverse` are built once; each grid point adds
    theta times the copy sign to their diagonals and takes one batched SVD
    per block size.
    """
    symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    sites, copies, _, order, bounds = _coset_blocks(u, v, spec, box)
    stacks = _stacks(sites, copies, order, bounds, symbols, omega, spec)
    signs = _copy_signs(copies, order, bounds, stacks)
    delta = spec.delta
    threshold = delta ** (-(1.0 + eps))
    restrict_cut = 2.0 * abs(math.log(delta)) ** 4.0 + 1.0

    points = []
    thetas = [float(theta) for theta in theta_grid]
    for theta in thetas:
        theta_int = math.floor(theta + 0.5)
        norm = _inverse_norm(stack + theta * signs[k] for k, stack in stacks.items())
        points.append(ThetaPoint(theta, theta_int, theta - theta_int, norm,
                                 norm <= threshold, abs(theta_int) > restrict_cut))
    bad = [pt for pt in points if not pt.ok]
    frac = len(bad) / len(points) if points else 0.0
    span = (max(thetas) - min(thetas)) if len(thetas) > 1 else 0.0
    return ThetaScanReport(points=points, bad_fraction=frac,
                           bad_measure=frac * span, threshold=threshold, eps=eps)
