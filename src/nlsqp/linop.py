"""The doubled linearized operator, on a truncation box and on the
conservation lattice.

F' = D + delta*A acts on pairs (u-component, v-component) of lattice
functions.  D is the dispersion diagonal +-n.w + |j|^2 (+ phase); A
couples sites through three convolution symbols.  With u on the
conservation lattice Lambda (`characteristics.conservation_sites`) and v
on -Lambda, F' maps Lambda (+) -Lambda to itself, and the Newton iteration
never leaves it.  Admissibility is certified there, in the style of the
analysis: dense singular-value bounds on the resonance blocks of Lambda
(+) -Lambda inside the truncation box, and a uniformly bounded diagonal
off the characteristic variety.  Every inverse is dense: on Lambda_R,
where the Newton iteration lives, and on a whole box, which F' splits into
the blocks of the components of its links, for any fields.  Each inverse
norm is 1/sigma_min by SVD, with a measured exponential decay rate for the
inverse kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    ConvolutionSymbols,
    branch_tags,
    component_terms,
    enumerate_box_sites,
    lattice_generation,
    lattice_in_box,
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
    site,
)


class LinopError(RuntimeError):
    pass


class ExcisionError(LinopError):
    """A resonance block of Lambda (+) -Lambda fails its invertibility
    threshold: the amplitude vector lies in (or too close to) the excised
    set.  `site` is the block's first member."""

    def __init__(self, block_index: int, value: float, threshold: float, size: int,
                 site: SiteIndex):
        super().__init__(
            f"block {block_index} (size {size}): sigma_min = {value:.3e} "
            f"below threshold {threshold:.3e}; first member {site}")
        self.block_index = block_index
        self.value = value
        self.threshold = threshold
        self.size = size
        self.site = site


class OffCharDiagonalError(LinopError):
    def __init__(self, site: SiteIndex, value: float):
        super().__init__(
            f"off-characteristic diagonal too close to zero at {site}: {value:.3e}")
        self.site = site
        self.value = value


def _seed_mask(spec: ProblemSpec, sites: np.ndarray, copies: np.ndarray) -> np.ndarray:
    """The 2b frequency equations among doubled vertices, the copies
    copies[i] (+1 u, -1 v) of sites[i]: the u-copies of the seeds, the sites
    of generation 0 on Lambda, and the v-copies at their flips.  LinopError
    if fewer than 2b vertices match: the box misses a seed."""
    seeds = on_lattice(sites, copies, spec) & (
        lattice_generation(sites * copies[:, None], spec.b) == 0)
    if np.count_nonzero(seeds) < 2 * spec.b:
        raise LinopError("truncation box does not contain the seed modes")
    return seeds


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
# Dense pieces of F': resonance blocks, the conservation lattice, the box


def _dense(coords: np.ndarray, copies: np.ndarray, members: np.ndarray,
           symbols: ConvolutionSymbols, omega: FrequencyVector, spec: ProblemSpec,
           at: np.ndarray) -> np.ndarray:
    """F' on groups of doubled vertices as a (count, k, k) stack, one group
    per row of the (count, k) array members.  Vertex i is the copy
    copies[i] (+1 u, -1 v) of the site coords[i].  An entry is the term at
    its position in at (`component_terms`), times delta (p + 1) from uv_p
    and delta p from uu or vv; the diagonal adds D (`_dispersion`)."""
    delta, p = spec.delta, spec.p
    vals = [coef * ampl for coef, series in ((delta * (p + 1), symbols.uv_p),
                                             (delta * p, symbols.uu), (delta * p, symbols.vv))
            for _, ampl in series.items()]
    out = np.array(vals + [0], dtype=complex)[at]
    x, c = coords[members], copies[members]
    diag = _dispersion(x.reshape(-1, x.shape[2]), omega, spec).reshape(2, *c.shape)
    k = members.shape[1]
    out[:, np.arange(k), np.arange(k)] += np.where(c > 0, diag[0], diag[1])
    return out


def _stacks(coords: np.ndarray, copies: np.ndarray, order: np.ndarray, bounds: np.ndarray,
            links: np.ndarray, symbols: ConvolutionSymbols, omega: FrequencyVector,
            spec: ProblemSpec) -> Dict[int, np.ndarray]:
    """`_dense` on the groups order[bounds[c]:bounds[c + 1]] of the vertices
    (coords, copies), one stack per group size k, sizes ascending: the
    (count, k, k) stack of the size-k groups, read off the vertices' links."""
    terms = component_terms(len(coords), order, bounds, links, symbols.uv_p.support())
    return {k: _dense(coords, copies, members_of_size(order, bounds, k), symbols, omega, spec,
                      at) for k, at in terms.items()}


def _exclude(order: np.ndarray, bounds: np.ndarray, dropped: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """The groups order[bounds[c]:bounds[c + 1]] without the members i
    where dropped[i]; a group left empty is dropped, and the later groups
    keep their order."""
    keep = ~dropped[order]
    sizes = np.bincount(np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[keep],
                        minlength=len(bounds) - 1)
    return order[keep], np.concatenate([[0], np.cumsum(sizes[sizes > 0])])


@dataclass
class LatticeBox:
    """Lambda (+) -Lambda inside a box, as every gate of a solve reads it:
    it depends on the spec and the box alone (`lattice_box`).

    The vertices are the u-copies of the sites of Lambda in the box
    (`lattice_in_box`, lexicographic) with a vanishing seed diagonal n.w0 +
    |j|^2 (`branch_tags`), then the v-copies at their flips, whose seed
    diagonal is the same, in the same order: their doubled box indices
    ascend.  Vertex i is the copy copies[i] (+1 u, -1 v) of sites[i], and
    seeds marks the seed equations among them (`_seed_mask`); off holds
    the other sites of Lambda in the box, off the variety.
    """

    sites: np.ndarray
    copies: np.ndarray
    seeds: np.ndarray
    off: np.ndarray


def lattice_box(spec: ProblemSpec, box: Box) -> LatticeBox:
    """The `LatticeBox` of a spec in a box.  LinopError if the box misses a
    seed; BoxTooLarge past SITE_CAP sites of Lambda (`lattice_in_box`)."""
    lam = lattice_in_box(spec, box)
    on = branch_tags(lam, spec.omega0())[1][:len(lam)]
    res = lam[on]
    sites = np.concatenate([res, -res[::-1]])
    copies = np.repeat(np.array([1, -1], dtype=np.int8), len(res))
    return LatticeBox(sites, copies, _seed_mask(spec, sites, copies), lam[~on])


@dataclass
class LatticeFrame:
    """The doubled vertices of a site array (`lattice_frame`): the u-copies
    at its rows `points`, then the v-copies at their flips, vertex i the
    copy copies[i] (+1 u, -1 v) of coords[i], keep those off the 2b seed
    equations, in box, the smallest that holds the rows.  terms: the
    supports last linked here and their term positions (`component_terms`),
    read again by an operator under equal supports."""

    coords: np.ndarray
    copies: np.ndarray
    keep: np.ndarray
    box: Box
    points: List[SiteIndex]
    terms: Optional[Tuple[Tuple[Tuple[SiteIndex, ...], ...], np.ndarray]] = None


def lattice_frame(spec: ProblemSpec, sites: np.ndarray) -> LatticeFrame:
    """The `LatticeFrame` of a site array, linked under no supports yet."""
    coords, copies = np.concatenate([sites, -sites]), np.repeat([1, -1], len(sites))
    radii = np.abs(sites).max(axis=0)
    box = Box(int(radii[:spec.b].max()), int(radii[spec.b:].max(initial=0)))
    points = [SiteIndex(tuple(r[:spec.b]), tuple(r[spec.b:])) for r in sites.tolist()]
    return LatticeFrame(coords, copies, ~_seed_mask(spec, coords, copies), box, points)


def lattice_operator(symbols: ConvolutionSymbols, omega: FrequencyVector,
                     spec: ProblemSpec, frame: LatticeFrame
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """F' on the frame's vertices as a dense (2k, 2k) matrix, and the mask of
    the rows and columns off the 2b seed equations.  The vertices are one
    group of `component_terms`, linked (`resonance_links`) in the frame's
    box unless the frame was last linked under the symbols' supports.  On
    the frame of Lambda_R this is the Newton operator: u on Lambda and v on
    -Lambda couple to nothing else."""
    supports, n = symbols.supports(), len(frame.coords)
    if frame.terms is None or frame.terms[0] != supports:
        links = resonance_links(frame.box, frame.coords, frame.copies, supports, spec.b)
        frame.terms = supports, component_terms(n, np.arange(n), np.array([0, n]), links,
                                                supports[0])[n]
    return (_dense(frame.coords, frame.copies, np.arange(n)[None], symbols, omega, spec,
                   frame.terms[1])[0], frame.keep)


# ---------------------------------------------------------------------------
# Admissibility


def admissibility_gate(omega: FrequencyVector, spec: ProblemSpec, box: Box,
                       symbols: ConvolutionSymbols, eps_second: float = 0.5,
                       lattice: Optional[LatticeBox] = None) -> float:
    """The admissibility certificate of the iterate with the given symbols
    at omega, on Lambda (+) -Lambda inside the box (its `LatticeBox`, built
    here unless given), the only part of the box the iteration moves.

    The resonance blocks are the components of the vertices'
    `resonance_links` under the symbols, off the seed equations; with every
    vertex a seed equation there is none, and no link is looked up.  Every gate of a solve follows a Q solve, so their
    smallest singular values, by one batched SVD per block size, are
    thresholded against delta^(1 + eps_second): the first block at or below
    it raises ExcisionError.  Then a diagonal of Lambda (+) -Lambda off the
    variety below 0.25 raises OffCharDiagonalError at its first smallest
    value; a v-copy at -x has the diagonal of the u-copy at x, so the
    u-copies are read.  Returns the smallest block value, inf with no
    block.
    """
    lat = lattice or lattice_box(spec, box)
    sites, copies, off, b = lat.sites, lat.copies, lat.off, spec.b
    values = np.empty(0)
    if not lat.seeds.all():
        links = resonance_links(box, sites, copies, symbols.supports(), b)
        _, order, bounds = ordered_components(len(sites), links[0], links[1])
        order, bounds = _exclude(order, bounds, lat.seeds)
        sizes = np.diff(bounds)
        values = np.empty(len(sizes))
        for k, stack in _stacks(sites, copies, order, bounds, links, symbols, omega, spec).items():
            values[sizes == k] = np.linalg.svd(stack, compute_uv=False)[:, -1]
        threshold = spec.delta ** (1.0 + eps_second)
        failing = np.nonzero(values <= threshold)[0]
        if len(failing):
            k = int(failing[0])
            x = sites[order[bounds[k]]]
            raise ExcisionError(k, float(values[k]), threshold, int(sizes[k]),
                                site(x[:b], x[b:]))
    if len(off):
        diag = np.abs(_dispersion(off, omega, spec)[0])
        i = int(np.argmin(diag))
        if diag[i] < 0.25:
            raise OffCharDiagonalError(site(off[i, :b], off[i, b:]), float(diag[i]))
    return float(values.min(initial=math.inf))


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


def _box_blocks(spec: ProblemSpec, box: Box, symbols: ConvolutionSymbols
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The doubled vertices of a whole box, split by F' under the symbols.

    The vertices are the u-copies of the box's sites (`enumerate_box_sites`,
    lexicographic), then the v-copies in the same order, so vertex i is the
    doubled box index i.  Links are those of `resonance_links`, so no entry
    of F' joins two components, whatever fields gave the symbols.

    Returns (sites, copies, order, bounds, links): vertex i is the copy
    copies[i] of sites[i], and component c is order[bounds[c]:bounds[c +
    1]], numbered by its smallest vertex, members ascending.
    """
    coords = enumerate_box_sites(spec.b, spec.d, box)
    sites = np.concatenate([coords, coords])
    copies = np.repeat(np.array([1, -1], dtype=np.int8), len(coords))
    links = resonance_links(box, sites, copies, symbols.supports(), spec.b)
    _, order, bounds = ordered_components(len(sites), links[0], links[1])
    return sites, copies, order, bounds, links


def box_inverse(symbols: ConvolutionSymbols, omega: FrequencyVector, spec: ProblemSpec,
                box: Box, fit_decay: bool = True) -> Tuple[float, Optional[DecayFit]]:
    """||F'^{-1}|| over a whole box, exactly, and the decay fit of the
    inverse's kernel on Lambda's block.

    F' is block diagonal over the components of `_box_blocks`, so the norm
    is max 1/sigma_min over their blocks.  With fit_decay the kernel is
    probed at the seed equations of the block of Lambda (+) -Lambda
    (`on_lattice`, `_fit_decay`), every row kept; otherwise the fit is None.
    This reports a norm and certifies nothing: admissibility is
    `admissibility_gate`'s.
    """
    sites, copies, order, bounds, links = _box_blocks(spec, box, symbols)
    norm = _inverse_norm(_stacks(sites, copies, order, bounds, links, symbols, omega,
                                 spec).values())
    if not fit_decay:
        return norm, None
    lam = np.flatnonzero(on_lattice(sites, copies, spec))
    a = _stacks(sites, copies, lam, np.array([0, len(lam)]), links, symbols, omega,
                spec)[len(lam)][0]
    return norm, _fit_decay(spec, symbols, sites[lam], copies[lam], a)


def lattice_inverse(symbols: ConvolutionSymbols, omega: FrequencyVector, spec: ProblemSpec,
                    frame: LatticeFrame) -> Tuple[float, DecayFit]:
    """||F'^{-1}|| on the frame's vertices off the seed equations
    (`lattice_operator`), exactly 1/sigma_min (`_inverse_norm`), and the
    decay fit of that inverse's kernel.  With no equation left the norm is
    0."""
    mat, keep = lattice_operator(symbols, omega, spec, frame)
    if not keep.any():
        return 0.0, DecayFit(beta_hat=0.0, bound_ok=True, checked_beyond=0)
    a = mat[np.ix_(keep, keep)]
    return _inverse_norm([a[None]]), _fit_decay(spec, symbols, frame.coords[keep],
                                                frame.copies[keep], a)


def _fit_decay(spec: ProblemSpec, symbols: ConvolutionSymbols,
               coords: np.ndarray, copies: np.ndarray, a: np.ndarray) -> DecayFit:
    """Least-squares decay exponent of the kernel of a dense operator's
    inverse.

    Index i of the operator a is the copy copies[i] (+1 u, -1 v) of the site
    coords[i], each (site, copy) once.  Up to four columns of the inverse
    are probed, one solve each (four at once differ in the last bits where
    a threaded BLAS splits them): at the seed equations (u at each seed, v
    at its flip) where kept, else at the u-copies of the nonlinear forcing
    sites (gu = uv_p * u) off the seeds.  Their log|entry| are pooled
    against the l1 site distance from the probe and fitted as log|entry| =
    c - beta * |log delta| * dist.
    """
    rows = {(tuple(x), c): i for i, (x, c) in enumerate(zip(coords.tolist(), copies.tolist()))}
    seeds = spec.seed_sites()
    probes = [rows[key] for s in seeds for key in ((s.n + s.j, 1), ((-s).n + (-s).j, -1))
              if key in rows]
    if not probes:
        probes = [rows[s.n + s.j, 1] for s in symbols.gu.support()
                  if s not in seeds and (s.n + s.j, 1) in rows]
    logd = abs(math.log(spec.delta))
    dists: List[np.ndarray] = []
    logs: List[np.ndarray] = []
    for pi in probes[:4]:
        av = np.abs(np.linalg.solve(a, np.eye(len(a))[pi]))
        floor = max(av.max() * 1e-16, 1e-300)
        dist = np.sum(np.abs(coords - coords[pi]), axis=1).astype(float)
        mask = (av > floor) & (dist >= 1)
        dists.append(dist[mask])
        logs.append(np.log(av[mask]))
    dists_a, logs_a = (np.concatenate(x) if x else np.zeros(0) for x in (dists, logs))
    levels = np.unique(dists_a)
    if len(levels) < 2:
        return DecayFit(beta_hat=0.0, bound_ok=True, checked_beyond=0)
    slope = np.linalg.lstsq(np.vstack([dists_a, np.ones_like(dists_a)]).T, logs_a,
                            rcond=None)[0][0]
    beta_ls = max(-slope / logd, 0.0)
    # Certify the largest beta <= beta_ls such that every entry at distance
    # beyond 1/beta^2 obeys |entry| <= delta^{beta * dist}.  The resonant
    # blocks carry O(1/delta) inverse entries at short distance, which is
    # exactly why the bound only starts past 1/beta^2: the cutoff must be
    # pushed beyond the block diameter.  Sorted by distance, the entries
    # beyond a cut are a suffix, and their smallest exponent its minimum.
    by_dist = np.argsort(dists_a, kind="stable")
    sorted_d = dists_a[by_dist]
    suffix_min = np.minimum.accumulate((-logs_a / (dists_a * logd))[by_dist][::-1])[::-1]
    beta = 0.0
    cuts = [0.0] + levels.tolist()
    for cut, start in zip(cuts, np.searchsorted(sorted_d, cuts, side="right").tolist()):
        cap = beta_ls if cut == 0 else min(beta_ls, (1.0 - 1e-12) / math.sqrt(cut))
        cand = cap if start == len(sorted_d) else min(cap, float(suffix_min[start]))
        beta = max(beta, cand)
    if beta <= 0:
        return DecayFit(beta_hat=0.0, bound_ok=True, checked_beyond=0)
    start = int(np.searchsorted(sorted_d, 1.0 / beta ** 2, side="right"))
    ok = start == len(sorted_d) or bool(suffix_min[start] >= beta - 1e-12)
    return DecayFit(beta_hat=float(beta), bound_ok=ok, checked_beyond=len(sorted_d) - start)


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
    symbols: ConvolutionSymbols,
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

    The blocks of `box_inverse`, off the 2b seed equations as in
    `lattice_inverse` and the gate, are built once; each grid point adds
    theta times the copy sign to their diagonals and takes one batched SVD
    per block size.
    """
    sites, copies, order, bounds, links = _box_blocks(spec, box, symbols)
    order, bounds = _exclude(order, bounds, _seed_mask(spec, sites, copies))
    stacks = _stacks(sites, copies, order, bounds, links, symbols, omega, spec)
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
