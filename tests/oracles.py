"""Independent oracles of the tests: a finite-difference Q Jacobian, the
seed equations of a box by index arithmetic, the convexity partition of
the spatial lattice, re-checks of the witnesses that the admissibility
conditions report, and seed symbols with injected support elements.  The
pipeline runs none of them."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from nlsqp.characteristics import (
    CharClass, ConvolutionSymbols, box_strides, classify_site, ordered_components, seed_symbols)
from nlsqp.conditions import WalkViolation
from nlsqp.lattice import (
    Box, FrequencyVector, ProblemSpec, SiteIndex, SparseSeries, linear_solution)
from nlsqp.newton import q_solve


def fd_q_jacobian(spec: ProblemSpec, h: float = 1e-7) -> np.ndarray:
    """d(omega)/d(a) at the seed by central differences of `q_solve`."""
    jac = np.zeros((spec.b, spec.b))
    a0 = np.array(spec.amplitudes)
    for mcol in range(spec.b):
        ap = a0.copy(); ap[mcol] += h
        am = a0.copy(); am[mcol] -= h
        spec_p, spec_m = spec.with_amplitudes(ap), spec.with_amplitudes(am)
        wp = np.array(q_solve(linear_solution(spec_p)[0], spec_p).omega)
        wm = np.array(q_solve(linear_solution(spec_m)[0], spec_m).omega)
        jac[:, mcol] = (wp - wm) / (2 * h)
    return jac


def seed_equations(spec: ProblemSpec, box: Box) -> List[int]:
    """Doubled box indices of the 2b frequency equations (the u-copies of
    the seed sites, then the v-copies of their flips), by the box's linear
    index; ValueError if the box misses a seed."""
    seeds = np.array([s.n + s.j for s in spec.seed_sites()], dtype=np.int64)
    radii, strides = box_strides(spec.b, spec.d, box)
    if np.any(np.abs(seeds) > radii):
        raise ValueError("truncation box does not contain the seed modes")
    lin = ((seeds + radii) @ strides).tolist()
    # The flip of the site at box index i sits at box index ns - 1 - i.
    return lin + [2 * box.site_count(spec.b, spec.d) - 1 - i for i in lin]


def _augment(series: SparseSeries, extra: List[SiteIndex]) -> SparseSeries:
    """The series with a unit term at each site of extra it lacks."""
    terms = {s: series[s] for s in series.support()}
    for s in extra:
        terms.setdefault(s, 1.0 + 0j)
    return SparseSeries(series.b, series.d, terms, drop_tol=0.0)


def injected_symbols(spec: ProblemSpec, inject: Optional[Dict[str, List[SiteIndex]]]
                     ) -> Optional[ConvolutionSymbols]:
    """The seed symbols with the sites of inject["uv"], inject["uu"] and
    inject["vv"] added to uv_p, uu and vv (`_augment`), for the walk and the
    graph check to see a spiral; None for no injection."""
    if not inject:
        return None
    sym = seed_symbols(spec)
    return ConvolutionSymbols(*(_augment(series, inject.get(key, [])) for key, series
                                in zip(("uv", "uu", "vv"), (sym.uv_p, sym.uu, sym.vv))),
                              p=spec.p)


def verify_diff_witness(
    delta: SiteIndex,
    omega0: FrequencyVector,
    class_pair: Tuple[CharClass, CharClass],
    witness: Tuple[SiteIndex, SiteIndex],
) -> bool:
    s1, s2 = witness
    return (classify_site(s1, omega0) is class_pair[0]
            and classify_site(s2, omega0) is class_pair[1]
            and (s1 - s2) == delta)


def verify_walk_witness(viol: WalkViolation, omega0: FrequencyVector) -> bool:
    """Re-verify a lifted spiral witness from scratch."""
    if viol.lifted_sites is None:
        return False
    sites = viol.lifted_sites
    if len(sites) != len(viol.steps) + 1:
        return False
    for i, e in enumerate(viol.steps):
        d = sites[i + 1] - sites[i]
        if d.n != e.dn or d.j != e.element.j:
            return False
        if classify_site(sites[i], omega0) is CharClass.OFF:
            return False
    first, last = sites[0], sites[-1]
    if first.j != last.j or first.n == last.n:
        return False
    return classify_site(first, omega0) is classify_site(last, omega0)


# ---------------------------------------------------------------------------
# Convexity partition of the spatial lattice


@dataclass
class Partition:
    B: float
    blocks: List[List[Tuple[int, ...]]]
    diameters: List[int]
    c0_hat: float

    def block_of(self) -> Dict[Tuple[int, ...], int]:
        return {j: i for i, blk in enumerate(self.blocks) for j in blk}


def build_partition(B: float, d: int, j_radius: int) -> Partition:
    """Connected components of |j - j'|_1 + ||j|^2 - |j'|^2| <= B on the box.

    Cross-block separation > B then holds by construction; block diameters
    are measured and reported (never assumed).
    """
    if B <= 0:
        raise ValueError("partition scale B must be positive")
    pts = [tuple(v) for v in itertools.product(range(-j_radius, j_radius + 1), repeat=d)]
    arr = np.array(pts, dtype=np.int64)
    jsq = np.sum(arr * arr, axis=1)
    m = len(pts)
    # Pairwise proximity, a block of rows at a time to bound memory.
    pairs = []
    for lo in range(0, m, 256):
        dist = (np.sum(np.abs(arr[lo:lo + 256, None, :] - arr[None, :, :]), axis=2)
                + np.abs(jsq[lo:lo + 256, None] - jsq[None, :]))
        pairs.append(np.argwhere(dist <= B) + [lo, 0])
    rows, cols = np.concatenate(pairs).T
    _, order, bounds = ordered_components(m, rows, cols)
    flat, cuts = order.tolist(), bounds.tolist()
    blocks = [[pts[i] for i in flat[a:z]] for a, z in zip(cuts[:-1], cuts[1:])]
    diameters = _l1_diameters(arr, order, bounds).tolist()
    c0 = max((math.log(dm) / math.log(B) for dm in diameters if dm >= 1 and B > 1),
             default=0.0)
    return Partition(B=B, blocks=blocks, diameters=diameters, c0_hat=c0)


def _l1_diameters(coords: np.ndarray, order: np.ndarray, bounds: np.ndarray
                 ) -> np.ndarray:
    """Largest l1 distance between two rows of coords in each component of
    `ordered_components`.

    |x - y|_1 is the largest s.(x - y) over sign vectors s, so a diameter is
    the largest spread of one projection s.x over the component; sign
    vectors up to a global flip suffice.
    """
    dim = coords.shape[1]
    signs = np.array([(1,) + t for t in itertools.product((1, -1), repeat=dim - 1)],
                     dtype=np.int64)
    proj = (coords @ signs.T)[order]
    starts = bounds[:-1]
    spread = np.maximum.reduceat(proj, starts) - np.minimum.reduceat(proj, starts)
    return spread.max(axis=1)
