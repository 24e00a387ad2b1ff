"""Independent oracles of the tests: a finite-difference Q Jacobian, the
seed equations of a box by index arithmetic, the convexity partition of
the spatial lattice, `branch_tags` on one site and the re-checks of the
witnesses that the admissibility conditions report, seed symbols with
injected support elements, and the object-based walk graph and BFS of
condition (ii), the resonance graph
built from every site of its box, the split-step loop of
`evolve_drift` frozen as it stood before its stage was rewritten, the
tuple-keyed convolution, convolution power and residual frozen as they
stood before convolutions keyed sites by packed integers, the tuple
list of small spatial modes that the membership search read before its
table was built in numpy, the sites of Lambda in a box filtered from
the full grid of c-vectors, and the lifts of a membership witness and of
a quotient walk frozen as they stood before both read `branch_tags` through
one batched lift, each with its own solve_dot and written tie-break, and
the term lookup of F' on every pair of vertices, frozen as it stood before
every entry read its term off a link.  The pipeline runs none of them."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from nlsqp import _intlinalg
from nlsqp.characteristics import (
    TAG_CLASS, CharClass, ConvolutionSymbols, ResonanceGraph, _lattice, _min_labels,
    box_strides, branch_tags, enumerate_box_sites,
    ordered_components, resonance_links, row_keys, seed_symbols, sphere_points)
from nlsqp.conditions import WalkEdge, WalkNode, WalkViolation
from nlsqp.lattice import (
    DROP_TOL, Box, FrequencyVector, ProblemSpec, SiteIndex, SparseSeries, delta_series,
    linear_solution)
from nlsqp.newton import q_solve
from nlsqp.verify import (
    S6_FREE, S6_PHASE, DriftReport, IntegratorInstability, VerifyError,
    _linear_propagator, _sub_torus)


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


def classify_site(s: SiteIndex, omega0: FrequencyVector) -> CharClass:
    """`branch_tags` on one site."""
    tags, _ = branch_tags(np.array([s.n + s.j], dtype=np.int64), omega0)
    return TAG_CLASS[int(tags[0])]


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


# ---------------------------------------------------------------------------
# The walk graph of condition (ii) on objects: one WalkNode per (branch, j)
# class, one WalkEdge per step, a dict BFS over them.  The package builds the
# same graph on integer arrays; these are its reference.


@dataclass
class ObjectWalkGraph:
    nodes: List[WalkNode]
    edges: Dict[WalkNode, List[WalkEdge]]
    immediate_spirals: List[WalkEdge]
    truncated: bool


def branch_realizable(j, branch, w, kernel) -> bool:
    """Whether the class (branch, j) holds a site: n.w = -branch |j|^2
    solvable, and at j = 0 on C- some n_1 > 0 (a kernel vector with a
    nonzero first coordinate)."""
    jsq = sum(x * x for x in j)
    g = _intlinalg.vector_gcd(w)
    if g == 0:
        return jsq == 0
    if jsq % g != 0:
        return False
    if all(x == 0 for x in j) and branch == -1:
        return any(k[0] != 0 for k in kernel)
    return True


def same_branch_sources(element, branch, w, d, j_radius):
    """Source j's of a same-branch step: 2 j.dj + |dj|^2 + branch dn.w = 0,
    solved in one dimension, tested at every j of the box in more.  Returns
    (sources, everywhere)."""
    dn_w = sum(a * b for a, b in zip(element.n, w))
    dj = element.j
    c = -sum(x * x for x in dj) - branch * dn_w
    if all(x == 0 for x in dj):
        return [], c == 0
    if d == 1:
        return ([(c // (2 * dj[0]),)] if c % (2 * dj[0]) == 0 else []), False
    return [j for j in itertools.product(range(-j_radius, j_radius + 1), repeat=d)
            if 2 * sum(a * b for a, b in zip(j, dj)) == c], False


def cross_branch_sources(element, branch, w, j_radius):
    """Source j's of a branch-switching step: the sphere
    |2j + dj|^2 = 2 branch dn.w - |dj|^2, clipped to the j box if given."""
    dn_w = sum(a * b for a, b in zip(element.n, w))
    dj = element.j
    out = sphere_points(tuple(-x for x in dj), 2 * branch * dn_w - sum(x * x for x in dj))
    if j_radius is not None:
        out = [j for j in out if all(abs(x) <= j_radius for x in j)]
    return out


def spiral_anchor(w, d, branch, kernel):
    """The first realizable j by sup norm 0..3, product order within."""
    for r in range(0, 4):
        for j in itertools.product(range(-r, r + 1), repeat=d):
            if max((abs(x) for x in j), default=0) == r and branch_realizable(
                    j, branch, w, kernel):
                return j
    return None


def object_walk_graph(supports, omega0, d, j_radius=None) -> ObjectWalkGraph:
    """The quotient walk graph built one WalkEdge at a time."""
    w = omega0.as_ints()
    kernel = _intlinalg.kernel_basis([list(w)])
    edges: Dict[WalkNode, List[WalkEdge]] = {}
    immediate: List[WalkEdge] = []

    def add_edge(src, dst, element, kind):
        if branch_realizable(src.j, src.branch, w, kernel):
            edges.setdefault(src, []).append(WalkEdge(src, dst, element.n, element, kind))

    for element in supports.get("uv", []):
        if element.is_zero():
            continue
        for branch in (1, -1):
            sources, everywhere = same_branch_sources(element, branch, w, d, j_radius)
            if everywhere:
                jw = spiral_anchor(w, d, branch, kernel)
                if jw is not None:
                    node = WalkNode(branch, jw)
                    immediate.append(WalkEdge(node, node, element.n, element, "diag"))
                continue
            for j in sources:
                dst = tuple(a + b for a, b in zip(j, element.j))
                add_edge(WalkNode(branch, j), WalkNode(branch, dst), element, "diag")
    for key, branch in (("vv", 1), ("uu", -1)):
        for element in supports.get(key, []):
            for j in cross_branch_sources(element, branch, w, j_radius):
                dst = tuple(a + b for a, b in zip(j, element.j))
                add_edge(WalkNode(branch, j), WalkNode(-branch, dst), element, key)
    def key(node):  # C+ first, then j ascending
        return (-node.branch, node.j)

    nodes = sorted(set(edges) | {e.dst for lst in edges.values() for e in lst}, key=key)
    for lst in edges.values():
        lst.sort(key=lambda e: (key(e.dst), e.dn))
    return ObjectWalkGraph(nodes=nodes, edges=edges, immediate_spirals=immediate,
                           truncated=d > 1)


def object_walk_check(graph: ObjectWalkGraph, b: int, m_max: int):
    """The potential BFS over the object graph: verdict, the unlifted
    witness, stats."""
    zero = (0,) * b
    if graph.immediate_spirals:
        e = graph.immediate_spirals[0]
        return "fail", WalkViolation(start=e.src, steps=[e], total_dn=e.dn), {"mode": "self_loop"}
    visited_any = set()
    hit_depth_cap = False
    for root in graph.nodes:
        if root in visited_any:
            continue
        pot, parent, frontier, depth = {root: zero}, {}, [root], 0
        while frontier:
            if depth >= m_max:
                hit_depth_cap = True
                break
            depth += 1
            nxt = []
            for node in frontier:
                for e in graph.edges.get(node, []):
                    p_new = tuple(a + c for a, c in zip(pot[node], e.dn))
                    if e.dst not in pot:
                        pot[e.dst] = p_new
                        parent[e.dst] = (node, e)
                        nxt.append(e.dst)
                    elif pot[e.dst] != p_new:
                        viol = _object_violation(root, node, e, parent, graph)
                        if viol is not None:
                            return "fail", viol, {"mode": "cycle", "depth": depth}
            frontier = nxt
        visited_any.update(pot)
    stats = {"nodes_explored": len(visited_any), "depth_cap_hit": hit_depth_cap}
    return ("unknown_at_depth" if hit_depth_cap else "pass"), None, stats


def _object_violation(root, node, edge, parent, graph):
    def path_to(n):
        out = []
        while n in parent:
            n, e = parent[n]
            out.append(e)
        return out[::-1]

    def total(steps):
        return tuple(map(sum, zip(*(e.dn for e in steps))))

    fwd = path_to(node) + [edge]
    if edge.dst == root and any(total(fwd)):
        return WalkViolation(start=root, steps=fwd, total_dn=total(fwd))
    rev = []
    for e in reversed(path_to(edge.dst)):
        back = [c for c in graph.edges.get(e.dst, [])
                if c.dst == e.src and c.element == -e.element]
        if not back:
            return None
        rev.append(back[0])
    steps = fwd + rev
    if not any(total(steps)):
        return None
    return WalkViolation(start=root, steps=steps, total_dn=total(steps))


def box_resonance_graph(spec: ProblemSpec, box: Box) -> ResonanceGraph:
    """The resonance graph of the seed symbols on the characteristic sites
    found by tagging every site of the box with `branch_tags`, in the
    box's lexicographic order."""
    coords = enumerate_box_sites(spec.b, spec.d, box)
    tags, _ = branch_tags(coords, spec.omega0())
    coords, tags = coords[tags != 0], tags[tags != 0]
    links = resonance_links(box, coords, tags, seed_symbols(spec).supports(), spec.b)
    labels, order, bounds = ordered_components(len(coords), links[0], links[1])
    return ResonanceGraph(vertices=coords, tags=tags, links=links, labels=labels, order=order,
                          bounds=bounds)


def grid_lattice_in_box(spec: ProblemSpec, box: Box) -> np.ndarray:
    """The sites of Lambda in a box as `lattice_in_box` gives them, built as
    it was before its intervals: every c of the (2 n_radius + 1)^(b - 1)
    grid with sum c = 1 (`_lattice`), kept where the site lies in the box,
    then sorted lexicographically."""
    sites = _lattice(spec, -box.n_radius, box.n_radius)
    radii, _ = box_strides(spec.b, spec.d, box)
    sites = sites[np.all(np.abs(sites) <= radii, axis=1)]
    return sites[np.lexsort(sites.T[::-1])]


def _phase_base(mod2: np.ndarray, p: int, m: float):
    """(base, refresh) of the frozen loop's rotation e^{-i tau base}: after
    refresh(), base holds mod2 ** p + m (mod2 * mod2 for p = 2; m = 0 is
    not added).  For p = 1, m = 0 base is mod2 and refresh is None."""
    if p == 1 and not m:
        return mod2, None
    base = np.empty(mod2.shape)

    def refresh():
        b = mod2 if p == 1 else (np.multiply(mod2, mod2, base) if p == 2
                                 else np.power(mod2, p, base))
        if m:
            np.add(b, m, base)

    return base, refresh


def frozen_evolve_drift(u: SparseSeries, omega: FrequencyVector, spec: ProblemSpec,
                        T: float, dt: float) -> DriftReport:
    """`verify.evolve_drift` as it was before its stage was cut to the numpy
    call floor: each phase flow multiplies the real base by the complex
    scalar -i tau (numpy casts the base to complex) and exps in place, a
    closure refreshes |phi|^{2p} + m, and each stage swaps phi and the spare
    buffer by tuple.  The loop oracle compares every DriftReport field with
    it bit for bit."""
    terms = u.items()
    j0 = spec.j_list[0]
    rank, bmat, coords = _sub_torus([s.j for s, _ in terms], spec)
    if rank > 2:
        raise VerifyError(
            f"split-step validator needs a support of rank <= 2, got rank {rank}")
    max_c = int(np.abs(coords).max())
    m = max(16, 2 ** math.ceil(math.log2(2 * (2 * spec.p + 1) * max_c + 2)))
    if dt > 0.5:
        raise IntegratorInstability("dt too large for the phase rotation", 0.1)

    shape = (m,) * bmat.shape[1]
    freqs = np.meshgrid(*[np.fft.fftfreq(m, d=1.0 / m)] * len(shape), indexing="ij")
    jc = np.array(j0, dtype=float)[:, None] + bmat @ np.stack([f.ravel() for f in freqs])
    symbol = np.sum(jc * jc, axis=0).reshape(shape)
    flows = {a: _linear_propagator(symbol, a * dt).dot if len(shape) == 1
             else (lambda f, out, e=np.exp(-1j * symbol * (a * dt)):
                   np.fft.ifftn(np.fft.fftn(f) * e)) for a in set(S6_FREE)}
    tau1 = S6_PHASE[0] * dt
    inner = [(flows[a], -1j * (b * dt)) for a, b in zip(S6_FREE, S6_PHASE[1:-1])]
    fused, split = (inner + [(flows[S6_FREE[-1]], -1j * t)] for t in (2.0 * tau1, tau1))

    steps = int(round(T / dt))
    max_omega = max(1.0, max(abs(w) for w in omega.omega))
    max_interval = 0.5 * math.pi / max_omega
    sample_every = max(1, min(steps // 200, int(max_interval / dt)))
    times = np.array([0.0] + [s * dt for s in range(1, steps + 1)
                              if s % sample_every == 0 or s == steps])
    bins = np.ravel_multi_index(tuple((coords % m).T), shape)
    term_bins, mode_bins = bins[:len(terms)], bins[len(terms):]
    term_freqs = np.array([s.n for s, _ in terms], dtype=float) @ np.array(omega.omega)
    term_vals = np.array([v for _, v in terms], dtype=complex)

    phi = np.zeros(shape, dtype=complex)
    np.add.at(phi.reshape(-1), term_bins, term_vals)
    phi = np.fft.ifftn(phi) * phi.size
    snaps = np.empty((len(times),) + shape, dtype=complex)
    snaps[0] = phi
    spare, sq, rot = np.empty((3,) + shape, dtype=complex)
    mod2 = sq.real
    mul, conj, exp, add = np.multiply, np.conjugate, np.exp, np.add
    mul(phi, conj(phi, sq), sq)
    mass0 = float(add.reduce(mod2, None))
    base, refresh = _phase_base(mod2, spec.p, spec.phase_m)
    if refresh:
        refresh()
    mul(phi, exp(mul(base, -1j * tau1, rot), rot), phi)
    mass, sample = mass0, 1
    for step in range(1, steps + 1):
        sampled = step % sample_every == 0 or step == steps
        for flow, ntau in split if sampled else fused:
            phi, spare = flow(phi, spare), phi
            mul(phi, conj(phi, sq), sq)
            if refresh:
                refresh()
            mul(phi, exp(mul(base, ntau, rot), rot), phi)
        mass = float(add.reduce(mod2, None))
        if not math.isfinite(mass) or (
                mass0 > 0 and abs(mass - mass0) / mass0 > 1e-3):
            raise IntegratorInstability(
                f"mass drifted {abs(mass - mass0) / mass0:.2e} "
                f"at t={step * dt:.3f}", suggested_dt=dt / 4.0)
        if sampled:
            snaps[sample] = phi
            mul(phi, rot, phi)
            sample += 1

    ft = np.fft.fftn(snaps, axes=range(1, snaps.ndim)).reshape(len(times), -1) / phi.size
    modes = ft[:, mode_bins]
    field = np.zeros_like(ft)
    np.add.at(field, (slice(None), term_bins),
              term_vals * np.exp(1j * np.outer(times, term_freqs)))
    gaps = np.linalg.norm(ft - field, axis=1) / np.linalg.norm(field, axis=1)

    amps_a = np.hypot(modes.real, modes.imag)
    a0 = amps_a[0]
    amp_drift = float(np.max(np.abs(amps_a - a0) / np.maximum(a0, 1e-300)))
    expected = -np.outer(times, np.array(omega.omega))
    raw = np.arctan2(modes.imag, modes.real)
    phase_err = np.unwrap(raw - expected, axis=0) - (raw[0] - expected[0])
    phases_a = raw[0] + expected + phase_err
    mass_drift = abs(mass - mass0) / mass0 if mass0 > 0 else 0.0
    return DriftReport(times=times, mode_amps=amps_a, mode_phases=phases_a,
                       amp_drift=amp_drift, phase_error=phase_err,
                       mass_drift=mass_drift, trajectory_error=float(gaps.max()),
                       dt=dt, grid=m, rank=rank)


def tuple_convolve(f: SparseSeries, g: SparseSeries, drop_tol: float = DROP_TOL
                   ) -> SparseSeries:
    """`lattice.convolve` as it stood with sums keyed by flat n + j tuples."""
    f._check_compatible(g)
    out: Dict[Tuple[int, ...], complex] = {}
    g_terms = [(s.n + s.j, v) for s, v in g.items()]
    add = operator.add
    for s1, v1 in f.items():
        k1 = s1.n + s1.j
        for k2, v2 in g_terms:
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0j) + v1 * v2
    b = f.b
    return SparseSeries(b, f.d, {SiteIndex(k[:b], k[b:]): v for k, v in out.items()},
                        drop_tol=drop_tol)


def tuple_conv_power(f: SparseSeries, p: int, drop_tol: float = DROP_TOL) -> SparseSeries:
    """`lattice.conv_power` as it stood: the unit mass convolved p times."""
    out = delta_series(f.b, f.d, SiteIndex((0,) * f.b, (0,) * f.d))
    for _ in range(p):
        out = tuple_convolve(out, f, drop_tol=drop_tol)
    return out


def tuple_residual_series(u: SparseSeries, v: SparseSeries, omega: FrequencyVector,
                          spec: ProblemSpec) -> Tuple[SparseSeries, SparseSeries]:
    """`newton.residual_series` as it stood, on symbols built by the
    tuple-keyed convolution: delta g scaled, then the diagonal added."""
    uv = tuple_convolve(u, v)
    uv_p = tuple_convolve(tuple_conv_power(uv, spec.p - 1), uv)
    m = spec.phase_m

    def part(f: SparseSeries, sign: int) -> SparseSeries:
        diagonal = SparseSeries(f.b, f.d, {s: (sign * omega.dot(s.n) + s.jsq() + m) * val
                                           for s, val in f.items()}, drop_tol=0.0)
        return tuple_convolve(uv_p, f).scale(spec.delta).add(diagonal)

    return part(u, 1), part(v, -1)


def small_j_candidates(d: int, radius: int) -> Tuple[Tuple[int, ...], ...]:
    """Every j' with |j'|_inf <= radius, sorted by (l1 norm, j'), as the
    membership search's tuple list stood."""
    return tuple(sorted(itertools.product(range(-radius, radius + 1), repeat=d),
                        key=lambda jp: (sum(abs(x) for x in jp), jp)))


def full_small_j_table(d: int, radius: int) -> np.ndarray:
    """Every j' with |j'|_inf <= radius as one (count, d) int64 array sorted
    by (l1 norm, j'), built from the whole (2 radius + 1)^d grid, as the
    membership search's table stood before it was read in l1 blocks."""
    grid = np.indices((2 * radius + 1,) * d, dtype=np.int64).reshape(d, -1).T - radius
    return grid[np.lexsort((*grid.T[::-1], np.abs(grid).sum(axis=1)))]


def unique_ordered_components(n: int, rows: np.ndarray, cols: np.ndarray):
    """`ordered_components` with its labels numbered by `np.unique` over the
    `_min_labels` roots, as it stood before the cumulative count."""
    low, _ = _min_labels(n, rows, cols)
    _, labels = np.unique(low, return_inverse=True)
    order = np.argsort(labels, kind="stable")
    return labels, order, np.concatenate([[0], np.cumsum(np.bincount(labels))])


# ---------------------------------------------------------------------------
# The lifts of a membership witness and of a quotient walk, frozen


def frozen_kernel_shifts(w: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The n-shifts along the integer kernel of w tried when a j is lifted
    to a site: zero, then the kernel-basis combinations whose largest
    coefficient is 1, 2 and 3 in turn."""
    kernel = _intlinalg.kernel_basis([list(w)])
    shifts = [tuple(0 for _ in w)]
    for r in range(1, 4):
        for combo in itertools.product(range(-r, r + 1), repeat=len(kernel)):
            if max((abs(c) for c in combo), default=0) != r:
                continue
            shifts.append(tuple(sum(c * k[i] for c, k in zip(combo, kernel))
                                for i in range(len(w))))
    return tuple(shifts)


def frozen_complete_witness(jp, jpp, delta, w, eps1, eps2):
    """Find n' realizing s' = (n', jp) in the eps1 branch with s'' = s' - delta
    in the eps2 branch, or None: one solve_dot per call, the j = 0
    tie-break written out."""
    target = -eps1 * sum(a * a for a in jp)
    base = _intlinalg.solve_dot(w, target)
    if base is None:
        return None

    def ok(nvec) -> bool:
        n1 = nvec[0]
        if all(x == 0 for x in jp):
            if (eps1 == 1 and n1 > 0) or (eps1 == -1 and n1 <= 0):
                return False
        n2 = tuple(a - b for a, b in zip(nvec, delta.n))
        if all(x == 0 for x in jpp):
            if (eps2 == 1 and n2[0] > 0) or (eps2 == -1 and n2[0] <= 0):
                return False
        return True

    for sh in frozen_kernel_shifts(w):
        cand = tuple(a + b for a, b in zip(base, sh))
        if ok(cand):
            s1 = SiteIndex(cand, tuple(jp))
            return s1, s1 - delta
    return None


def frozen_lift_walk(viol: WalkViolation, omega0: FrequencyVector
                     ) -> Optional[List[SiteIndex]]:
    """Realize the quotient walk as a site chain on the variety, one
    candidate chain of sites at a time."""
    w = omega0.as_ints()
    j0 = viol.start.j
    target = -viol.start.branch * sum(x * x for x in j0)
    base = _intlinalg.solve_dot(w, target)
    if base is None:
        return None
    want = [viol.start.branch] + [e.dst.branch for e in viol.steps]
    for sh in frozen_kernel_shifts(w):
        n0 = tuple(a + c for a, c in zip(base, sh))
        sites = [SiteIndex(n0, j0)]
        for e in viol.steps:
            sites.append(sites[-1] + SiteIndex(e.dn, e.element.j))
        if [classify_site(s, omega0) for s in sites] == [TAG_CLASS[br] for br in want]:
            return sites
    return None


def _gather(coords: np.ndarray, copies: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            supports: Sequence[Sequence[SiteIndex]]) -> np.ndarray:
    """Where the entries of F' at the row vertices rows and the column
    vertices cols (index arrays that broadcast together) read: the position
    of their term in the terms of uv_p, uu and vv (supports) in turn, or -1
    for none.  An entry reads the symbol its two copies select at row site
    minus column site: uv_p between equal copies, uu from a u-row to a
    v-column and vv the other way."""
    keys = np.array([(kind,) + s.n + s.j for kind, sup in enumerate(supports) for s in sup],
                    dtype=np.int64).reshape(-1, 1 + coords.shape[1])
    r, c = copies[rows], copies[cols]
    kind = np.where(r == c, 0, np.where(r > 0, 1, 2))
    diff = np.take(coords, rows, axis=0) - np.take(coords, cols, axis=0)  # faster than [rows]
    query = np.concatenate([kind[..., None], diff], axis=-1)
    # Keys and queries numbered together: a query matches the key of its id.
    ids = row_keys(np.concatenate([keys, query.reshape(-1, keys.shape[1])]))
    by_id = np.argsort(ids[:len(keys)])
    codes, code = ids[:len(keys)][by_id], ids[len(keys):].reshape(query.shape[:-1])
    pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
    return np.where(codes[pos] == code, by_id[pos], -1)
