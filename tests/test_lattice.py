import math

import pytest
from hypothesis import given, settings, strategies as st

from nlsqp.lattice import (
    DROP_TOL,
    DimensionMismatch,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    SpecError,
    conjugate_flip,
    conv_power,
    convolve,
    delta_series,
    linear_solution,
    make_spec,
    site,
)


def max_abs(series) -> float:
    """The largest modulus of a series' terms, 0 for none."""
    return max((abs(x) for _, x in series.items()), default=0.0)


def naive_convolve(f: dict, g: dict) -> dict:
    """Reference convolution on raw dicts, independent of SparseSeries."""
    out = {}
    for s1, v1 in f.items():
        for s2, v2 in g.items():
            s = (tuple(a + b for a, b in zip(s1[0], s2[0])),
                 tuple(a + b for a, b in zip(s1[1], s2[1])))
            out[s] = out.get(s, 0j) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def as_dict(f: SparseSeries) -> dict:
    return {(s.n, s.j): v for s, v in f.items()}


def test_linear_solution_tp1():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.5])
    u0, v0 = linear_solution(spec)
    assert as_dict(u0) == {((-1,), (2,)): 0.5}
    assert as_dict(v0) == {((1,), (-2,)): 0.5}


def test_linear_solution_two_modes():
    spec = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2], amplitudes=[0.3, 0.4])
    u0, _ = linear_solution(spec)
    assert set(as_dict(u0)) == {((-1, 0), (1,)), ((0, -1), (2,))}


def test_spec_rejects_zero_amplitude():
    with pytest.raises(SpecError):
        make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.0])


def test_spec_rejects_zero_and_duplicate_modes():
    with pytest.raises(SpecError, match="mode 0"):
        make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[0], amplitudes=[0.5])
    with pytest.raises(SpecError, match="duplicate"):
        make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[2, 2], amplitudes=[0.5, 0.5])


def test_convolve_single_terms():
    f = delta_series(1, 1, site((1,), (2,)), 2.0)
    g = delta_series(1, 1, site((3,), (-1,)), 0.5 + 1j)
    out = convolve(f, g)
    assert as_dict(out) == {((4,), (1,)): 2.0 * (0.5 + 1j)}


def test_convolve_tp1_uv():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7])
    u0, v0 = linear_solution(spec)
    uv = convolve(u0, v0)
    assert as_dict(uv) == {((0,), (0,)): pytest.approx(0.49)}


def test_convolve_tp2_uv_hand_oracle(tp2):
    u0, v0 = linear_solution(tp2)
    got = as_dict(convolve(u0, v0))
    expected = naive_convolve(as_dict(u0), as_dict(v0))
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == pytest.approx(expected[k])
    a1, a2 = 0.6, 0.8
    assert got[((0, 0), (0,))] == pytest.approx(a1 * a1 + a2 * a2)
    assert got[((-1, 1), (-1,))] == pytest.approx(a1 * a2)
    assert got[((1, -1), (1,))] == pytest.approx(a1 * a2)


def test_conv_power_zero_is_unit():
    f = delta_series(1, 1, site((1,), (1,)), 3.0)
    out = conv_power(f, 0)
    assert as_dict(out) == {((0,), (0,)): 1.0}


def test_conv_power_point_mass():
    f = delta_series(1, 1, site((0,), (0,)), 0.49)
    assert as_dict(conv_power(f, 2)) == {((0,), (0,)): pytest.approx(0.49 ** 2)}


def test_conv_power_tp2_square_at_origin(tp2):
    u0, v0 = linear_solution(tp2)
    uv = convolve(u0, v0)
    sq = conv_power(uv, 2)
    a1, a2 = 0.6, 0.8
    expected = (a1 ** 2 + a2 ** 2) ** 2 + 2 * a1 ** 2 * a2 ** 2
    assert sq[site((0, 0), (0,))].real == pytest.approx(expected)


def test_conjugate_flip_examples():
    f = delta_series(1, 1, site((-1,), (2,)), 0.5)
    assert as_dict(conjugate_flip(f)) == {((1,), (-2,)): 0.5}
    g = delta_series(1, 1, site((2,), (1,)), 1j)
    assert as_dict(conjugate_flip(g)) == {((-2,), (-1,)): -1j}


def test_conjugate_flip_involution(tp2):
    u0, _ = linear_solution(tp2)
    assert as_dict(conjugate_flip(conjugate_flip(u0))) == as_dict(u0)


def test_reality_pairing(tp2):
    u0, v0 = linear_solution(tp2)
    for s, val in u0.items():
        assert v0[-s] == val.conjugate()


def test_dimension_mismatch():
    f = delta_series(1, 1, site((1,), (1,)))
    g = delta_series(2, 1, site((1, 0), (1,)))
    with pytest.raises(DimensionMismatch):
        convolve(f, g)


def test_drop_tolerance_removes_cancellation_noise():
    s0 = site((0,), (0,))
    f = SparseSeries(1, 1, {site((1,), (0,)): 1.0, site((-1,), (0,)): -1.0})
    g = SparseSeries(1, 1, {site((1,), (0,)): 1.0, site((-1,), (0,)): 1.0})
    out = convolve(f, g)
    assert s0 not in out  # exact cancellation never leaves a zero entry


# -- property tests ---------------------------------------------------------

sites_1d = st.tuples(st.integers(-4, 4), st.integers(-3, 3))
amps = st.complex_numbers(min_magnitude=0.01, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False)


def series_strategy():
    return st.dictionaries(sites_1d, amps, min_size=1, max_size=5).map(
        lambda d: SparseSeries(1, 1, {site((n,), (j,)): v for (n, j), v in d.items()},
                               drop_tol=0.0))


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_convolution_commutative(f, g):
    fg, gf = convolve(f, g, drop_tol=0.0), convolve(g, f, drop_tol=0.0)
    assert fg.support() == gf.support()
    for s in fg.support():
        assert abs(fg[s] - gf[s]) <= 1e-12 * max(1.0, abs(fg[s]))


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_convolution_associative(f, g, h):
    left = convolve(convolve(f, g, drop_tol=0.0), h, drop_tol=0.0)
    right = convolve(f, convolve(g, h, drop_tol=0.0), drop_tol=0.0)
    scale = max(max_abs(left), max_abs(right), 1.0)
    for s in set(left.support()) | set(right.support()):
        assert abs(left[s] - right[s]) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_support_subset_of_sumset(f, g):
    sumset = {s1 + s2 for s1 in f.support() for s2 in g.support()}
    assert set(convolve(f, g).support()) <= sumset


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_flip_is_convolution_homomorphism(f, g):
    left = conjugate_flip(convolve(f, g, drop_tol=0.0))
    right = convolve(conjugate_flip(f), conjugate_flip(g), drop_tol=0.0)
    scale = max(max_abs(left), 1.0)
    for s in set(left.support()) | set(right.support()):
        assert abs(left[s] - right[s]) <= 1e-12 * scale


def pairwise_convolve(f, g, drop_tol):
    """The SiteIndex-keyed double loop over the sorted terms that
    `convolve` must reproduce bit for bit."""
    out = {}
    for s1, v1 in f.items():
        for s2, v2 in g.items():
            s = s1 + s2
            out[s] = out.get(s, 0j) + v1 * v2
    return SparseSeries(f.b, f.d, out, drop_tol=drop_tol)


@st.composite
def series_pairs(draw):
    # Coordinates in {-1, 0, 1} make many pairs of terms land on one site,
    # and amplitudes of +-1, +-1/2 i and 1e-15 make exact cancellations and
    # entries below the drop threshold common.
    b, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coord = st.integers(-1, 1)
    sites = st.tuples(st.tuples(*[coord] * b), st.tuples(*[coord] * d))
    amp = st.one_of(st.sampled_from([1.0, -1.0, 0.5j, -0.5j, 1e-15, 3.0 - 2.0j]), amps)

    def series():
        return draw(st.dictionaries(sites, amp, min_size=1, max_size=6).map(
            lambda t: SparseSeries(b, d, {SiteIndex(n, j): complex(v) for (n, j), v in t.items()},
                                   drop_tol=0.0)))

    return series(), series()


def bits(f):
    return [(s, v.real.hex(), v.imag.hex()) for s, v in f.items()]


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_convolve_is_bitwise_the_pairwise_siteindex_loop(pair):
    f, g = pair
    for drop_tol in (0.0, DROP_TOL):
        assert bits(convolve(f, g, drop_tol=drop_tol)) == \
            bits(pairwise_convolve(f, g, drop_tol))


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_items_and_support_are_the_sorted_terms_after_every_operation(pair):
    # A series sorts its terms once and keeps them: every read, before and
    # after the others, gives the sorted terms and a fresh list, on
    # convolved, added, scaled, restricted and flipped series alike.
    f, g = pair
    h = convolve(f, g)
    for series in (h, conv_power(f, 2), f.add(g), h.add(f), f.scale(0.5j), h.scale(-2.0),
                   h.restrict(g.support() + h.support()[::2]), conjugate_flip(h)):
        want = sorted(series._terms.items())
        for _ in range(2):
            items, support = series.items(), series.support()
            assert items == want and support == [s for s, _ in want]
            items.clear()
            support.clear()
        assert list(series) == [s for s, _ in want]
        assert series.norm2() == sum(abs(v) ** 2 for _, v in want) ** 0.5


@pytest.mark.parametrize("b, d", [(1, 1), (2, 2), (3, 1), (1, 3), (3, 3)])
def test_convolve_keeps_the_summation_order_of_the_pairwise_loop(b, d):
    # Random amplitudes on a small cube: many sites collect three or more
    # products, whose rounded sum depends on the order of the terms (the
    # reversed loop gives other bits), and convolve matches the loop's.
    import numpy as np
    rng = np.random.default_rng(b * 10 + d)
    sites = [SiteIndex(tuple(x[:b]), tuple(x[b:]))
             for x in rng.integers(-1, 2, size=(12, b + d)).tolist()]
    f, g = (SparseSeries(b, d, {s: complex(*rng.standard_normal(2)) for s in sites})
            for _ in range(2))
    assert bits(convolve(f, g)) == bits(pairwise_convolve(f, g, DROP_TOL))
    out = {}
    for s1, v1 in reversed(f.items()):
        for s2, v2 in g.items():
            out[s1 + s2] = out.get(s1 + s2, 0j) + v1 * v2
    assert bits(SparseSeries(b, d, out)) != bits(convolve(f, g))


# -- packed site keys against the tuple-keyed convolution --------------------

# Values with a signed zero part, exact ones, one below the drop threshold
# and random ones; a series holds no exact zero, so a signed zero can only
# sit in a real or imaginary part.
SIGNED_AMPS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5j, -0.5j, complex(1.0, -0.0), complex(-0.0, 2.0),
                     complex(-1.5, 0.0), complex(-0.0, -0.25), 1e-15, 3.0 - 2.0j]),
    amps)


@st.composite
def packed_series_pairs(draw, max_coord=2 ** 40):
    # Coordinates come from a small pool holding huge values next to -1, 0
    # and 1, so products land on shared sites with coordinates up to +-2^40.
    b = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5 - b))
    pool = draw(st.lists(st.integers(-max_coord, max_coord), min_size=1, max_size=3))
    coord = st.sampled_from([-1, 0, 1, *pool])
    sites = st.tuples(st.tuples(*[coord] * b), st.tuples(*[coord] * d))

    def series():
        terms = draw(st.dictionaries(sites, SIGNED_AMPS, max_size=6))
        return SparseSeries(b, d, {SiteIndex(n, j): complex(v) for (n, j), v in terms.items()},
                            drop_tol=0.0)

    return series(), series()


def full_bits(f):
    """Value bits in items() order, then the _terms insertion order."""
    return bits(f), list(f._terms)


@settings(max_examples=200, deadline=None)
@given(packed_series_pairs())
def test_convolve_is_bitwise_the_tuple_keyed_convolve(pair):
    from oracles import tuple_convolve
    f, g = pair
    for drop_tol in (0.0, DROP_TOL):
        assert full_bits(convolve(f, g, drop_tol=drop_tol)) == \
            full_bits(tuple_convolve(f, g, drop_tol=drop_tol))


@settings(max_examples=100, deadline=None)
@given(packed_series_pairs(), st.integers(0, 3))
def test_conv_power_is_bitwise_the_unit_mass_convolved(pair, p):
    from oracles import tuple_conv_power
    f, _ = pair
    for drop_tol in (0.0, DROP_TOL):
        assert full_bits(conv_power(f, p, drop_tol=drop_tol)) == \
            full_bits(tuple_conv_power(f, p, drop_tol=drop_tol))


@settings(max_examples=100, deadline=None)
@given(packed_series_pairs(), st.integers(1, 2), st.booleans(),
       st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.25, -1.0]))
def test_residual_series_is_bitwise_the_scaled_add(pair, p, integral, shift, phase_m):
    # An integral omega makes exact zeros of the diagonal common.
    from nlsqp.lattice import FrequencyVector
    from nlsqp.newton import residual_series
    from oracles import tuple_residual_series
    u, v = pair
    b, d = u.b, u.d
    spec = ProblemSpec(d=d, b=b, p=p, delta=1e-3, phase_m=phase_m,
                       modes=tuple(((k + 1,) + (0,) * (d - 1), 0.5) for k in range(b)))
    omega = FrequencyVector(tuple(float(k + 1) + (0.0 if integral else shift) for k in range(b)))
    for got, want in zip(residual_series(u, v, omega, spec),
                         tuple_residual_series(u, v, omega, spec)):
        assert full_bits(got) == full_bits(want)


def test_convolve_refuses_a_coordinate_outside_the_field_range():
    from nlsqp.lattice import FIELD_LIMIT, LatticeError
    near = SparseSeries(1, 1, {site((FIELD_LIMIT - 1,), (0,)): 1.0})
    assert convolve(near, delta_series(1, 1, site((0,), (-FIELD_LIMIT + 1,)))).support() == \
        [site((FIELD_LIMIT - 1,), (-FIELD_LIMIT + 1,))]
    with pytest.raises(LatticeError, match="2\\^62"):  # an operand out of range
        convolve(delta_series(1, 1, site((0,), (FIELD_LIMIT,))), near)
    with pytest.raises(LatticeError, match="2\\^62"):  # a product out of range
        convolve(near, near)
