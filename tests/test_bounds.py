import hashlib

import mpmath
import numpy as np
import pytest
import scipy.optimize
from conftest import (
    NoSignChange,
    all_candidates_ceiling,
    alpha_werner_gap,
    binary_entropy,
    find_crossover,
    linear_entropy,
    two_param_q_edge_limit,
    two_param_q_four_term,
    werner_pure_gap,
)

from qdiscord import bounds
from qdiscord.bounds import (
    PIMPLE_SL,
    _ZERO_EOF_BOUND,
    SampleBatch,
    _alpha_q,
    entropy_upper,
    eof_to_concurrence,
    horn_crossovers,
    horn_lower,
    horn_upper,
    _SWEEP_RANGES,
    sample_near_boundary,
    sample_random,
    split_at_pimple,
    sweep_family,
    verify_bounds,
)
from qdiscord.measures import (
    alpha_discord,
    beta_discord,
    discord_analytic,
    discord_batch,
    discord_numeric,
    eof_from_concurrence,
    two_param_q,
    werner_discord,
)
from qdiscord.states import Family, ParamOutOfRange, make_family

_REF_POINTS = 20001  # dense scan of each feasible piece of the contour
_REF_ZOOM_POINTS = 1001
_REF_EDGE_GAP = 1e-6  # interior points keep 1 - a - b this far from the edge


def _reference_values(a, target):
    """min{a, q} on the contour Tr rho^2 = target, from the four-term q, at
    points at least _REF_EDGE_GAP inside the edge (-inf elsewhere), where
    its cancellation costs at most ~1e-10."""
    om = 1 - a
    b = np.sqrt(np.clip(2 * target - 2 * a * a - om * om, 0.0, None))
    ok = om - b >= _REF_EDGE_GAP
    return np.where(ok, np.minimum(a, two_param_q_four_term(a, b)), -np.inf)


def reference_envelope(sl):
    """Independent sl-q envelope: max of min{a, q} over the contour at S_L.

    For T = 1 - 3 S_L / 4 >= 1/2 the contour meets the edge |b| = 1 - a at
    a = (1 +- sqrt(2 T - 1))/2, which splits it into two feasible pieces;
    those points take the closed-form edge limit of q. Each piece is
    scanned on _REF_POINTS points, and every local maximum is zoomed on
    _REF_ZOOM_POINTS points until its bracket is below 1e-12. The edge limit
    loses digits as a -> 1, so the reference holds to 1e-9 for S_L >= 1e-6
    (it is 1.1e-9 off at S_L = 1e-7).
    """
    target = 1 - 0.75 * sl
    root = np.sqrt(max(6 * target - 2, 0.0))
    a_lo, a_hi = max(0.0, (1 - root) / 3), (1 + root) / 3
    pieces, best = [(a_lo, a_hi)], -np.inf
    if 2 * target - 1 >= 0:
        w = np.sqrt(2 * target - 1)
        edges = [(1 - w) / 2, (1 + w) / 2]
        pieces = [(a_lo, edges[0]), (edges[1], a_hi)]
        for e in edges:
            if 0 < e < 1:
                best = max(best, min(e, float(two_param_q_edge_limit(e))))
            else:  # the pure corners (0, 1) and (1, 0), where q = a
                best = max(best, e)
    for p0, p1 in pieces:
        a = np.linspace(p0, p1, _REF_POINTS)
        f = _reference_values(a, target)
        pad = np.concatenate([[-np.inf], f, [-np.inf]])
        for i in np.flatnonzero(np.isfinite(f) & (f >= pad[:-2]) & (f >= pad[2:])):
            lo, hi = a[max(i - 1, 0)], a[min(i + 1, len(a) - 1)]
            best = max(best, f[i])
            while hi - lo > 1e-12:
                z = np.linspace(lo, hi, _REF_ZOOM_POINTS)
                fz = _reference_values(z, target)
                j = int(np.argmax(fz))
                best = max(best, fz[j])
                step = (hi - lo) / (_REF_ZOOM_POINTS - 1)
                lo, hi = max(p0, z[j] - step), min(p1, z[j] + step)
    return best


# where the largest candidate changes (the junctions of entropy_upper's
# bands): edge point -> interior peak of q, peak -> b = 0 end, b = 0 end ->
# a = q kink, and the 8/9 end of the kink
BAND_EDGES = (bounds._S_EP, bounds._S_PB, bounds._S_K, PIMPLE_SL)
# the edge point of S_L = 0.6595, a fine grid over the near tie of the
# a = q kink and the b = 0 end, dense grids over the interior peak's band
# and the kink's band, and points within 1e-6 of each band edge
ENVELOPE_SLS = np.concatenate(
    [
        np.linspace(0, PIMPLE_SL, 201),
        [0.6595],
        np.linspace(0.832, 0.834, 401),
        np.linspace(0.665, 0.7095, 90),
        np.linspace(0.8326, PIMPLE_SL, 60),
        [e + d for e in BAND_EDGES for d in (-1e-6, -1e-7, 0.0, 1e-7, 1e-6)
         if e + d <= PIMPLE_SL],
    ]
)


class TestHornBounds:
    def test_upper_endpoints(self):
        # the E=0 edge is set by the separable alpha slice, peaking at the
        # pimple state (alpha = 1/3) with Q = 1/3
        assert horn_upper(0.0) == pytest.approx(1 / 3, abs=1e-9)
        assert horn_upper(1.0) == pytest.approx(1.0)

    def test_upper_alpha_branch_start(self):
        # just off the axis the bound continues from the alpha = 1/2 value
        assert horn_upper(1e-9) == pytest.approx(0.311278, abs=1e-4)

    def test_lower_endpoints(self):
        assert horn_lower(0.0) == 0.0
        assert horn_lower(1.0) == pytest.approx(1.0)

    def test_lower_at_c_half(self):
        e = eof_from_concurrence(0.5)
        assert horn_lower(e) == pytest.approx(1 - binary_entropy(0.75), abs=1e-10)
        assert horn_lower(e) == pytest.approx(0.188722, abs=1e-6)

    def test_upper_dominates_lower(self):
        for e in np.linspace(0, 1, 101):
            assert horn_upper(e) >= horn_lower(e) - 1e-9

    def test_gap_closes_at_one(self):
        assert horn_upper(1.0) - horn_lower(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_lower_monotone(self):
        vals = [horn_lower(e) for e in np.linspace(0, 1, 201)]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_pure_branch_is_identity(self):
        _, _, e_wp = horn_crossovers()
        for e in np.linspace(e_wp + 0.01, 1.0, 20):
            assert horn_upper(e) == float(e)

    def test_branches_stitch_continuously(self):
        e_aw, _, e_wp = horn_crossovers()
        for e in (e_aw, e_wp):
            assert abs(horn_upper(e - 1e-7) - horn_upper(e + 1e-7)) < 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            horn_upper(1.2)
        with pytest.raises(ValueError):
            horn_lower(-0.1)
        with pytest.raises(ValueError):
            horn_upper(np.array([0.5, np.nan]))

    def test_zero_eof_bound_dominates_separable_alpha(self):
        # the maximum sits at the kink alpha = 1/3, where zeta changes branch
        top = _ZERO_EOF_BOUND
        assert top == pytest.approx(1 / 3, abs=1e-15)
        grid = np.concatenate([np.linspace(0, 0.5, 100001), [1 / 3]])
        assert top >= np.max(alpha_discord(grid)[0])


class TestCrossovers:
    def test_alpha_werner(self):
        e_aw, q_aw, _ = horn_crossovers()
        assert e_aw == pytest.approx(0.620, abs=0.01)
        assert q_aw == pytest.approx(0.644, abs=0.01)

    def test_werner_pure(self):
        _, _, e_wp = horn_crossovers()
        assert e_wp == pytest.approx(0.746, abs=0.01)

    @pytest.mark.parametrize(
        "gap,lo,hi,derive,pinned",
        [
            (
                alpha_werner_gap,
                0.6,
                0.9,
                lambda c: (eof_from_concurrence(c), _alpha_q(c)),
                slice(0, 2),
            ),
            (
                werner_pure_gap,
                0.8,
                0.95,
                lambda c: (eof_from_concurrence(c),),
                slice(2, 3),
            ),
        ],
        ids=["alpha-werner", "werner-pure"],
    )
    def test_bisection_matches_scipy_bit_for_bit(self, gap, lo, hi, derive, pinned):
        # the junctions are float literals; bisecting the closed-form branch
        # gap in concurrence, as they were first found, gives the same bits
        c = scipy.optimize.bisect(gap, lo, hi, xtol=1e-13)
        assert [float(v).hex() for v in horn_crossovers()[pinned]] == [
            float(v).hex() for v in derive(c)
        ]

    def test_find_crossover_matches(self):
        c_a = sweep_family("alpha", "eof-q", 512)
        c_w = sweep_family("werner", "eof-q", 128)
        x, y = find_crossover(c_a, c_w)
        e_aw, q_aw, _ = horn_crossovers()
        assert x == pytest.approx(e_aw, abs=1e-3)
        assert y == pytest.approx(q_aw, abs=1e-3)

    def test_werner_pure_via_curves(self):
        c_w = sweep_family("werner", "eof-q", 128)
        c_p = sweep_family("pure", "eof-q", 512)
        x, _ = find_crossover(c_w, c_p)
        assert x == pytest.approx(0.746, abs=0.01)

    def test_identical_curves_raise(self):
        c = sweep_family("beta", "eof-q", 64)
        with pytest.raises(NoSignChange):
            find_crossover(c, c)


class TestSweep:
    def test_beta_endpoint_bell(self):
        c = sweep_family("beta", "eof-q", 33)
        assert c.xs[-1] == pytest.approx(1.0)
        assert c.ys[-1] == pytest.approx(1.0)

    def test_alpha_start(self):
        c = sweep_family("alpha", "eof-q", 33)
        assert c.xs[0] == pytest.approx(0.0)
        assert c.ys[0] == pytest.approx(0.311278, abs=1e-6)

    def test_two_param_pimple_endpoint(self):
        c = sweep_family("twoparam", "sl-q", 33)
        assert c.xs[-1] == pytest.approx(8 / 9, abs=1e-12)
        assert c.ys[-1] == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize(
        "kind,plane",
        [
            ("alpha", "eof-q"),
            ("beta", "eof-q"),
            ("werner", "eof-q"),
            ("pure", "eof-q"),
            ("werner", "sl-q"),
            ("twoparam", "sl-q"),
            ("alpha", "sl-q"),
        ],
    )
    def test_x_increasing(self, kind, plane):
        c = sweep_family(kind, plane, 65)
        assert np.all(np.diff(c.xs) > -1e-15)

    @pytest.mark.parametrize("kind,plane", list(_SWEEP_RANGES))
    def test_matches_records_of_its_states(self, kind, plane):
        # each point is the (x, Q) of the numeric record of its own state:
        # x is S_L on sl-q and EoF on eof-q; twoparam is swept at b = 0
        c = sweep_family(kind, plane, 33)
        b = 0.0 if kind == "twoparam" else None
        recs = discord_batch([make_family(Family(kind, float(p), b)) for p in c.params])
        x = [r.linear_entropy if plane == "sl-q" else r.eof for r in recs]
        assert np.max(np.abs(c.xs - x)) <= 1e-12
        assert np.max(np.abs(c.ys - [r.discord for r in recs])) <= 1e-9

    def test_werner_sl_relation(self):
        c = sweep_family("werner", "sl-q", 65)
        for p, x in zip(c.params, c.xs):
            assert x == pytest.approx(1 - p * p, abs=1e-12)

    def test_point_self_consistency(self):
        # regenerating each point from its stored parameter reproduces (x, y)
        c = sweep_family("beta", "eof-q", 33)
        for p, x, y in zip(c.params, c.xs, c.ys):
            fam = Family("beta", float(p))
            assert eof_from_concurrence(abs(2 * p - 1)) == pytest.approx(x, abs=1e-9)
            assert discord_analytic(fam).value == pytest.approx(y, abs=1e-9)

    def test_resolution_check(self):
        with pytest.raises(ValueError):
            sweep_family("beta", "eof-q", 1)


class TestEntropyUpper:
    def test_endpoints(self):
        assert entropy_upper(0.0) == pytest.approx(1.0, abs=1e-9)
        assert entropy_upper(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_pimple(self):
        assert entropy_upper(8 / 9) == pytest.approx(1 / 3, abs=1e-6)

    def test_pimple_rise(self):
        # discord increases with entropy approaching the pimple from the left
        assert entropy_upper(8 / 9) > entropy_upper(8 / 9 - 0.05)

    def test_envelope_at_mid(self):
        # envelope must dominate the b = 0 slice it contains
        c = sweep_family("twoparam", "sl-q", 65)
        for x, y in zip(c.xs[::8], c.ys[::8]):
            assert entropy_upper(float(x)) >= y - 1e-9

    def test_two_param_max_entropy(self):
        # Tr rho^2 = a^2 + ((1-a)^2 + b^2)/2 >= 1/3, equality only at (1/3, 0)
        a, b = np.meshgrid(np.linspace(0, 1, 201), np.linspace(-1, 1, 201))
        mask = np.abs(b) <= 1 - a
        pur = a**2 + ((1 - a) ** 2 + b**2) / 2
        assert pur[mask].min() >= 1 / 3 - 1e-12
        i = np.argmin(np.where(mask, pur, np.inf))
        assert a.ravel()[i] == pytest.approx(1 / 3, abs=0.01)
        assert b.ravel()[i] == pytest.approx(0.0, abs=0.01)

    def test_envelope_matches_dense_reference(self):
        got = entropy_upper(ENVELOPE_SLS)
        ref = np.array([reference_envelope(x) for x in ENVELOPE_SLS])
        assert np.max(np.abs(got - ref)) <= 1e-9

    def test_envelope_reaches_the_edge_points(self):
        # for S_L <= 2/3 the contour meets the edge |b| = 1 - a at
        # a = (1 +- sqrt(1 - 3 S_L / 2))/2; the envelope holds those points
        # to round-off, down to S_L -> 0 where q is steepest there
        sls = np.concatenate([np.logspace(-12, np.log10(2 / 3), 61), [2 / 3]])
        env = entropy_upper(sls)
        w = np.sqrt(1 - 1.5 * sls)
        for a in ((1 - w) / 2, (1 + w) / 2):
            assert np.all(env >= np.minimum(a, two_param_q(a, 1 - a)) - 1e-14)

    def test_werner_ceiling_above_pimple(self):
        xs = np.linspace(PIMPLE_SL, 1, 101)[1:]
        assert np.array_equal(entropy_upper(xs), werner_discord(np.sqrt(1 - xs)))

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_upper(1.5)


def _doubles_around(x, n):
    """The n doubles either side of the positive double x, and x."""
    return (np.float64(x).view(np.int64) + np.arange(-n, n + 1)).view(np.float64)


def _first_double(holds, lo, hi):
    """The first double in (lo, hi] at which holds(x) is true, by bisection
    over the doubles between lo, where it is false, and hi, where it is true.
    """
    assert not holds(lo) and holds(hi)
    i, j = np.float64(lo).view(np.int64), np.float64(hi).view(np.int64)
    while j - i > 1:
        m = (i + j) // 2
        if holds(float(m.view(np.float64))):
            j = m
        else:
            i = m
    return float(j.view(np.float64))


def _edge_point_value(sl):
    """min{a, q} at the upper edge point of the contour at sl <= 2/3."""
    e_hi = (1.0 + np.sqrt(1.0 - 1.5 * sl)) / 2.0
    return min(e_hi, two_param_q(e_hi, 1.0 - e_hi))


def _a_hi(sl):
    """The b = 0 end of the contour's window at sl."""
    return (1.0 + np.sqrt(4.0 - 3.0 * (1.5 * sl))) / 3.0


def _b0_end_value(sl):
    """min{a, q} at the b = 0 end of the contour at sl."""
    a = _a_hi(sl)
    return min(a, two_param_q(a, 0.0))


def _ceiling(sl):
    return float(all_candidates_ceiling(sl)[0])


class TestSlJunctions:
    """The bands of entropy_upper and the float literals that split them."""

    @pytest.mark.parametrize(
        "junction,holds,lo,hi",
        [
            # the interior peak beats the upper edge point
            ("_S_EP", lambda x: _ceiling(x) > _edge_point_value(x), 0.66, 0.666),
            # the peak's sign test fails: dq/da >= 0 at a_hi, where b = 0 up
            # to round-off, so q does not fall towards a_hi
            (
                "_S_PB",
                lambda x: bounds._contour_slope(
                    _a_hi(x), bounds._contour_b(_a_hi(x), 1.5 * x)
                ) >= 0,
                0.70,
                0.72,
            ),
            # the a = q kink beats the b = 0 end
            ("_S_K", lambda x: _ceiling(x) > _b0_end_value(x), 0.82, 0.84),
        ],
    )
    def test_bisection_matches_the_literals(self, junction, holds, lo, hi):
        # the junctions are float literals; bisecting, over the doubles,
        # where all the candidates change their winner gives the same bits
        assert _first_double(holds, lo, hi).hex() == getattr(bounds, junction).hex()

    def test_junction_table(self):
        # the three literals, then the double after 8/9, where Werner starts
        assert bounds._SL_JUNCTIONS.tolist() == [
            bounds._S_EP, bounds._S_PB, bounds._S_K, np.nextafter(PIMPLE_SL, 1)
        ]

    def test_bands_match_all_candidates(self):
        # every S_L reads the bits of the evaluation of all candidates: on a
        # seeded uniform set, on log-uniform S_L down to subnormals (below
        # about 1e-14 the edge point and a_hi tie to an ulp), and on the 500
        # doubles either side of each junction and of 8/9
        rng = np.random.default_rng(2210)
        junctions = [*bounds._SL_JUNCTIONS, PIMPLE_SL]
        near = np.concatenate([_doubles_around(j, 500) for j in junctions])
        sls = np.concatenate(
            [rng.uniform(0, 1, 20000), 10.0 ** rng.uniform(-320, 0, 2000), [0.0, 1.0], near]
        )
        ref = all_candidates_ceiling(sls)
        assert np.array_equal(entropy_upper(sls), ref)
        # scalar calls, on the junction doubles and a share of the rest
        some = np.concatenate([sls[:1000], sls[20000:20200], near])
        scalar = np.array([entropy_upper(float(x)) for x in some])
        assert np.array_equal(scalar, all_candidates_ceiling(some))

    def test_kink_band_lower_window_end_never_wins(self):
        # in the kink band both window ends lie at b = 0, and min{a, q} at
        # the lower end a_lo never beats it at a_hi, so the band does not
        # evaluate a_lo: on a dense grid, the 10 000 doubles below 8/9 and
        # the doubles either side of _S_K
        sls = np.concatenate(
            [
                np.linspace(bounds._S_K, PIMPLE_SL, 200001),
                (np.float64(PIMPLE_SL).view(np.int64) - np.arange(10000)).view(np.float64),
                _doubles_around(bounds._S_K, 500),
            ]
        )
        root = np.sqrt(np.maximum(4.0 - 3.0 * (1.5 * sls), 0.0))
        a_lo, a_hi = (1.0 - root) / 3.0, (1.0 + root) / 3.0
        lower = np.minimum(a_lo, two_param_q(a_lo, 0.0))
        assert np.all(lower <= np.minimum(a_hi, two_param_q(a_hi, 0.0)))


def _bisected_kink(sl):
    """The a = q kink on the lower arc of the contour at each S_L > 2/3,
    bisected over the doubles of a between a_lo and the top 1/3: (the first
    double a at which a >= q, min{a, q} there or at the double before,
    whichever is larger, and whether a - q changes sign on the arc)."""
    c = 1.5 * np.asarray(sl, dtype=float)
    lo = (1.0 - np.sqrt(np.maximum(4.0 - 3.0 * c, 0.0))) / 3.0
    hi = np.full_like(c, 1 / 3)

    def q(a):
        return two_param_q(a, np.sqrt(np.maximum((1.0 - a) * (1.0 + 3.0 * a) - c, 0.0)))

    ok = (lo - q(lo) < 0) & (hi - q(hi) >= 0)
    i, j = lo.view(np.int64), hi.view(np.int64)
    while np.any(j - i > 1):
        m = (i + j) // 2
        a = m.view(np.float64)
        left = a - q(a) < 0
        i, j = np.where(left, m, i), np.where(left, j, m)
    a = j.view(np.float64)
    return a, np.maximum(i.view(np.float64), np.minimum(a, q(a))), ok


class TestKinkTable:
    """The kink band's tabulated abscissa against a kink bisected over the
    doubles."""

    def test_band_within_budget_of_the_bisected_kink(self):
        # uniform S_L of the band and the 2 001 doubles at each of its ends;
        # the contour of 8/9 itself is the single point a = 1/3, where the
        # band returns exactly 1/3 (TestBitPins)
        rng = np.random.default_rng(24)
        sls = np.concatenate(
            [
                rng.uniform(bounds._S_K, PIMPLE_SL, 46000),
                _doubles_around(bounds._S_K, 2000)[2000:],
                _doubles_around(PIMPLE_SL, 2000)[:2001],
            ]
        )
        a = bounds._kink_a(sls)
        lower_arc = (1.0 - np.sqrt(4.0 - 3.0 * (1.5 * sls))) / 3.0
        assert np.all((a >= lower_arc) & (a <= 1 / 3))
        _, kink, ok = _bisected_kink(sls)
        assert np.count_nonzero(~ok) == 1 and sls[~ok][0] == PIMPLE_SL
        gap = entropy_upper(sls[ok]) - kink[ok]
        assert gap.min() >= -2e-15 and gap.max() <= 1e-15

    def test_kink_does_not_beat_the_ceiling_below_the_band(self):
        # below _S_K the band leaves the kink out: on (2/3, _S_K) and the
        # 2 000 doubles below _S_K, where a_hi and the kink tie to ulps, it
        # is not above the ceiling by more than the band's budget
        rng = np.random.default_rng(25)
        sls = np.concatenate(
            [
                rng.uniform(2 / 3, bounds._S_K, 10000),
                _doubles_around(bounds._S_K, 2000)[:2000],
            ]
        )
        _, kink, ok = _bisected_kink(sls)
        assert np.all(ok)
        assert np.all(kink <= entropy_upper(sls) + 1e-15)

    def test_fit_matches_the_literals(self):
        # the fit the comment on _KINK_POLY describes, compared by its values
        # on the band, not by the bits of its coefficients
        sl = np.linspace(bounds._S_K, PIMPLE_SL, 2001)[:-1]
        a, _, ok = _bisected_kink(sl)
        assert np.all(ok)
        t = (sl - bounds._KINK_MID) / bounds._KINK_HALF
        fit = np.polynomial.Chebyshev.fit(t, a, 6, domain=[-1, 1])
        poly = fit.convert(kind=np.polynomial.Polynomial)
        assert np.max(np.abs(poly(t) - a)) <= 7e-16
        grid = np.linspace(bounds._S_K, PIMPLE_SL, 10001)
        t = (grid - bounds._KINK_MID) / bounds._KINK_HALF
        tabulated = bounds._kink_a(grid)
        assert np.max(np.abs(np.minimum(poly(t), 1 / 3) - tabulated)) <= 1e-16


def _peak_bracket(sl):
    """c = 3 S_L / 2, the peak band's bracket ends and the slope of q at
    them, elementwise over the S_L of the band."""
    b = bounds
    c = 1.5 * np.asarray(sl, dtype=float)
    a_hi = b._a_hi(c)
    # e_hi is NaN above S_L = 2/3, where fmax takes the top
    with np.errstate(divide="ignore", invalid="ignore"):
        e_hi = b._e_hi(c)
        ends = np.array([np.fmax(e_hi + b._PEAK_START * (a_hi - e_hi), b._TOP), a_hi])
        return c, ends, b._contour_slope(ends, b._contour_b(ends, c))


def _converged_peak(sl):
    """The interior peak of q on the upper arc at each S_L of the peak band,
    converged over the doubles: the peak band's solve, its bracket, sign
    test and steps, started at the bracket's midpoint and run without the
    value stop until a step no longer moves it. Returns (its abscissa,
    min{a, q} there)."""
    b = bounds
    c, ends, s = _peak_bracket(sl)
    assert np.all((s[0] > 0) & (s[1] < 0))

    def step(a, rows):
        a = a - b._CURVATURE_OFFSETS
        s = b._contour_slope(a, b._contour_b(a, c[rows]))
        curv = (s[1] - s[0]) / b._CURVATURE_OFFSETS[0]
        return -s[1], -curv, np.full(len(rows), np.inf)

    lo, hi = ends
    with np.errstate(divide="ignore", invalid="ignore"):
        a = b._newton_root(step, np.arange(c.size), lo, hi, 0.5 * (lo + hi))
    return a, np.minimum(a, two_param_q(a, b._contour_b(a, c)))


class TestPeakTable:
    """The peak band's tabulated start against the peak converged over the
    doubles."""

    def test_table_matches_the_converged_peak(self):
        # the derivation the comment on _PEAK_A describes, at its nodes,
        # compared by value: the computed slope's sign is round-off over a
        # run of up to 29 doubles (3.2e-15) about the peak, so a numpy build
        # whose log rounds otherwise may stop the solve elsewhere in that run
        nodes = np.concatenate(
            [
                np.linspace(bounds._S_EP, 2 / 3, 5),
                np.linspace(2 / 3, np.nextafter(bounds._S_PB, 0), 17)[1:],
            ]
        )
        assert np.array_equal(bounds._PEAK_NODES, nodes)
        a, _ = _converged_peak(nodes)
        assert np.max(np.abs(a - bounds._PEAK_A)) <= 4e-15

    def test_band_within_budget_of_the_converged_peak(self):
        # uniform S_L of the band and the 2 000 doubles at each of its ends;
        # the tabulated start lies inside the peak bracket, within 6.3e-4 of
        # the peak, and the band stops within _VALUE_TOL of the peak's value
        # (its stop estimates the value error from the curvature)
        rng = np.random.default_rng(25)
        sls = np.concatenate(
            [
                rng.uniform(bounds._S_EP, bounds._S_PB, 20000),
                _doubles_around(bounds._S_EP, 2000)[2000:],
                _doubles_around(bounds._S_PB, 2000)[:2000],
            ]
        )
        _, ends, _ = _peak_bracket(sls)
        start = bounds._peak_a(sls)
        assert np.all((ends[0] < start) & (start < ends[1]))
        a, peak = _converged_peak(sls)
        assert np.max(np.abs(start - a)) <= 6.3e-4
        gap = entropy_upper(sls) - peak
        assert gap.min() >= -1.1e-12 and gap.max() <= 2e-15

    def test_at_most_three_passes_per_element(self, monkeypatch):
        # from the tabulated start the solve evaluates each element of 200
        # S_L of the band one to three times (1.95 on average); from the
        # secant point of its bracket it took three to five (4.9)
        sls = np.linspace(bounds._S_EP, bounds._S_PB, 201)[:-1]
        passes = np.zeros(sls.size, dtype=int)
        newton_root = bounds._newton_root

        def spy(evaluate, *args):
            def counted(a, rows):
                np.add.at(passes, rows, 1)
                return evaluate(a, rows)

            return newton_root(counted, *args)

        monkeypatch.setattr(bounds, "_newton_root", spy)
        entropy_upper(sls)
        assert passes.min() >= 1 and passes.max() <= 3


class TestSampling:
    def test_random_deterministic(self):
        b1 = sample_random(5, 99)
        b2 = sample_random(5, 99)
        assert b1.seeds == b2.seeds
        assert b1.records == b2.records

    def test_random_record_invariants(self):
        b = sample_random(10, 3)
        for rec in b.records:
            assert rec.discord >= -1e-9
            assert rec.discord <= rec.mutual_info + 1e-9

    def test_near_epsilon_zero_is_family(self):
        b = sample_near_boundary("beta", 10, 0.0, 17)
        for fam, rec in zip(b.families, b.records):
            assert rec.discord == pytest.approx(
                discord_analytic(fam).value, abs=1e-7
            )

    # the p1 (and twoparam's b) of the families that
    # sample_near_boundary(kind, 3, 1e-3, 3) draws; alpha, beta and pure
    # draw on [0, 1] from one stream
    UNIT_DRAWS = [
        "0x1.5ed1a93cfbec0p-4",
        "0x1.e4fce8296f7e8p-3",
        "0x1.9a40a58e5cdbdp-1",
    ]
    NEAR_DRAWS = {
        "werner": [
            ("-0x1.c0c98f2cad62ap-3", None),
            ("-0x1.2020fe4605650p-6", None),
            ("0x1.78563213267a6p-1", None),
        ],
        "alpha": [(x, None) for x in UNIT_DRAWS],
        "beta": [(x, None) for x in UNIT_DRAWS],
        "twoparam": [
            ("0x1.5ed1a93cfbec0p-4", "-0x1.ecd89d0f5c678p-2"),
            ("0x1.9a40a58e5cdbdp-1", "0x1.0b835088f206cp-5"),
            ("0x1.818d0900a1608p-4", "-0x1.f042173069810p-4"),
        ],
        "pure": [(x, None) for x in UNIT_DRAWS],
    }

    @pytest.mark.parametrize("kind", list(NEAR_DRAWS))
    def test_near_draws_pinned(self, kind):
        b = sample_near_boundary(kind, 3, 1e-3, 3)
        got = [(f.p1.hex(), f.p2 if f.p2 is None else f.p2.hex()) for f in b.families]
        assert got == self.NEAR_DRAWS[kind]

    def test_near_unknown_kind(self):
        with pytest.raises(ParamOutOfRange, match="unknown family kind 'nosuch'"):
            sample_near_boundary("nosuch", 3, 1e-3, 3)

    def test_near_provenance(self):
        b = sample_near_boundary("alpha", 3, 1e-3, 0)
        assert b.provenance == "near:alpha:eps=0.001"
        assert len(b.records) == len(b.seeds) == len(b.families) == 3

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_random(0, 1)
        with pytest.raises(ValueError):
            sample_near_boundary("beta", 5, -0.1, 0)
        with pytest.raises(ParamOutOfRange):
            sample_near_boundary("beta", 5, 1.5, 0)
        with pytest.raises(ParamOutOfRange):
            sample_near_boundary("beta", 0, 0.1, 0)
        with pytest.raises(ParamOutOfRange):
            sample_random(5, -1)
        with pytest.raises(ParamOutOfRange):
            sample_near_boundary("beta", 5, 0.1, -3)

    def test_batch_lengths_must_match(self):
        recs = sample_random(3, 1).records
        with pytest.raises(ValueError, match="1 seeds for 3 records"):
            SampleBatch(recs, [7], "x")
        with pytest.raises(ValueError, match="2 families for 3 records"):
            SampleBatch(recs, [7, 8, 9], "x", [None, None])

    @pytest.mark.parametrize("field", ["seeds", "families"])
    def test_verify_bounds_names_a_list_shortened_later(self, field):
        # slack -1 makes every record an offender, which reads its seed
        batch = sample_random(3, 1)
        getattr(batch, field).pop()
        for plane in ("eof-q", "sl-q"):
            with pytest.raises(ValueError, match=f"2 {field} for 3 records"):
                verify_bounds(batch, plane, slack=-1.0)

    @pytest.mark.parametrize("field", ["seeds", "families"])
    def test_split_at_pimple_names_a_list_shortened_later(self, field):
        batch = sample_random(3, 1)
        getattr(batch, field).pop()
        with pytest.raises(ValueError, match=f"2 {field} for 3 records"):
            split_at_pimple(batch)


class TestVerifyBounds:
    def test_family_states_self_consistent(self):
        b = sample_near_boundary("beta", 40, 0.0, 5)
        rep = verify_bounds(b, "eof-q")
        assert rep.n_violations == 0
        assert rep.worst_violation == 0.0

    def test_random_contained_both_planes(self):
        b = sample_random(60, 11)
        assert verify_bounds(b, "eof-q").n_violations == 0
        assert verify_bounds(split_at_pimple(b)[0], "sl-q").n_violations == 0

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q"])
    def test_offender_bound_is_the_scalar_bound(self, plane):
        b = sample_random(30, 4)
        rep = verify_bounds(b, plane, slack=-1.0)  # every check offends
        assert rep.n_violations == len(b.records) * (2 if plane == "eof-q" else 1)
        scalar = {
            "upper": horn_upper if plane == "eof-q" else entropy_upper,
            "lower": horn_lower,
        }
        for off in rep.offenders:
            assert off["bound"] == scalar[off["branch"]](off["x"])
        order = [(off["seed"], off["branch"]) for off in rep.offenders]
        expect = [
            (s, br) for s in b.seeds
            for br in (("upper", "lower") if plane == "eof-q" else ("upper",))
        ]
        assert order == expect

    def test_offenders_on_every_horn_branch_bit_for_bit(self):
        # random states (many at EoF = 0) and near-pure ones, so the zero,
        # alpha, Werner and pure branches of horn_upper all report
        rnd = sample_random(100, 8)
        pure = sample_near_boundary("pure", 40, 1e-3, 2)
        b = SampleBatch(rnd.records + pure.records, rnd.seeds + pure.seeds, "mixed")
        e_aw, _, e_wp = horn_crossovers()
        xs = np.array([r.eof for r in b.records])
        for lo, hi in ((-1, 0), (0, e_aw), (e_aw, e_wp), (e_wp, 1)):
            assert np.count_nonzero((xs > lo) & (xs <= hi))
        rep = verify_bounds(b, "eof-q", slack=-10.0)
        assert rep.n_violations == 2 * len(b.records)
        scalar = {"upper": horn_upper, "lower": horn_lower}
        for off in rep.offenders:
            assert off["bound"].hex() == scalar[off["branch"]](off["x"]).hex()

    def test_split_at_pimple(self):
        # Werner members with |xi| < 1/3 lie above S_L = 8/9
        b = sample_near_boundary("werner", 30, 1e-3, 3)
        gate, rest = split_at_pimple(b)
        assert all(r.linear_entropy <= PIMPLE_SL for r in gate.records)
        assert all(r.linear_entropy > PIMPLE_SL for r in rest.records)
        assert len(gate.records) > 0 and len(rest.records) > 0
        rows = list(zip(b.seeds, b.records, b.families))
        for part in (gate, rest):
            assert part.provenance == b.provenance
            for row in zip(part.seeds, part.records, part.families):
                assert row in rows
        assert len(gate.seeds) + len(rest.seeds) == len(b.seeds)
        bare = SampleBatch(b.records, b.seeds, b.provenance)  # no families
        assert [p.families for p in split_at_pimple(bare)] == [[], []]

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q"])
    def test_min_margin(self, plane):
        b = sample_random(30, 4)
        if plane == "sl-q":
            b = split_at_pimple(b)[0]
        margins = []
        for r in b.records:
            if plane == "eof-q":
                margins += [horn_upper(r.eof) - r.discord, r.discord - horn_lower(r.eof)]
            else:
                margins.append(entropy_upper(r.linear_entropy) - r.discord)
        rep = verify_bounds(b, plane)
        assert rep.min_margin == min(margins) > 0
        assert rep.to_json_obj()["min_margin"] == rep.min_margin
        # the margin does not depend on the slack
        assert verify_bounds(b, plane, slack=-1.0).min_margin == rep.min_margin

    def test_pure_report(self):
        b = sample_random(20, 2)
        r1 = verify_bounds(b, "eof-q")
        r2 = verify_bounds(b, "eof-q")
        assert r1 == r2

    def test_reports_violations_without_raising(self):
        b = sample_random(5, 1)
        rep = verify_bounds(b, "eof-q", slack=-1.0)  # force offenders
        assert rep.n_violations > 0
        assert rep.n_violations == len(rep.offenders)
        for off in rep.offenders:
            assert set(off) == {"seed", "x", "y", "bound", "branch"}

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q"])
    def test_worst_violation_under_negative_slack(self, plane):
        # every record is an offender, and every excess is negative: the
        # worst is the largest of them, which min_margin negates
        rep = verify_bounds(sample_random(30, 4), plane, slack=-1.0)
        assert rep.min_margin > 0
        assert rep.worst_violation == -rep.min_margin

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            verify_bounds(SampleBatch([], [], "x"), "eof-q")

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q"])
    @pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf])
    def test_non_finite_slack_rejected(self, plane, slack):
        # no excess compares greater than a NaN slack, so it would report 0
        # violations whatever the batch
        b = sample_random(3, 1)
        with pytest.raises(ParamOutOfRange, match="slack must be finite"):
            verify_bounds(b, plane, slack=slack)

    def test_unknown_plane(self):
        with pytest.raises(ValueError):
            verify_bounds(sample_random(2, 0), "nope")


def test_eof_to_concurrence_round_trip():
    for c in np.linspace(0, 1, 21):
        assert eof_to_concurrence(eof_from_concurrence(c)) == pytest.approx(
            c, abs=1e-9
        )
    for e in np.concatenate([np.logspace(-12, 0, 241), np.linspace(0, 1, 201)]):
        assert abs(eof_from_concurrence(eof_to_concurrence(e)) - e) <= 1e-13


def _root_concurrence(e):
    """The concurrence of the root of h(q) = e in (0, 1/2], in 60 digits.

    Newton's method in nats from q = e^2/4, left of the root since
    h(q) <= 2 sqrt(q (1 - q)); h is concave and increasing, so the iterates
    rise onto the root. ln(1 - q) is log1p(-q): a plain log(1 - q) loses
    the digits of q that 1 - q cannot hold, and reads the root some 1e4 ulp
    off at e = 1e-50 and 1e13 ulp off from e = 1e-60 on, where 1 - q is 1.
    """
    with mpmath.workdps(60):
        t = mpmath.mpf(e) * mpmath.ln2
        q = mpmath.mpf(e) ** 2 / 4
        for _ in range(200):
            lp = mpmath.log1p(-q)
            step = (q * mpmath.log(q) + (1 - q) * lp + t) / (lp - mpmath.log(q))
            q += step
            # near q = 1/2, where h is flat, q is good to about 40 digits
            if step <= q * mpmath.mpf(10) ** -40:
                break
        residual = -(q * mpmath.log(q) + (1 - q) * mpmath.log1p(-q)) - t
        assert abs(residual) <= t * mpmath.mpf(10) ** -50
        return 2 * mpmath.sqrt(q * (1 - q))


def test_eof_to_concurrence_within_3_ulp_of_a_60_digit_root():
    rng = np.random.default_rng(8)
    e_aw, _, e_wp = horn_crossovers()
    junctions = [x for e in (e_aw, e_wp) for x in (np.nextafter(e, 0), e, np.nextafter(e, 1))]
    es = np.concatenate(
        [
            rng.uniform(0, 1, 1000),
            10.0 ** rng.uniform(-200, 0, 1000),
            junctions,
            [1e-200, 1 - 2.0**-53],
        ]
    )
    for e, c in zip(es, eof_to_concurrence(es)):
        ref = _root_concurrence(e)
        with mpmath.workdps(60):
            ulp = mpmath.mpf(2) ** (mpmath.floor(mpmath.log(ref, 2)) - 52)
            assert abs(c - ref) <= 3 * ulp, e


def test_horn_lower_within_8_ulp_of_a_400_digit_value():
    # horn_lower is 1 - h((1 + c)/2) at the concurrence c that
    # eof_to_concurrence returns; against that value in 400 digits (which
    # hold it through the cancellation of 1 against h, some 200 digits at
    # EoF 1e-200) it keeps its relative accuracy down to the smallest EoF.
    # beta_discord is the same form at c = |2 beta - 1|: on [0, 1] and
    # within 1e-4 of beta = 1/2, where 1 - h(beta) cancels
    rng = np.random.default_rng(21)
    es = np.concatenate(
        [
            rng.uniform(0, 1, 500),
            10.0 ** rng.uniform(-200, 0, 1000),
            1 - np.arange(1, 50) * 2.0**-53,
            [1e-200, 0.5, 1 - 2.0**-53],
        ]
    )
    cs = eof_to_concurrence(es)
    with mpmath.workdps(400):
        betas = [(1 + mpmath.mpf(c)) / 2 for c in cs]
    values = list(horn_lower(es))
    bs = np.concatenate(
        [
            np.linspace(0, 1, 1001),
            0.5 + rng.choice([-1, 1], 500) * 10.0 ** rng.uniform(-16, -4, 500),
        ]
    )
    betas += [mpmath.mpf(b) for b in bs]
    values += list(beta_discord(bs))
    for beta, value in zip(betas, values):
        with mpmath.workdps(400):
            xlog = [x * mpmath.log(x) if x else 0 for x in (beta, 1 - beta)]
            ref = 1 + (xlog[0] + xlog[1]) / mpmath.ln2
            ulp = mpmath.mpf(2) ** (mpmath.floor(mpmath.log(ref, 2)) - 52)
            assert abs(value - ref) <= 8 * ulp, beta


class TestElementwiseBounds:
    EOFS = np.concatenate(
        [
            [0.0, 5e-324, 1e-310, 1e-300, 1e-12, 1.0, 1 - 1e-16],
            np.linspace(0, 1, 97),
            np.logspace(-9, 0, 23),
        ]
    )
    SLS = np.concatenate(
        [[0.0, 1e-12, 2 / 3, PIMPLE_SL, 0.95, 1.0], np.linspace(0, 1, 41), ENVELOPE_SLS]
    )
    # batches that lie wholly on one branch of horn_upper, from the double
    # after a junction up to the next junction (linspace ends exactly there)
    E_AW, _, E_WP = horn_crossovers()
    ALPHA_EOFS = np.concatenate([[5e-324, 1e-300], np.linspace(0, E_AW, 41)[1:]])
    WERNER_EOFS = np.concatenate([[np.nextafter(E_AW, 1)], np.linspace(E_AW, E_WP, 41)[1:]])
    PURE_EOFS = np.concatenate([[np.nextafter(E_WP, 1)], np.linspace(E_WP, 1, 41)[1:]])
    # batches that lie wholly in one band of entropy_upper, from the first
    # double of a band (a junction) up to the double below the next one; the
    # kink band ends at 8/9 and the Werner band starts after it
    SL_BANDS = [
        np.concatenate([np.linspace(lo, hi, 41)[:-1], [np.nextafter(hi, 0)]])
        for lo, hi in zip([0.0, *bounds._SL_JUNCTIONS[:2]], bounds._SL_JUNCTIONS[:3])
    ] + [
        np.linspace(bounds._S_K, PIMPLE_SL, 41),
        np.concatenate([[bounds._SL_JUNCTIONS[3]], np.linspace(PIMPLE_SL, 1, 41)[1:]]),
    ]
    # a batch that mixes every band, the kink junction _S_K inside it
    MIXED_SLS = np.concatenate([np.linspace(0, PIMPLE_SL, 45), np.linspace(0.832, 0.834, 81)])

    @pytest.mark.parametrize(
        "fn,xs",
        [
            (eof_to_concurrence, EOFS),
            (horn_upper, EOFS),
            (horn_lower, EOFS),
            (entropy_upper, SLS),
            pytest.param(horn_upper, ALPHA_EOFS, id="horn_upper-all-alpha"),
            pytest.param(horn_upper, WERNER_EOFS, id="horn_upper-all-werner"),
            pytest.param(horn_upper, PURE_EOFS, id="horn_upper-all-pure"),
            *[
                pytest.param(entropy_upper, xs, id=f"entropy_upper-all-{name}")
                for name, xs in zip(["edge", "peak", "b0-end", "kink", "werner"], SL_BANDS)
            ],
            pytest.param(entropy_upper, MIXED_SLS, id="entropy_upper-mixed-bands"),
        ],
    )
    def test_array_equals_scalar_calls(self, fn, xs):
        batch = fn(xs)
        scalar = [fn(float(x)) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert isinstance(batch, np.ndarray) and batch.shape == xs.shape
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch, np.array(scalar))
        # a permuted batch gives the same values, bit for bit
        perm = np.random.default_rng(0).permutation(len(xs))
        assert np.array_equal(fn(xs[perm]), batch[perm])
        grid = xs[: len(xs) // 4 * 4].reshape(4, -1)
        assert np.array_equal(fn(grid), batch[: grid.size].reshape(grid.shape))

    def test_band_batches_lie_in_one_band(self):
        for k, xs in enumerate(self.SL_BANDS):
            band = bounds._SL_JUNCTIONS.searchsorted(xs, side="right")
            assert np.all(band == k), k

    def test_newton_starts_left_of_the_root(self):
        # h(q0) <= e, in 40 digits, so the Newton iterates rise onto the
        # root; as e -> 1 Topsoe's bound is exact, and the computed start
        # may pass the root by the round-off of one double, half an ulp of e
        es = np.concatenate(
            [
                np.logspace(np.log10(bounds._E_MIN), 0, 2000)[:-1],
                np.linspace(0, 1, 2001)[1:-1],
                1 - np.arange(1, 1000) * 2.0**-53,
            ]
        )
        q0 = bounds._q_start(es, es * bounds._LN2)
        with mpmath.workdps(40):
            for e, q in zip(es, q0):
                q = mpmath.mpf(q)
                h = -(q * mpmath.log(q) + (1 - q) * mpmath.log1p(-q)) / mpmath.ln2
                assert h <= e * (1 + mpmath.mpf(2) ** -53)
        # the result stays below sqrt(e): E(C) >= C^2, from h(x) >= 4 x (1 - x)
        assert np.all(eof_to_concurrence(es) <= np.sqrt(es))


# (EoF, eof_to_concurrence, horn_upper, horn_lower), all as float.hex
HORN_PINS = [
    ("0x0.0p+0", "0x0.0p+0", "0x1.5555555555550p-2", "0x0.0p+0"),
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0"),
    # EoF 0.3, 0.7 and 0.9: the alpha, Werner and pure branch
    ("0x1.3333333333333p-2", "0x1.cbcbc9c7d0a90p-2", "0x1.d0773523163c8p-2",
     "0x1.34c5627a8c4d2p-3"),
    ("0x1.6666666666666p-1", "0x1.912594b5d34f7p-1", "0x1.6a5f7b89f16eep-1",
     "0x1.02bfd45c32aafp-1"),
    ("0x1.ccccccccccccdp-1", "0x1.dc14220d3e1a4p-1", "0x1.ccccccccccccdp-1",
     "0x1.8fbd72582dbe2p-1"),
    # the double below the alpha-Werner junction _E_AW, _E_AW, the double above
    ("0x1.3daa64f55d8d1p-1", "0x1.71e215a6ac731p-1", "0x1.49a27b4307edcp-1",
     "0x1.ad01133dcc2f9p-2"),
    ("0x1.3daa64f55d8d2p-1", "0x1.71e215a6ac733p-1", "0x1.49a27b4307edep-1",
     "0x1.ad01133dcc2ffp-2"),
    ("0x1.3daa64f55d8d3p-1", "0x1.71e215a6ac734p-1", "0x1.49a27b4307ea2p-1",
     "0x1.ad01133dcc2ffp-2"),
    # the same around the Werner-pure junction _E_WP
    ("0x1.7e0e3b7a4abf6p-1", "0x1.a2e1e319f6c00p-1", "0x1.7e0e3b7a4abf8p-1",
     "0x1.1eeee3f4b87b0p-1"),
    ("0x1.7e0e3b7a4abf7p-1", "0x1.a2e1e319f6bffp-1", "0x1.7e0e3b7a4abf8p-1",
     "0x1.1eeee3f4b87b0p-1"),
    ("0x1.7e0e3b7a4abf8p-1", "0x1.a2e1e319f6c00p-1", "0x1.7e0e3b7a4abf8p-1",
     "0x1.1eeee3f4b87b0p-1"),
]
# S_L -> (entropy_upper as float.hex, the contour solve it runs): the ends,
# an edge point, the interior peak of q, the a = q kink (read off its table,
# no solve) and the Werner side
ENTROPY_PINS = {
    0.0: ("0x1.0000000000000p+0", None),
    0.5: ("0x1.40fc0738f19a3p-1", None),
    0.68: ("0x1.98e05055dc494p-2", "peak_step"),
    0.86: ("0x1.49d64b7c2b178p-2", None),
    0.95: ("0x1.ee4f8a2d9ae88p-5", None),
    1.0: ("0x0.0p+0", None),
    # the double below and the first double of each band of _SL_JUNCTIONS:
    # edge point | peak, peak | b = 0 end, b = 0 end | kink, then 8/9 (the
    # kink band, where the kink does not beat the window ends) | Werner
    float.fromhex("0x1.54abc0ef112f0p-1"): ("0x1.b7fccd25f8ac8p-2", None),
    float.fromhex("0x1.54abc0ef112f1p-1"): ("0x1.b7fccd25f8abep-2", "peak_step"),
    float.fromhex("0x1.6afe4d1d649ebp-1"): ("0x1.7d7639389f3b0p-2", "peak_step"),
    float.fromhex("0x1.6afe4d1d649ecp-1"): ("0x1.7d7639389f3acp-2", None),
    float.fromhex("0x1.aa4ce6dea861cp-1"): ("0x1.3efa74e418e80p-2", None),
    float.fromhex("0x1.aa4ce6dea861dp-1"): ("0x1.3efa74e418e84p-2", None),
    # the double below and the first double at which the kink bisected over
    # the doubles beats a_hi, five doubles below _S_K: a_hi alone
    float.fromhex("0x1.aa4ce6dea8617p-1"): ("0x1.3efa74e418e84p-2", None),
    float.fromhex("0x1.aa4ce6dea8618p-1"): ("0x1.3efa74e418e80p-2", None),
    # the pair at the junction of the solve started at its bracket's secant
    # point, 53 doubles above _S_EP, where that start tied the peak with the
    # edge point: both in the peak band
    float.fromhex("0x1.54abc0ef11325p-1"): ("0x1.b7fccd25f8920p-2", "peak_step"),
    float.fromhex("0x1.54abc0ef11326p-1"): ("0x1.b7fccd25f8918p-2", "peak_step"),
    float.fromhex("0x1.c71c71c71c71cp-1"): ("0x1.5555555555555p-2", None),
    float.fromhex("0x1.c71c71c71c71dp-1"): ("0x1.01ab13929a050p-3", None),
}


# SHA-256 of the little-endian float64 bytes of each bound on a grid, which
# holds the bits of every grid point, not only of the HORN_PINS and
# ENTROPY_PINS points. Taken, like those pins, with numpy 2.4.6 on x86-64
# (AVX-512): a numpy build whose log or sqrt rounds differently moves a last
# bit, and then the pins must be taken again from the build at hand.
EOF_GRID = np.linspace(0, 1, 4001)
SL_GRID = np.linspace(0, 1, 3001)
GRID_PINS = [
    (eof_to_concurrence, EOF_GRID,
     "f9baa3b0b5d175138ba921f6f8c7dd6a1a1a0bc7173ba903785f2cb7384d2f64"),
    (horn_upper, EOF_GRID,
     "c4e4097ed6869c12555c0e4a8ff110d741904534a0420cf15fafb22a8955d070"),
    (horn_lower, EOF_GRID,
     "95ccfcfdd0c662ebc1cc53068748233b0aa6499471f5a9db19c4263d5314b48a"),
    (entropy_upper, SL_GRID,
     "1613748e39474789c108a8b8ca8681fc5a5b2b632417bae41402cce4ca4ca6cc"),
]
# the same for the closed-form family discords the bounds are built from:
# alpha (value and zeta stacked) and beta on [0, 1], Werner on [-1/3, 1], and
# two_param_q on (a, b) = (a, t (1 - a)) with a, t on [0, 1] x [-1, 1], which
# holds the edge |b| = 1 - a and the corners (0, -1), (0, 1) and (1, 0)
UNIT_GRID = np.linspace(0, 1, 4001)
XI_GRID = np.linspace(-1 / 3, 1, 4001)
A_GRID = np.linspace(0, 1, 201)[:, None]
B_GRID = np.linspace(-1, 1, 201) * (1 - A_GRID)
CLOSED_FORM_PINS = [
    ("alpha_discord", lambda: np.stack(alpha_discord(UNIT_GRID)),
     "d0a0a50b2421f1b99b83d9115d7d10141d9cc71412ce4a46eb9d2bc8aa35b002"),
    ("beta_discord", lambda: beta_discord(UNIT_GRID),
     "48d592741fa8970e4d6fbdbae87e8b1a7d60629b7fd4ca69d25a823b8fda17ab"),
    ("werner_discord", lambda: werner_discord(XI_GRID),
     "aad9d95210801f548cca9efc3f133423cec08422287188b89bf00bf6eb85b0ad"),
    ("two_param_q", lambda: two_param_q(A_GRID, B_GRID),
     "299a3747d5209b809886f2b9b3773164fb27cc995150c3d15aa326d04f82890d"),
]


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


class TestBitPins:
    """Scalar bound values pinned to their bits, as float.hex."""

    @pytest.mark.parametrize("pins", HORN_PINS, ids=lambda p: p[0])
    def test_horn(self, pins):
        e = float.fromhex(pins[0])
        got = tuple(f(e).hex() for f in (eof_to_concurrence, horn_upper, horn_lower))
        assert got == pins[1:]

    @pytest.mark.parametrize("sl", list(ENTROPY_PINS))
    def test_entropy_upper(self, sl, monkeypatch):
        solves = []
        newton_root = bounds._newton_root

        def spy(evaluate, *args):
            solves.append(evaluate.__name__)
            return newton_root(evaluate, *args)

        monkeypatch.setattr(bounds, "_newton_root", spy)
        value, solve = ENTROPY_PINS[sl]
        assert entropy_upper(sl).hex() == value
        assert solves == ([solve] if solve else [])

    @pytest.mark.parametrize(
        "c,value",
        [(-0.0, "0x0.0p+0"), (0.0, "0x0.0p+0"), (1.0, "0x1.0000000000000p+0")],
    )
    def test_eof_from_concurrence(self, c, value):
        assert eof_from_concurrence(c).hex() == value

    @pytest.mark.parametrize("fn", [eof_to_concurrence, horn_upper, horn_lower, entropy_upper])
    def test_argument_types(self, fn):
        # a float, an int, a 0-d array and a numpy scalar give the same float;
        # a list gives an array
        ref = fn(0.5)
        for x in (np.float64(0.5), np.array(0.5)):
            assert type(fn(x)) is float and fn(x) == ref
        assert type(fn(1)) is float and fn(1) == fn(1.0)
        out = fn([0.5, 1.0])
        assert isinstance(out, np.ndarray) and out.tolist() == [ref, fn(1.0)]

    @pytest.mark.parametrize(
        "fn,grid,digest", GRID_PINS, ids=[pin[0].__name__ for pin in GRID_PINS]
    )
    def test_grid_digest(self, fn, grid, digest):
        assert _sha256(fn(grid)) == digest

    @pytest.mark.parametrize(
        "evaluate,digest",
        [pin[1:] for pin in CLOSED_FORM_PINS],
        ids=[pin[0] for pin in CLOSED_FORM_PINS],
    )
    def test_closed_form_digest(self, evaluate, digest):
        assert _sha256(evaluate()) == digest


def test_pimple_state_measures():
    rho = make_family(Family("twoparam", 1 / 3, 0.0))
    assert linear_entropy(rho) == pytest.approx(8 / 9, abs=1e-15)
    assert discord_numeric(rho).discord == pytest.approx(1 / 3, abs=1e-4)
