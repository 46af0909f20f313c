"""Boundary curves of the discord-entanglement and discord-entropy regions,
their crossovers, and the random / near-boundary containment experiments.

Every bound is evaluated elementwise: eof_to_concurrence, horn_upper,
horn_lower and entropy_upper take a float or an array and return a float
or an array of the same shape, and a scalar call is a batch of one, so an
element's value does not depend on its batch, bit for bit. A scalar call
runs on the fewest and cheapest numpy calls the arithmetic allows (masks
tested by np.count_nonzero and indexed by mask.nonzero(), float literals),
and TestBitPins pins its outputs bit for bit, at chosen points and as
digests on grids. The horn
branches are the alpha, Werner (Luo, PRA 77, 042303 (2008)), pure and beta
family discords in closed form; the EoF axis is mapped to concurrence by
inverting Wootters' E(C) = h(q), C = 2 sqrt(q (1 - q)), with Newton's method
in q from a start left of the root, where h is concave and increasing, so
the iterates rise monotonically onto it; each point evaluates only its own
branch. The junctions of the branches (horn_crossovers) are constants of
the closed forms, kept as float literals; a test re-derives them bit for
bit (TestCrossovers.test_bisection_matches_scipy_bit_for_bit).
entropy_upper is the one entry to the sl-q ceiling. Up to S_L = 8/9 it is
the two-parameter envelope, the largest min{a, q} on the contour
Tr rho^2 = 1 - 3 S_L / 4, and above 8/9 the Werner curve. S_L alone decides
which candidate point of the contour wins, so entropy_upper splits [0, 1]
into five bands at the float literals of _SL_JUNCTIONS, and each S_L runs
only its band's candidates (see _sl_ceiling). Of these only the interior
peak of q is solved for, by Newton's method from a start interpolated in a
table of its abscissa over its band, _PEAK_A (TestPeakTable re-derives
it); the a = q kink is read off a degree-6 polynomial in S_L, _KINK_POLY,
fit to the kink bisected over the doubles (TestKinkTable re-derives it).
horn_lower is the beta-family
discord 1 - h((1 + C)/2) computed from C (measures._beta_q), in a form for
each side of C = 1/2 that keeps its relative accuracy down to the smallest
EoF. verify_bounds evaluates each bound once per batch,
and on eof-q inverts E(C) once for both horns: the private
_horn_upper(x, c) and _beta_q(c) read the same concurrences, which
horn_upper and horn_lower compute for themselves.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .measures import (
    _LN2,
    _LN4,
    CorrelationRecord,
    _beta_q,
    _binary_entropy_pair,
    alpha_discord,
    beta_discord,
    discord_batch,
    eof_from_concurrence,
    two_param_q,
    werner_discord,
)
from .states import (
    FAMILY_RANGES,
    Family,
    ParamOutOfRange,
    make_family,
    random_states,
)

PIMPLE_SL = 8.0 / 9.0
DEFAULT_SLACK = 1e-6


@dataclass(frozen=True)
class BoundaryCurve:
    """Parametric boundary segment in the (EoF, Q) or (S_L, Q) plane."""

    plane: str  # "eof-q" | "sl-q"
    family_tag: str
    params: np.ndarray  # generating parameter per point
    xs: np.ndarray
    ys: np.ndarray


@dataclass
class SampleBatch:
    """Correlation records for a set of sampled states.

    seeds holds one seed per record (None for a state without one), and
    families either one family per record (None for a random state) or
    nothing; any other length raises ValueError (see check_lengths).
    """

    records: list[CorrelationRecord]
    seeds: list[int | None]
    provenance: str
    families: list[Family | None] = field(default_factory=list)

    def __post_init__(self):
        self.check_lengths()

    def check_lengths(self):
        """Raise ValueError, naming the list, unless seeds has one entry per
        record and families one per record or none. It runs when the batch
        is built and again in each reader that indexes the lists by record
        (split_at_pimple, verify_bounds, io.csv_text): the lists stay
        mutable, and a caller may append to them after construction."""
        n = len(self.records)
        if len(self.seeds) != n:
            raise ValueError(f"{len(self.seeds)} seeds for {n} records")
        if self.families and len(self.families) != n:
            raise ValueError(f"{len(self.families)} families for {n} records")


@dataclass
class RegionReport:
    """Outcome of a bound-containment check.

    min_margin is the smallest bound - Q (upper) or Q - bound (lower) over
    the checked records; it is negative when some record lies outside a
    bound, and shows how close the nearest record comes when none does.
    worst_violation is the largest excess, Q - bound (upper) or bound - Q
    (lower), among the offenders, those whose excess is above the slack,
    and 0.0 when there are none; under a negative slack it can be negative.
    """

    n_checked: int
    n_violations: int
    worst_violation: float
    min_margin: float
    offenders: list[dict]

    def to_json_obj(self):
        """The report as a dict, keys in field order."""
        return asdict(self)


def _batch_of(x, name):
    """x as a flat float array, checked to lie in [0, 1]."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    ok = (arr >= 0) & (arr <= 1)
    if np.count_nonzero(ok) < ok.size:
        raise ValueError(f"{name} {arr[~ok][0]} outside [0, 1]")
    return arr


def _like(out, x):
    """out shaped as the argument x: a float for a scalar x."""
    if isinstance(x, float):  # np.float64 too
        return float(out[0])
    shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    return out.reshape(shape) if shape else float(out[0])


_NEWTON_RTOL = 1e-9  # Newton stops once its step is below this times q
_E_MIN = 1e-230  # smaller EoF maps to C = 0: Topsoe's C^2 would underflow


def _q_start(e, e_ln):
    """A start left of the root of h(q) = e in (0, 1/2], elementwise over
    EoFs e in [_E_MIN, 1) with e_ln = e ln 2: the larger of two lower bounds.

    Topsoe's h(q) <= (4 q (1 - q))^(1/ln 4) (JIPAM 2(2), 2001), exact as
    e -> 1, gives C^2 = 4 q (1 - q) >= e^(ln 4), mapped to q. For small e,
    h(q) <= q log2(eu/q), eu Euler's number (since -(1 - q) ln(1 - q) <= q),
    has the increasing map q <- e ln 2 / (1 - ln q), whose fixed point lies
    left of the root; from Topsoe's q two steps of it never pass the larger
    of that q and the fixed point.
    """
    c2 = e ** _LN4
    # float literals: numpy converts an int operand at a further cost per call
    qt = c2 / (2.0 * (1.0 + np.sqrt(1.0 - c2)))  # (1 - sqrt(1 - C^2))/2
    return np.maximum(qt, e_ln / (1.0 - np.log(e_ln / (1.0 - np.log(qt)))))


def eof_to_concurrence(e):
    """Invert E(C) = h((1 - sqrt(1 - C^2))/2) elementwise: Newton's method
    on h(q) = e over q in (0, 1/2], then C = 2 sqrt(q (1 - q)).

    h is concave and increasing on (0, 1/2], so from a start left of the
    root (_q_start) every Newton step lands left of it again: the iterates
    rise monotonically onto the root. An element stops once its step is
    below _NEWTON_RTOL times q; the next step would be below round-off. A
    step that does not rise, a round-off where h is flat near q = 1/2, stops
    it too; C, whose E has a finite slope at C = 1, does not feel it. With
    e ln 2 = -q ln q - (1 - q) ln(1 - q) and d = ln(1 - q) - ln q, the
    derivative of the right side, the step is (ln(1 - q) + e ln 2 - q d)/d.
    E < _E_MIN maps to 0, E >= 1 to 1.
    """
    ev = np.asarray(e, dtype=float).reshape(-1)
    # not np.clip, which takes twice as long on one value; this turns
    # -0.0 into +0.0, and E < _E_MIN maps to 0 anyway
    c = np.minimum(np.maximum(ev, 0.0), 1.0)
    c[ev < _E_MIN] = 0.0
    act = ((c > 0) & (c < 1)).nonzero()[0]
    # while every element iterates, index with a slice: no gather or scatter
    at = slice(None) if act.size == c.size else act
    # C = 0 and C = 1 are q = 0 and q = 1/2, which the closing map returns
    q = 0.5 * c
    e_ln = c * _LN2
    q[at] = _q_start(c[at], e_ln[at])
    while act.size:
        qa = q[at]
        lp = np.log1p(-qa)
        d = lp - np.log(qa)
        step = (lp + e_ln[at] - qa * d) / d
        go = step > _NEWTON_RTOL * qa
        q[at] = qa + step
        # the first element to stop switches the slice to the index array
        if at is act or np.count_nonzero(go) < act.size:
            act = at = act[go]
    return _like(2.0 * np.sqrt(q * (1.0 - q)), e)


def _alpha_q(c):
    """Alpha-family discord at concurrence c: alpha = (1 + c)/2."""
    return alpha_discord(0.5 * (1.0 + c))[0]


def _werner_q(c):
    """Werner discord at concurrence c: xi = (2 c + 1)/3."""
    return werner_discord((2.0 * c + 1.0) / 3.0)


# the horn junctions (see horn_crossovers), with their bits in hex
_E_AW = 0.6204406308668473  # 0x1.3daa64f55d8d2p-1
_Q_AW = 0.6438177604031483  # 0x1.49a27b4307edcp-1
_E_WP = 0.746202334097119  # 0x1.7e0e3b7a4abf7p-1


def horn_crossovers():
    """(E, Q) of the alpha-Werner junction and E of the Werner-pure junction.

    They are constants of the closed-form branches, kept as float literals.
    Each is the root in concurrence of a gap between two branches,
    _alpha_q - _werner_q on [0.6, 0.9] and _werner_q - E(C) on [0.8, 0.95]
    (the pure branch is Q = E), bisected to 1e-13 and mapped through
    eof_from_concurrence and _alpha_q. The test
    TestCrossovers.test_bisection_matches_scipy_bit_for_bit re-derives all
    three that way, bit for bit.
    """
    return _E_AW, _Q_AW, _E_WP


# The largest family discord on the EoF = 0 axis. All alpha states with
# alpha <= 1/2 are separable, and their discord peaks at alpha = 1/3 (the
# pimple state, at the kink where zeta changes branch) with Q = 1/3, above
# the alpha = 1/2 value that continues the E > 0 branch, so E = 0 needs its
# own bound.
_ZERO_EOF_BOUND = alpha_discord(1 / 3)[0]


def _horn_upper(x, c):
    """horn_upper on checked EoFs x (a flat array). c holds their
    concurrences, eof_to_concurrence(x), or is None to invert here only the
    points that read it, those on the alpha and Werner branches."""
    out = x.copy()  # pure branch, Q = E
    zero = x <= 0
    if np.count_nonzero(zero):
        out[zero] = _ZERO_EOF_BOUND
    mid = ((x > 0) & (x <= _E_WP)).nonzero()[0]
    if mid.size:
        xm = x[mid]
        cm = eof_to_concurrence(xm) if c is None else c[mid]
        alpha = xm <= _E_AW
        # each point evaluates only its own branch
        for sel, branch in ((alpha, _alpha_q), (~alpha, _werner_q)):
            if np.count_nonzero(sel):
                out[mid[sel]] = branch(cm[sel])
    return out


def horn_upper(e):
    """Upper discord bound at a given EoF: alpha, Werner, then pure branch.

    Elementwise over a float or an array. The EoF = 0 edge is bounded by
    the separable alpha slice (Q = 1/3 at alpha = 1/3), which sits above
    the alpha = 1/2 endpoint of the curve.
    """
    return _like(_horn_upper(_batch_of(e, "EoF"), None), e)


def horn_lower(e):
    """Lower discord bound at a given EoF, generated by the beta states;
    elementwise over a float or an array."""
    return _like(_beta_q(eof_to_concurrence(_batch_of(e, "EoF"))), e)


def _contour_b(a, c):
    """b(a) >= 0 on the contour b^2 = (1 - a)(1 + 3 a) - c of the
    two-parameter family, capped at the edge b = 1 - a."""
    om = 1.0 - a
    return np.minimum(np.sqrt(np.maximum(om * (1.0 + 3.0 * a) - c, 0.0)), om)


_VALUE_TOL = 1e-12  # a contour solve stops once its value is this close
# backward difference of the slope, for the curvature of q
_CURVATURE_OFFSETS = np.array([[1e-7], [0.0]])
# the peak bracket starts this fraction of the upper arc inside the edge point,
# past the thin layer next to the edge where q falls before it rises to the
# peak (see _peak_band)
_PEAK_START = 1 / 16
_TINY = 1e-300  # stands in for 0 in atanh(x) / x, whose limit there is 1


def _contour_slope(a, b):
    """dq/da along the contour b(a) of _contour_b, in bits.

    Differentiating two_param_q term by term, with u, v = 1 - a -+ b,
    s = sqrt(a^2 + b^2) and d(b^2)/da = 2 - 6 a, the +1 of each xlog
    derivative cancels and the b terms pair into atanh ratios, which stay
    finite at b = 0: ln 2 dq/da = ln(2a) - ln(u v)/2
    + (1 - 3a) [atanh(b/(1 - a)) - atanh(b)]/b - (1 - 2a) atanh(s)/s.
    It is infinite on the edge u = 0.
    """
    om = 1.0 - a
    bt = np.maximum(b, _TINY)
    st = np.maximum(np.hypot(a, b), _TINY)
    half = 1.0 - 3.0 * a
    ln_dq = (
        np.log(2.0 * a)
        - 0.5 * np.log((om - b) * (om + b))
        + half * (np.arctanh(bt / om) - np.arctanh(bt)) / bt
        - (a + half) * np.arctanh(st) / st
    )
    return ln_dq / _LN2


def _newton_root(evaluate, rows, lo, hi, x):
    """Roots of a function rising through 0 in the brackets [lo, hi], by a
    safeguarded Newton iteration elementwise over contours, started at x.

    evaluate(x, rows) returns (f, df, err) at one abscissa on each of the
    contours indexed by rows: f, its derivative, and the value error of the
    contour candidate at x. Each step narrows the bracket by the sign of f
    and takes the Newton step, or bisects where that step leaves the
    bracket. A contour stops at the first x with err <= _VALUE_TOL, or once
    its bracket is down to adjacent doubles. Returns the last evaluated x
    of every contour.
    """
    act = np.arange(len(x))
    while act.size:
        xa = x[act]
        f, df, err = evaluate(xa, rows[act])
        left = f < 0
        lo[act] = l = np.where(left, xa, lo[act])
        hi[act] = h = np.where(left, hi[act], xa)
        step = xa - f / df
        step = np.where((step > l) & (step < h), step, 0.5 * (l + h))
        go = (err > _VALUE_TOL) & (step != xa)
        x[act] = np.where(go, step, xa)
        act = act[go]
    return x


# The junctions of the sl-q ceiling, each the first double of a band of
# entropy_upper, with their bits in hex: the interior peak of q beats the
# upper edge point from _S_EP on (on the double below it the two are equal,
# bit for bit), the peak's sign test fails from _S_PB on
# (just below it the peak and a_hi still trade wins by an ulp), the a = q
# kink at the abscissa of _KINK_POLY beats a_hi from _S_K on (on the five
# doubles below it the kink bisected over the doubles beats a_hi by at most
# 6 ulp), and the Werner curve takes over after 8/9.
# TestSlJunctions.test_bisection_matches_the_literals re-derives the three.
_S_EP = 0.6653728763418184  # 0x1.54abc0ef112f1p-1
_S_PB = 0.7089714144115624  # 0x1.6afe4d1d649ecp-1
_S_K = 0.8326179644392969  # 0x1.aa4ce6dea861dp-1
_WERNER_SL = 0.888888888888889  # 0x1.c71c71c71c71dp-1, the double after 8/9
_SL_JUNCTIONS = np.array([_S_EP, _S_PB, _S_K, _WERNER_SL])
_TOP = 1 / 3  # the a of the top of the contour, where its two arcs meet
# The abscissa of the a = q kink over the kink band [_S_K, 8/9], a
# polynomial in t = (S_L - m)/h, m and h the band's midpoint and half-width,
# its coefficients lowest degree first with their bits in hex. They are a
# degree-6 least-squares fit (numpy.polynomial.Chebyshev.fit on t in
# [-1, 1], written in the power basis) to the kink bisected over the
# doubles, the first double of the lower arc at which a >= q, at 2 000
# evenly spaced S_L of [_S_K, 8/9). The fit is within 7e-16 of those
# points; TestKinkTable.test_fit_matches_the_literals re-derives it.
_KINK_MID = (_S_K + PIMPLE_SL) / 2.0
_KINK_HALF = (PIMPLE_SL - _S_K) / 2.0
_KINK_POLY = tuple(
    float.fromhex(coef)
    for coef in (
        "0x1.4a22ea49271a6p-2",
        "0x1.65ac84c5f5797p-7",
        "0x1.3eb4dd100da11p-16",
        "0x1.8243e6c951a3bp-23",
        "0x1.c9a6839b74f34p-38",
        "0x1.3d522e41c6cabp-36",
        "-0x1.abea5d87f650bp-43",
    )
)
# b = 1 - a on the edge point's row, b = 0 on a_hi's (see _edge_point_band)
_EDGE_B = np.array([[1.0], [0.0]])
# The start of the peak solve over the peak band [_S_EP, _S_PB): the peak's
# abscissa at 21 nodes, linearly interpolated in S_L. The nodes are 5 evenly
# spaced S_L of [_S_EP, 2/3] and 17 of [2/3, the double below _S_PB], 2/3
# shared: there the contour touches the edge, and the abscissa is not
# analytic. Each literal, with its bits in hex, is the peak's abscissa
# converged over the doubles at its node: the peak solve of _peak_band, with
# its bracket, sign test and steps, started at the bracket's midpoint and
# run without the _VALUE_TOL stop until a step no longer moves it. The
# table is only a start, within 6.3e-4 of the peak; the solve still
# guarantees the value. TestPeakTable.test_table_matches_the_converged_peak
# re-derives it.
_PEAK_NODES = np.concatenate(
    [np.linspace(_S_EP, 2 / 3, 5), np.linspace(2 / 3, np.nextafter(_S_PB, 0), 17)[1:]]
)
_PEAK_A = np.array(
    [
        float.fromhex(a)
        for a in (
            "0x1.12bea77300628p-1",
            "0x1.149e755d3359cp-1",
            "0x1.15ebfbaca3878p-1",
            "0x1.16fb983efb736p-1",
            "0x1.17e6da4c8429cp-1",
            "0x1.1d3e779e23d28p-1",
            "0x1.21192299fbea4p-1",
            "0x1.245b479a5b6e4p-1",
            "0x1.2748916fe1888p-1",
            "0x1.2a0011e570a18p-1",
            "0x1.2c9334b10e17cp-1",
            "0x1.2f0d04fc3977ap-1",
            "0x1.31752700c5190p-1",
            "0x1.33d1456a36616p-1",
            "0x1.3625d5b7e1254p-1",
            "0x1.38768bd0888a0p-1",
            "0x1.3ac6a3d4e1b34p-1",
            "0x1.3d191569575b8p-1",
            "0x1.3f70bae903e60p-1",
            "0x1.41d072e1befd6p-1",
            "0x1.443b406bd6ecap-1",
        )
    ]
)


def _peak_a(x):
    """The start of the peak solve at S_L = x: _PEAK_A interpolated at x."""
    return np.interp(x, _PEAK_NODES, _PEAK_A)


def _a_hi(c):
    """The b = 0 end a_hi of the contour's window, at c = 3 S_L / 2."""
    return (1.0 + np.sqrt(np.maximum(4.0 - 3.0 * c, 0.0))) / 3.0


def _b0_end(a_hi):
    """min{a, q} at the b = 0 end a_hi of the contour's window."""
    return np.minimum(a_hi, two_param_q(a_hi, 0.0))


def _e_hi(c):
    """The a = (1 + sqrt(1 - c))/2 of the upper edge point, where the
    contour at c = 3 S_L / 2 meets the edge b = 1 - a; NaN for c > 1, where
    the contour does not meet it."""
    return (1.0 + np.sqrt(1.0 - c)) / 2.0


def _edge_point_band(x):
    """The envelope for S_L below _S_EP: the upper edge point, or the b = 0
    end a_hi if larger. The two agree to first order in S_L, and for S_L
    below about 1e-14 they round to within an ulp of each other, where
    either may be the larger."""
    c = 1.5 * x
    ends = np.array([_e_hi(c), _a_hi(c)])
    q = two_param_q(ends, (1.0 - ends) * _EDGE_B)
    return np.fmax.reduce(np.minimum(ends, q))


def _peak_band(x):
    """The envelope for S_L in [_S_EP, _S_PB): the larger of the b = 0 end
    and the interior maximum of q on the upper arc.

    The peak is bracketed by a_hi and the top (c > 1) or a point _PEAK_START
    of the upper arc inside the edge point (c <= 1), and solved where q
    rises along the contour at the lower end and falls at a_hi. The solve
    starts at the abscissa tabulated over the band, _peak_a(x), which lies
    inside the bracket and within 6.3e-4 of the peak, and takes one to
    three passes. TestPeakTable holds the band within 1.1e-12 below and
    2e-15 above min{a, q} at the peak converged over the doubles.
    """
    c = 1.5 * x
    a_hi = _a_hi(c)
    best = _b0_end(a_hi)

    def peak_step(a, rows):
        a = a - _CURVATURE_OFFSETS
        s = _contour_slope(a, _contour_b(a, c[rows]))
        curv = (s[1] - s[0]) / _CURVATURE_OFFSETS[0]
        # q is concave at its maximum: within s^2 / (2 |curv|) of it
        err = np.where(curv < 0, -0.5 * s[1] ** 2 / curv, np.inf)
        return -s[1], -curv, err

    # e_hi is NaN where the contour does not meet the edge (c > 1), and
    # fmax then takes the top; the slope is infinite on the edge, and Newton
    # steps off the bracket are expected
    with np.errstate(divide="ignore", invalid="ignore"):
        e_hi = _e_hi(c)
        ends = np.array([np.fmax(e_hi + _PEAK_START * (a_hi - e_hi), _TOP), a_hi])
        s = _contour_slope(ends, _contour_b(ends, c))
        sel = (s[0] > 0) & (s[1] < 0)
        if np.count_nonzero(sel):
            rows = sel.nonzero()[0]
            lo, hi = ends[0][rows], ends[1][rows]
            a = _newton_root(peak_step, rows, lo, hi, _peak_a(x[rows]))
            q = two_param_q(a, _contour_b(a, c[rows]))
            best[rows] = np.maximum(best[rows], np.minimum(a, q))
    return best


def _b0_end_band(x):
    """The envelope for S_L in [_S_PB, _S_K): the b = 0 end a_hi."""
    return _b0_end(_a_hi(1.5 * x))


def _kink_a(x):
    """The a = q kink on the lower arc at S_L = x in [_S_K, 8/9], by Horner's
    rule on _KINK_POLY at t = (x - _KINK_MID) / _KINK_HALF, capped at the
    top a = 1/3."""
    t = (x - _KINK_MID) / _KINK_HALF
    a = _KINK_POLY[-1]
    for coef in _KINK_POLY[-2::-1]:
        a = a * t + coef
    return np.minimum(a, _TOP)


def _kink_band(x):
    """The envelope for S_L in [_S_K, 8/9]: the larger of the b = 0 end
    a_hi and the a = q kink on the lower arc, one evaluation of each.

    The kink's abscissa is read off the polynomial _KINK_POLY (_kink_a), so
    no solve runs; how its literals were made is in the comment above them.
    TestKinkTable re-derives them, and holds the band within 2e-15 below
    and 1e-15 above min{a, q} at the kink bisected over the doubles. a_hi
    keeps b = 0 exactly: b from _contour_b there is off by round-off, which
    moves q by ulps next to _S_K and misses 1/3 next to 8/9. The other
    window end, a_lo = (1 - sqrt(4 - 3c))/3, is at b = 0 here (c > 1) too,
    but its min{a, q} never beats a_hi's (TestSlJunctions checks this on a
    dense grid and on the doubles at the band's ends).
    """
    c = 1.5 * x
    a = _kink_a(x)
    kink = np.minimum(a, two_param_q(a, _contour_b(a, c)))
    return np.maximum(_b0_end(_a_hi(c)), kink)


def _werner_band(x):
    """The ceiling above 8/9: the Werner discord at xi = sqrt(1 - S_L)."""
    return werner_discord(np.sqrt(1.0 - x))


# the evaluation of each band of _SL_JUNCTIONS, in order
_SL_BANDS = (_edge_point_band, _peak_band, _b0_end_band, _kink_band, _werner_band)


def _sl_ceiling(x):
    """entropy_upper on checked linear entropies x (a flat array): each
    element evaluated by the band of _SL_JUNCTIONS it lies in.

    Up to S_L = 8/9 the ceiling is the largest min{a, q} over the
    two-parameter family at fixed linear entropy. The constraint
    Tr rho^2 = 1 - 3 S_L / 4 is the ellipse 3 (a - 1/3)^2 + b^2 = 4/3 - c
    with c = 3 S_L / 2, that is the contour b(a) of _contour_b on the
    window a_lo <= a <= a_hi (the family discord is even in b, so b >= 0).
    Its top a = 1/3 splits it into an upper and a lower arc. The candidate
    points are the window ends; for c <= 1, the points a = (1 +- sqrt(1 -
    c))/2 where the contour meets the edge |b| = 1 - a, with b = 1 - a
    exactly; the interior maximum of q on the upper arc; and the kink a = q
    on the lower arc. Each band, a function of _SL_BANDS, runs only the
    candidates that can win in it, and the fifth is the Werner curve.
    The junctions were found by bisecting, over the doubles, which
    candidate wins when all of them are evaluated at every S_L; the test
    TestSlJunctions.test_bisection_matches_the_literals re-derives them,
    and TestSlJunctions.test_bands_match_all_candidates holds the bands to
    that evaluation (all_candidates_ceiling in tests/conftest.py) bit for
    bit, on random S_L and on the 500 doubles either side of each junction.

    Near the edge q has a u log u term (u = 1 - a - |b|), so q falls
    steeply from the edge point into a thin layer with a minimum before it
    can rise to the interior peak; the peak bracket starts past that layer
    (measured, as fractions of a_hi - a_edge: the layer's minimum lies
    within 1.8 % of the edge point and the peak 10 % or more from it,
    wherever the peak is the largest candidate). The peak solve runs where
    a sign test at its bracket ends finds a root, and the bracket holds at
    most one. It is a _newton_root from the peak's abscissa tabulated at 21
    nodes of its band and interpolated in S_L (_PEAK_A, _peak_a), with the
    slope of q from _contour_slope and its curvature from a backward
    difference of that slope, and stops once the value error is below
    _VALUE_TOL. The kink is not solved for: over its band its
    abscissa is near-linear in S_L, a = 0.32240 + 0.010915 t + O(t^2) with
    t = (S_L - _KINK_MID)/_KINK_HALF, and a degree-6 polynomial in t,
    _KINK_POLY, is within 7e-16 of it (the comment above the literals says
    how they were made, and TestKinkTable.test_fit_matches_the_literals
    re-derives them). The peak keeps its solve because its abscissa is not
    analytic at S_L = 2/3, where the contour touches the edge: least-squares
    Chebyshev fits to the peak bisected over the doubles miss it by 6.2e-4
    at degree 12 over its band and by 4.5e-6 at degree 16 on [2/3, _S_PB),
    and the piecewise-linear table, with a node at 2/3, by 6.3e-4, close
    enough to start the solve but not to replace it.
    Every candidate is a point of the family, so the
    envelope never lies above the true one, and every operation is
    elementwise, so a value does not depend on its batch.
    """
    band = _SL_JUNCTIONS.searchsorted(x, side="right")
    if band.size == 1:  # a scalar: one lookup, no mask
        return _SL_BANDS[band[0]](x)
    # not np.unique, whose sort pages in some 0.8 MB of numpy's sort kernels
    out = np.empty_like(x)
    for k, evaluate in enumerate(_SL_BANDS):
        rows = (band == k).nonzero()[0]
        if rows.size:
            out[rows] = evaluate(x[rows])
    return out


def entropy_upper(sl):
    """Upper discord bound at a given linear entropy, elementwise over a
    float or an array: the two-parameter envelope for S_L <= 8/9 and the
    closed-form Werner discord at xi = sqrt(1 - S_L) beyond that.

    Each element is evaluated only by its band of _SL_JUNCTIONS, found by
    one lookup in that table (see _sl_ceiling). The 8/9 junction is not
    forced continuous; each side reports its own value.
    """
    return _like(_sl_ceiling(_batch_of(sl, "linear entropy")), sl)


_SWEEP_RANGES = {
    # family -> (parameter start, parameter end); ordered so x increases
    ("alpha", "eof-q"): (0.5, 1.0),
    ("beta", "eof-q"): (0.5, 1.0),
    ("werner", "eof-q"): (1 / 3, 1.0),
    ("pure", "eof-q"): (1.0, 0.5),
    ("werner", "sl-q"): (1.0, 0.0),
    ("twoparam", "sl-q"): (1.0, 1 / 3),  # b = 0 slice, swept in a
    ("alpha", "sl-q"): (1.0, 0.5),
}


def sweep_family(kind, plane, resolution=512):
    """Trace one family's curve in the requested plane, with the family's
    closed-form discord evaluated once on the whole parameter array. Points
    are ordered with x increasing: EoF on eof-q, S_L on sl-q, where alpha
    and twoparam both sweep the b = 0 slice of the two-parameter family.
    """
    if resolution < 2:
        raise ParamOutOfRange("resolution must be >= 2")
    key = (kind, plane)
    if key not in _SWEEP_RANGES:
        raise ParamOutOfRange(f"no sweep defined for family {kind!r} in {plane}")
    p0, p1 = _SWEEP_RANGES[key]
    p = np.linspace(p0, p1, resolution)
    if kind == "werner":
        ys = werner_discord(p)
        if plane == "eof-q":
            xs = eof_from_concurrence(np.maximum(0.0, (3 * p - 1) / 2))
        else:
            xs = 1 - p * p
    elif plane == "sl-q":  # alpha or twoparam: the b = 0 slice
        ys = np.minimum(p, two_param_q(p, 0.0))
        xs = (4 / 3) * (1 - (p * p + (1 - p) ** 2 / 2))  # 4/3 (1 - Tr rho^2)
    elif kind == "alpha":
        ys = alpha_discord(p)[0]
        xs = eof_from_concurrence(np.maximum(0.0, 2 * p - 1))
    elif kind == "beta":
        ys = beta_discord(p)
        xs = eof_from_concurrence(np.abs(2 * p - 1))
    else:  # pure
        ys = xs = _binary_entropy_pair(np.array([p, 1 - p]))  # h(p)
    return BoundaryCurve(plane=plane, family_tag=kind, params=p, xs=xs, ys=ys)


def _derived_seeds(seed, n):
    """n child seeds drawn from seed. An integer n < 1 or seed < 0 raises
    ParamOutOfRange; a seed that is not an integer (a float, a str, None)
    raises TypeError. Any integer seed >= 0 is taken, 2**64 and above
    included, as np.random.default_rng takes it."""
    if n < 1:
        raise ParamOutOfRange("n must be >= 1")
    if seed < 0:
        raise ParamOutOfRange("seed must be >= 0")
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


def sample_random(n, seed):
    """Correlation records for n seeded random density matrices."""
    seeds = _derived_seeds(seed, n)
    records = discord_batch(random_states(seeds))
    return SampleBatch(
        records=records,
        seeds=seeds,
        provenance="random",
        families=[None] * n,
    )


def sample_near_boundary(kind, n, epsilon, seed):
    """Family states convexly mixed with an epsilon-weighted random state;
    p1 is uniform on FAMILY_RANGES[kind], twoparam's b on [a - 1, 1 - a]."""
    if not 0 <= epsilon <= 1:
        raise ParamOutOfRange("epsilon must be in [0, 1]")
    seeds = _derived_seeds(seed, n)
    if kind not in FAMILY_RANGES:
        raise ParamOutOfRange(f"unknown family kind {kind!r}")
    lo, hi = FAMILY_RANGES[kind]
    two = kind == "twoparam"
    rng = np.random.default_rng(seed)
    families = []
    for _ in range(n):
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(a - 1, 1 - a)) if two else None
        families.append(Family(kind, a, b))
    exact = np.stack([make_family(fam) for fam in families])
    # discord_batch checks the mixtures as density matrices
    records = discord_batch((1 - epsilon) * exact + epsilon * random_states(seeds))
    return SampleBatch(
        records=records,
        seeds=seeds,
        provenance=f"near:{kind}:eps={float(epsilon)!r}",
        families=families,
    )


def split_at_pimple(batch):
    """Split a batch at S_L = 8/9: (records with S_L <= 8/9, the rest).

    The sl-q containment check covers the first part only; above 8/9 the
    ceiling is the Werner curve, and that slice is informational.
    """
    batch.check_lengths()
    gate = np.array([r.linear_entropy <= PIMPLE_SL for r in batch.records], bool)
    return tuple(
        SampleBatch(
            records=[batch.records[i] for i in idx],
            seeds=[batch.seeds[i] for i in idx],
            provenance=batch.provenance,
            families=[batch.families[i] for i in idx] if batch.families else [],
        )
        for idx in (gate.nonzero()[0].tolist(), (~gate).nonzero()[0].tolist())
    )


def check_slack(slack):
    """Raise ParamOutOfRange unless slack is finite: no excess compares
    greater than a NaN slack, and an infinite one passes or fails all."""
    if not np.isfinite(slack):
        raise ParamOutOfRange(f"slack must be finite, got {slack}")


def verify_bounds(batch, plane, slack=DEFAULT_SLACK):
    """Check every record of a batch against the region bounds.

    eof-q: horn_lower - slack <= Q <= horn_upper + slack.
    sl-q:  Q <= entropy_upper + slack.
    Each bound is evaluated once, on the x values of the whole batch; on
    eof-q both horns read one eof_to_concurrence of them, which gives each
    value the bits of horn_upper and horn_lower, since it is elementwise.
    Violations are reported, never raised; offenders are listed in record
    order, an upper violation before a lower one. A negative slack is legal
    (it tightens the bounds); a NaN or infinite one raises ParamOutOfRange
    (see check_slack).
    """
    if not batch.records:
        raise ValueError("batch is empty")
    batch.check_lengths()
    check_slack(slack)
    y = np.array([r.discord for r in batch.records])
    if plane == "eof-q":
        x = _batch_of([r.eof for r in batch.records], "EoF")
        # one inversion of E(C) serves both horns
        c = eof_to_concurrence(x)
        up, lo = _horn_upper(x, c), _beta_q(c)
        excess, bound = np.array([y - up, lo - y]), np.array([up, lo])
    elif plane == "sl-q":
        x = np.array([r.linear_entropy for r in batch.records])
        up = entropy_upper(x)
        excess, bound = np.array([y - up]), np.array([up])
    else:
        raise ValueError(f"unknown plane {plane!r}")
    # the offending (record, branch) pairs: record order, upper before lower
    rec, branch = (excess > slack).T.nonzero()
    offenders = [
        {
            "seed": batch.seeds[i],
            "x": float(x[i]),
            "y": float(y[i]),
            "bound": float(bound[b, i]),
            "branch": ("upper", "lower")[b],
        }
        for i, b in zip(rec.tolist(), branch.tolist())
    ]
    return RegionReport(
        n_checked=len(batch.records),
        n_violations=len(offenders),
        worst_violation=float(excess[branch, rec].max()) if offenders else 0.0,
        min_margin=-float(excess.max()),
        offenders=offenders,
    )
