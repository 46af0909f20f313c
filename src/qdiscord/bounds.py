"""Boundary curves of the discord-entanglement and discord-entropy regions,
their crossovers, and the random / near-boundary containment experiments.

Every bound is evaluated elementwise: eof_to_concurrence, horn_upper,
horn_lower and entropy_upper take a float or an array and return a float
or an array of the same shape, and a scalar call is a batch of one, so an
element's value does not depend on its batch, bit for bit. The horn
branches are the alpha, Werner (Luo, PRA 77, 042303 (2008)), pure and beta
family discords in closed form; the EoF axis is mapped to concurrence by a
Newton inversion of Wootters' E(C), and each point evaluates only its own
branch. The junctions of the branches (horn_crossovers) are constants of
the closed forms, kept as float literals; a test re-derives them bit for
bit (TestCrossovers.test_bisection_matches_scipy_bit_for_bit). The
S_L <= 8/9 ceiling is the two-parameter envelope, the largest min{a, q} on
the contour Tr rho^2 = 1 - 3 S_L / 4, taken over its candidate points
(_envelope_two_param): closed forms at the window ends and the edge
points, and 1-D Newton solves only where a sign test finds the maximum
inside, at an interior peak of q (S_L in about (0.665, 0.709)) or at the
kink a = q (about (0.833, 8/9)). verify_bounds evaluates each bound once
per batch.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .measures import (
    CorrelationRecord,
    _xlog2,
    alpha_discord,
    beta_discord,
    discord_batch,
    eof_from_concurrence,
    two_param_q,
    werner_discord,
)
from .states import (
    Family,
    ParamOutOfRange,
    make_family,
    random_states,
    validate_states,
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
    """Correlation records for a set of sampled states."""

    records: list[CorrelationRecord]
    seeds: list[int]
    provenance: str
    families: list[Family | None] = field(default_factory=list)


@dataclass
class RegionReport:
    """Outcome of a bound-containment check.

    min_margin is the smallest bound - Q (upper) or Q - bound (lower) over
    the checked records; it is negative when some record lies outside a
    bound, and shows how close the nearest record comes when none does.
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
    bad = ~((arr >= 0) & (arr <= 1))
    if bad.any():
        raise ValueError(f"{name} {arr[bad][0]} outside [0, 1]")
    return arr


def _like(out, x):
    """out shaped as the argument x: a float for a scalar x."""
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


_NEWTON_RTOL = 1e-9  # Newton stops once its step is below this times C
_E_MIN = 1e-230  # smaller EoF maps to C = 0: the start's C^2 would underflow


def eof_to_concurrence(e):
    """Invert E(C) = h((1 + sqrt(1 - C^2))/2) elementwise by Newton's method.

    The start C = e^(2/3) is h^-1(y) ~ (1 - sqrt(1 - y^(4/3)))/2 mapped to
    concurrence. It lies close to the root, but left of it for e below
    about 0.32. Wootters' E is convex and increasing on [0, 1], and
    h(x) >= 4x(1-x) gives E(C) >= C^2, so sqrt(e) lies right of the root. A
    Newton step from left of the root lands right of it; it is capped at
    sqrt(e), since from far left (small e) the flat tangent overshoots by
    orders of magnitude. So from the first step on the iterates lie right
    of the root and fall monotonically onto it. An element stops once its
    step is below _NEWTON_RTOL times C; the next step would be below
    round-off. With s = sqrt(1 - C^2), p = (1 + s)/2 and
    q = 1 - p = C^2 / (2 (1 + s)), E ln 2 = -p ln p - q ln q and
    dE/dC ln 2 = C (ln p - ln q) / (2 s). E < _E_MIN maps to 0, E >= 1 to 1.
    """
    ev = np.asarray(e, dtype=float).reshape(-1)
    e_cl = np.clip(ev, 0.0, 1.0)
    cap = np.sqrt(e_cl)
    c = e_cl ** (2 / 3)
    c[ev < _E_MIN] = 0.0
    e_ln = ev * np.log(2)
    act = np.flatnonzero((c > 0) & (c < 1))
    # while every element iterates, index with a slice: no gather or scatter
    at = slice(None) if act.size == c.size else act
    while act.size:
        ca = c[at]
        s = np.sqrt((1 - ca) * (1 + ca))
        sp = 1 + s
        p, q = 0.5 * sp, ca * ca / (2 * sp)
        lp, lq = np.log1p(-q), np.log(q)
        step = (p * lp + q * lq + e_ln[at]) * (2 * s) / (ca * (lq - lp))
        go = np.abs(step) > _NEWTON_RTOL * ca
        c[at] = np.minimum(ca - step, cap[at])
        # the first element to stop switches the slice to the index array
        if at is act or np.count_nonzero(go) < act.size:
            act = at = act[go]
    return _like(c, e)


def _alpha_q(c):
    """Alpha-family discord at concurrence c: alpha = (1 + c)/2."""
    return alpha_discord(0.5 * (1 + c))[0]


def _werner_q(c):
    """Werner discord at concurrence c: xi = (2 c + 1)/3."""
    return werner_discord((2 * c + 1) / 3)


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


def _zero_eof_bound():
    """Largest family discord on the EoF = 0 axis.

    All alpha states with alpha <= 1/2 are separable, and their discord peaks
    at alpha = 1/3 (the pimple state, at the kink where zeta changes branch)
    with Q = 1/3 — above the alpha = 1/2 value that continues the E > 0
    branch, so E = 0 needs its own bound.
    """
    return alpha_discord(1 / 3)[0]


def horn_upper(e):
    """Upper discord bound at a given EoF: alpha, Werner, then pure branch.

    Elementwise over a float or an array. The EoF = 0 edge is bounded by
    the separable alpha slice (Q = 1/3 at alpha = 1/3), which sits above
    the alpha = 1/2 endpoint of the curve.
    """
    x = _batch_of(e, "EoF")
    out = x.copy()  # pure branch, Q = E
    zero = x <= 0
    if zero.any():
        out[zero] = _zero_eof_bound()
    mid = np.flatnonzero((x > 0) & (x <= _E_WP))
    if mid.size:
        c = eof_to_concurrence(x[mid])
        alpha = x[mid] <= _E_AW
        # each point evaluates only its own branch
        for sel, branch in ((alpha, _alpha_q), (~alpha, _werner_q)):
            if sel.any():
                out[mid[sel]] = branch(c[sel])
    return _like(out, e)


def horn_lower(e):
    """Lower discord bound at a given EoF, generated by the beta states;
    elementwise over a float or an array."""
    c = eof_to_concurrence(_batch_of(e, "EoF"))
    return _like(beta_discord(0.5 * (1 + c)), e)


def _contour_b(a, c):
    """b(a) >= 0 on the contour b^2 = (1 - a)(1 + 3 a) - c of the
    two-parameter family, capped at the edge b = 1 - a."""
    om = 1 - a
    return np.minimum(np.sqrt(np.maximum(om * (1 + 3 * a) - c, 0.0)), om)


_VALUE_TOL = 1e-12  # a contour solve stops once its value is this close
# backward difference of the slope, for the curvature of q
_CURVATURE_OFFSETS = np.array([[1e-7], [0.0]])
# the peak bracket starts this fraction of the upper arc inside the edge point
# (see _envelope_two_param)
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
    om = 1 - a
    bt = np.maximum(b, _TINY)
    st = np.maximum(np.hypot(a, b), _TINY)
    half = 1 - 3 * a
    ln_dq = (
        np.log(2 * a)
        - 0.5 * np.log((om - b) * (om + b))
        + half * (np.arctanh(bt / om) - np.arctanh(bt)) / bt
        - (a + half) * np.arctanh(st) / st
    )
    return ln_dq / np.log(2)


def _newton_root(evaluate, rows, lo, hi, x):
    """Roots of a function rising through 0 in the brackets [lo, hi], by a
    safeguarded Newton iteration elementwise over contours, started at x.

    evaluate(x, rows) returns (f, df, err) at one abscissa on each of the
    contours indexed by rows: f, its derivative, and the value error of the
    contour candidate at x. Each step narrows the bracket by the sign of f
    and takes the Newton step, or bisects where that step leaves the
    bracket. A contour stops at the first x with err <= _VALUE_TOL, or once
    its bracket is down to adjacent doubles. Returns the last evaluated x
    of every contour and f there.
    """
    f_end = np.empty_like(x)
    act = np.arange(len(x))
    while act.size:
        xa = x[act]
        f, df, err = evaluate(xa, rows[act])
        f_end[act] = f
        left = f < 0
        lo[act] = l = np.where(left, xa, lo[act])
        hi[act] = h = np.where(left, hi[act], xa)
        step = xa - f / df
        step = np.where((step > l) & (step < h), step, 0.5 * (l + h))
        go = (err > _VALUE_TOL) & (step != xa)
        x[act] = np.where(go, step, xa)
        act = act[go]
    return x, f_end


def _envelope_two_param(sl):
    """Max over the two-parameter family of min{a, q} at fixed linear
    entropy, elementwise over a float or an array.

    The constraint Tr rho^2 = 1 - 3 sl / 4 is the ellipse
    3 (a - 1/3)^2 + b^2 = 4/3 - c with c = 3 sl / 2, that is the contour
    b(a) of _contour_b on the window a_lo <= a <= a_hi (the family discord
    is even in b, so b >= 0). Its top a = 1/3 splits it into an upper and
    a lower arc. The envelope is the largest of these candidates:
    - the window ends; the b = 0 end a_hi is the maximum for sl in about
      (0.709, 0.833);
    - for c <= 1, the points a = (1 +- sqrt(1 - c))/2 where the contour
      meets the edge |b| = 1 - a, with b = 1 - a exactly (NaN, and
      skipped, for c > 1); the upper one is the maximum for sl <= about
      0.665;
    - the interior maximum of q on the upper arc, bracketed by a_hi and
      the top (c > 1) or a point _PEAK_START of the upper arc inside the
      edge point (c <= 1), solved where q rises along the contour at the
      lower end and falls at a_hi. It is the maximum for sl in about
      (0.665, 0.709). Near the edge q has a u log u term (u = 1 - a - |b|),
      so q falls steeply from the edge point into a thin layer with a
      minimum before it can rise to that peak; the bracket starts past
      that layer (measured, as fractions of a_hi - a_edge: the layer's
      minimum lies within 1.8 % of the edge point and the peak 10 % or
      more from it, wherever the peak is the largest candidate);
    - the kink a = q on the lower arc, bracketed by a_lo and the top (or
      the lower edge point, if lower), the maximum for sl in about
      (0.833, 8/9). Since min{a, q} <= a, a kink beats the best other
      candidate only at a > best, so it is solved where a - q < 0 at
      max(best, a_lo) and > 0 at the upper end.
    Those sl ranges are measured, not used: each solve runs where a sign
    test at its bracket ends finds a root, and each bracket holds at most
    one. Each solve is a _newton_root from the secant point of its bracket,
    with the slope of q from _contour_slope and its curvature from a
    backward difference of that slope; it stops once the value error is
    below _VALUE_TOL. Every candidate is a point of the family, so the
    envelope never lies above the true one, and every operation is
    elementwise, so a value does not depend on its batch.
    """
    x = np.asarray(sl, dtype=float).reshape(-1)
    c = 1.5 * x
    rad = 4 - 3 * c
    if (rad < -1e-12).any():
        raise ValueError(f"linear entropy {x.max()} exceeds the family maximum 8/9")
    root = np.sqrt(np.maximum(rad, 0.0))
    a_lo = np.maximum(0.0, (1 - root) / 3)
    a_hi = np.minimum(1.0, (1 + root) / 3)
    top = 1 / 3

    def peak_step(a, rows):
        a = a - _CURVATURE_OFFSETS
        s = _contour_slope(a, _contour_b(a, c[rows]))
        curv = (s[1] - s[0]) / _CURVATURE_OFFSETS[0]
        # q is concave at its maximum: within s^2 / (2 |curv|) of it
        err = np.where(curv < 0, -0.5 * s[1] ** 2 / curv, np.inf)
        return -s[1], -curv, err

    def kink_step(a, rows):
        b = _contour_b(a, c[rows])
        d = a - two_param_q(a, b)
        s = _contour_slope(a, b)
        # the kink is a Newton step |d / (1 - s)| away, and the value
        # min{a, q} changes with slope 1 left of it and s right of it
        return d, 1 - s, np.abs(d / (1 - s)) * np.maximum(1, np.abs(s))

    def start(f, lo, hi):  # the secant point of the bracket
        return lo - f[0] * (hi - lo) / (f[1] - f[0])

    # the slope is infinite on the edge, and NaN points and Newton steps off
    # the bracket are expected
    with np.errstate(divide="ignore", invalid="ignore"):
        # w, and with it the edge points, is NaN where the contour does not
        # meet the edge (c > 1); b(a_lo) is w for c <= 1 (a_lo = 0), else 0
        w = np.sqrt(1 - c)
        e_lo, e_hi = (1 - w) / 2, (1 + w) / 2
        pa = np.array([a_hi, a_lo, e_lo, e_hi])
        pb = np.array([0 * x, np.fmax(w, 0.0), 1 - e_lo, 1 - e_hi])
        best = np.fmax.reduce(np.minimum(pa, two_param_q(pa, pb)))

        ends = np.array([np.fmax(e_hi + _PEAK_START * (a_hi - e_hi), top), a_hi])
        s = _contour_slope(ends, _contour_b(ends, c))
        sel = (s[0] > 0) & (s[1] < 0)
        if sel.any():
            rows = np.flatnonzero(sel)
            lo, hi = ends[0][rows], ends[1][rows]
            a = _newton_root(peak_step, rows, lo, hi, start(-s[:, sel], lo, hi))[0]
            q = two_param_q(a, _contour_b(a, c[rows]))
            best[rows] = np.maximum(best[rows], np.minimum(a, q))

        lo, hi = np.maximum(best, a_lo), np.fmin(e_lo, top)
        rows = np.flatnonzero(lo < hi)
        if rows.size:
            ends = np.array([lo[rows], hi[rows]])
            d = ends - two_param_q(ends, _contour_b(ends, c[rows]))
            sel = (d[0] < 0) & (d[1] > 0)
            if sel.any():
                rows = rows[sel]
                lo, hi = lo[rows], hi[rows]
                a, d = _newton_root(kink_step, rows, lo, hi, start(d[:, sel], lo, hi))
                best[rows] = np.maximum(best[rows], a - np.maximum(d, 0.0))
        return _like(best, sl)


def entropy_upper(sl):
    """Upper discord bound at a given linear entropy, elementwise over a
    float or an array.

    Two-parameter envelope for S_L <= 8/9; the closed-form Werner discord at
    xi = sqrt(1 - S_L) beyond that. The 8/9 junction is not forced
    continuous; each side reports its own value.
    """
    x = _batch_of(sl, "linear entropy")
    low = x <= PIMPLE_SL
    out = np.empty_like(x)
    if low.any():
        out[low] = _envelope_two_param(x[low])
    if not low.all():
        out[~low] = werner_discord(np.sqrt(1 - x[~low]))
    return _like(out, sl)


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
    are ordered with x increasing.
    """
    if resolution < 2:
        raise ParamOutOfRange("resolution must be >= 2")
    key = (kind, plane)
    if key not in _SWEEP_RANGES:
        raise ParamOutOfRange(f"no sweep defined for family {kind!r} in {plane}")
    p0, p1 = _SWEEP_RANGES[key]
    p = np.linspace(p0, p1, resolution)
    if kind == "alpha":
        ys = alpha_discord(p)[0]
        xs = eof_from_concurrence(np.maximum(0.0, 2 * p - 1))
    elif kind == "beta":
        ys = beta_discord(p)
        xs = eof_from_concurrence(np.abs(2 * p - 1))
    elif kind == "pure":
        ys = xs = -_xlog2(p) - _xlog2(1 - p)  # h(p)
    elif kind == "werner":
        ys = werner_discord(p)
        if plane == "eof-q":
            xs = eof_from_concurrence(np.maximum(0.0, (3 * p - 1) / 2))
        else:
            xs = 1 - p * p
    else:  # the b = 0 slice of twoparam
        ys = np.minimum(p, two_param_q(p, 0.0))
        xs = (4 / 3) * (1 - (p * p + (1 - p) ** 2 / 2))  # 4/3 (1 - Tr rho^2)
    return BoundaryCurve(plane=plane, family_tag=kind, params=p, xs=xs, ys=ys)


def _derived_seeds(seed, n):
    """n child seeds drawn from seed; ParamOutOfRange unless n >= 1 and
    seed >= 0."""
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


def _draw_family(kind, rng):
    if kind == "werner":
        return Family("werner", float(rng.uniform(-1 / 3, 1)))
    if kind in ("alpha", "beta", "pure"):
        return Family(kind, float(rng.uniform(0, 1)))
    if kind == "twoparam":
        a = float(rng.uniform(0, 1))
        return Family("twoparam", a, float(rng.uniform(a - 1, 1 - a)))
    raise ParamOutOfRange(f"unknown family kind {kind!r}")


def sample_near_boundary(kind, n, epsilon, seed):
    """Family states convexly mixed with an epsilon-weighted random state."""
    if not 0 <= epsilon <= 1:
        raise ParamOutOfRange("epsilon must be in [0, 1]")
    seeds = _derived_seeds(seed, n)
    rng = np.random.default_rng(seed)
    families = [_draw_family(kind, rng) for _ in range(n)]
    exact = np.stack([make_family(fam) for fam in families])
    rhos = validate_states((1 - epsilon) * exact + epsilon * random_states(seeds))
    records = discord_batch(rhos)
    return SampleBatch(
        records=records,
        seeds=seeds,
        provenance=f"near:{kind}:eps={epsilon:g}",
        families=families,
    )


def split_at_pimple(batch):
    """Split a batch at S_L = 8/9: (records with S_L <= 8/9, the rest).

    The sl-q containment check covers the first part only; above 8/9 the
    ceiling is the Werner curve, and that slice is informational.
    """
    keep = [r.linear_entropy <= PIMPLE_SL for r in batch.records]

    def part(flag):
        idx = [i for i, k in enumerate(keep) if k == flag]
        return SampleBatch(
            records=[batch.records[i] for i in idx],
            seeds=[batch.seeds[i] for i in idx],
            provenance=batch.provenance,
            families=[batch.families[i] for i in idx] if batch.families else [],
        )

    return part(True), part(False)


def check_slack(slack):
    """Raise ParamOutOfRange unless slack is finite: no excess compares
    greater than a NaN slack, and an infinite one passes or fails all."""
    if not np.isfinite(slack):
        raise ParamOutOfRange(f"slack must be finite, got {slack}")


def verify_bounds(batch, plane, slack=DEFAULT_SLACK):
    """Check every record of a batch against the region bounds.

    eof-q: horn_lower - slack <= Q <= horn_upper + slack.
    sl-q:  Q <= entropy_upper + slack.
    Each bound is evaluated once, on the x values of the whole batch.
    Violations are reported, never raised; offenders are listed in record
    order, an upper violation before a lower one. A negative slack is legal
    (it tightens the bounds); a NaN or infinite one raises ParamOutOfRange
    (see check_slack).
    """
    if not batch.records:
        raise ValueError("batch is empty")
    check_slack(slack)
    y = np.array([r.discord for r in batch.records])
    if plane == "eof-q":
        x = np.array([r.eof for r in batch.records])
        up, lo = horn_upper(x), horn_lower(x)
        checks = [("upper", y - up, up), ("lower", lo - y, lo)]
    elif plane == "sl-q":
        x = np.array([r.linear_entropy for r in batch.records])
        up = entropy_upper(x)
        checks = [("upper", y - up, up)]
    else:
        raise ValueError(f"unknown plane {plane!r}")
    offenders = []
    worst = 0.0
    hit = np.any([excess > slack for _, excess, _ in checks], axis=0)
    for i in np.flatnonzero(hit):
        for branch, excess, bound in checks:
            if excess[i] > slack:
                worst = max(worst, float(excess[i]))
                offenders.append(
                    {
                        "seed": batch.seeds[i],
                        "x": float(x[i]),
                        "y": float(y[i]),
                        "bound": float(bound[i]),
                        "branch": branch,
                    }
                )
    return RegionReport(
        n_checked=len(batch.records),
        n_violations=len(offenders),
        worst_violation=worst,
        min_margin=-float(max(excess.max() for _, excess, _ in checks)),
        offenders=offenders,
    )
