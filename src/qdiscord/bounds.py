"""Boundary curves of the discord-entanglement and discord-entropy regions,
crossover location, and the random / near-boundary containment experiments.

Every bound is evaluated elementwise: eof_to_concurrence, horn_upper,
horn_lower and entropy_upper take a float or an array and return a float
or an array of the same shape, and a scalar call is a batch of one, so an
element's value does not depend on its batch, bit for bit. The horn
branches are the alpha, Werner (Luo, PRA 77, 042303 (2008)), pure and beta
family discords in closed form; the EoF axis is mapped to concurrence by a
monotone Newton inversion of Wootters' E(C). The S_L <= 8/9 ceiling is the
two-parameter envelope, the largest min{a, q} on the contour
Tr rho^2 = 1 - 3 S_L / 4: a 129-point scan plus the contour's exact edge
points, then a zoom of every near-best basin, in memory-bounded chunks.
verify_bounds evaluates each bound once per batch.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import bisect

from .measures import (
    DEFAULT_OPT,
    CorrelationRecord,
    _chunk_size,
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
    binary_entropy,
    make_family,
    random_state,
    validate_state,
)

PIMPLE_SL = 8.0 / 9.0
DEFAULT_SLACK = 1e-6


class NoSignChange(ValueError):
    pass


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
        return {
            "n_checked": self.n_checked,
            "n_violations": self.n_violations,
            "worst_violation": self.worst_violation,
            "min_margin": self.min_margin,
            "offenders": self.offenders,
        }


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
_E_MIN = 1e-300  # smaller EoF maps to C = 0, since C^2 would underflow


def eof_to_concurrence(e):
    """Invert E(C) = h((1 + sqrt(1 - C^2))/2) elementwise by Newton's method.

    Wootters' E is convex and increasing on [0, 1], and h(x) >= 4x(1-x)
    gives E(C) >= C^2, so the start C = sqrt(e) lies right of the root and
    the iterates fall monotonically onto it. An element stops once its
    step is below _NEWTON_RTOL times C; the next step would be below
    round-off. With s = sqrt(1 - C^2), p = (1 + s)/2 and q = 1 - p =
    C^2 / (2 (1 + s)), E ln 2 = -p ln p - q ln q and
    dE/dC ln 2 = C (ln p - ln q) / (2 s). E < _E_MIN maps to 0, E >= 1 to 1.
    """
    ev = np.asarray(e, dtype=float).reshape(-1)
    c = np.sqrt(np.clip(ev, 0.0, 1.0))
    c[ev < _E_MIN] = 0.0
    e_ln = ev * np.log(2)
    act = np.flatnonzero((c > 0) & (c < 1))
    while act.size:
        ca = c[act]
        s = np.sqrt((1 - ca) * (1 + ca))
        sp = 1 + s
        p, q = 0.5 * sp, ca * ca / (2 * sp)
        lp, lq = np.log1p(-q), np.log(q)
        step = (p * lp + q * lq + e_ln[act]) * (2 * s) / (ca * (lq - lp))
        c[act] = ca - step
        act = act[step > _NEWTON_RTOL * ca]
    return _like(c, e)


def _alpha_q(c):
    """Alpha-family discord at concurrence c: alpha = (1 + c)/2."""
    return alpha_discord(0.5 * (1 + c))[0]


def _werner_q(c):
    """Werner discord at concurrence c: xi = (2 c + 1)/3."""
    return werner_discord((2 * c + 1) / 3)


@functools.lru_cache(maxsize=None)
def horn_crossovers():
    """(E, Q) of the alpha-Werner junction and E of the Werner-pure junction.

    Both are bisections in concurrence on the closed-form branches, with
    the pure branch Q = E(C); the EoF follows from eof_from_concurrence.
    """
    c_aw = bisect(lambda c: _alpha_q(c) - _werner_q(c), 0.6, 0.9, xtol=1e-13)
    c_wp = bisect(
        lambda c: _werner_q(c) - eof_from_concurrence(c), 0.8, 0.95, xtol=1e-13
    )
    return (
        float(eof_from_concurrence(c_aw)),
        float(_alpha_q(c_aw)),
        float(eof_from_concurrence(c_wp)),
    )


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
    e_aw, _, e_wp = horn_crossovers()
    out = x.copy()  # pure branch, Q = E
    zero = x <= 0
    if zero.any():
        out[zero] = _zero_eof_bound()
    mid = (x > 0) & (x <= e_wp)
    if mid.any():
        c = eof_to_concurrence(x[mid])
        out[mid] = np.where(x[mid] <= e_aw, _alpha_q(c), _werner_q(c))
    return _like(out, e)


def horn_lower(e):
    """Lower discord bound at a given EoF, generated by the beta states;
    elementwise over a float or an array."""
    c = eof_to_concurrence(_batch_of(e, "EoF"))
    return _like(beta_discord(0.5 * (1 + c)), e)


def _two_param_purity(a, b):
    return a * a + ((1 - a) ** 2 + b * b) / 2


_SCAN_POINTS = 129  # first scan of the feasible a window, edge points aside
_ZOOM_POINTS = 257  # each zoom of one basin
_ZOOM_WIDTH = 1e-9  # zooming stops once the bracket is this narrow


def _contour_values(c, a, edge=False):
    """min{a, q} at the abscissae a (rows x points) on the contours
    Tr rho^2 = 1 - 3 S_L / 4, that is b^2 = (1 - a)(1 + 3 a) - c with
    c = 3 S_L / 2 (one per row), and -inf off the family.

    A point is on the family when 0 <= b^2 <= (1 - a)^2 within 1e-15; its
    b is then clipped to [0, 1 - a], so round-off cannot step past the
    edge. Points flagged in edge are the contour's edge points and take
    b = 1 - a exactly: the rounding of their a alone would otherwise leave
    b off by ~1e-16 / b, and q is steep there (1e-8 low at S_L = 1e-7).
    q is finite everywhere, so every point is evaluated.
    """
    om = 1 - a
    om_sq = om * om
    b_sq = om * (1 + 3 * a) - c[:, None]
    feas = ((b_sq >= -1e-15) & (b_sq <= om_sq + 1e-15)) | edge
    b = np.where(edge, om, np.minimum(np.sqrt(np.maximum(b_sq, 0.0)), om))
    return np.where(feas, np.minimum(a, two_param_q(a, b)), -np.inf)


def _grid(lo, hi, num):
    """np.linspace(lo, hi, num) row by row, written out because np.linspace
    with array ends changes its arithmetic for every row once one row has
    lo == hi."""
    a = np.arange(num) * ((hi - lo) / (num - 1))[:, None] + lo[:, None]
    a[:, -1] = hi
    return a


def _scan(c, a_lo, a_hi):
    """First scan of each row's window: the best value and the zoom jobs.

    The window is scanned on _SCAN_POINTS points, joined by the two points
    where the contour meets the edge |b| = 1 - a, a = (1 +- sqrt(1 - c))/2
    (repeats of a_hi when c > 1, where it does not). Each local maximum of
    the scan whose value is within twice the spacing of the row's best
    becomes a job (row, bracket between its neighbours). An edge point is
    exact and is never zoomed.
    """
    meets = c <= 1
    w = np.sqrt(np.maximum(1 - c, 0.0))
    ends = np.where(meets, [(1 - w) / 2, (1 + w) / 2], a_hi).T
    a = np.concatenate([_grid(a_lo, a_hi, _SCAN_POINTS), ends], axis=1)
    order = np.argsort(a, axis=1, kind="stable")
    a = np.take_along_axis(a, order, axis=1)
    edge = (order >= _SCAN_POINTS) & meets[:, None]
    val = _contour_values(c, a, edge)
    best = val.max(axis=1)
    peak = np.ones(a.shape, dtype=bool)
    peak[:, 1:] = val[:, 1:] > val[:, :-1]
    peak[:, :-1] &= val[:, :-1] >= val[:, 1:]
    spacing = (a_hi - a_lo) / (_SCAN_POINTS - 1)
    peak &= ~edge & (val >= (best - 2 * spacing)[:, None])
    rows, i = np.nonzero(peak)
    last = a.shape[1] - 1
    return best, rows, a[rows, np.maximum(i - 1, 0)], a[rows, np.minimum(i + 1, last)]


def _envelope_two_param(sl):
    """Max over the two-parameter family of min{a, q} at fixed linear
    entropy, elementwise over a float or an array.

    The constraint Tr rho^2 = T = 1 - 3 sl / 4 defines a contour b(a) >= 0
    (the family discord is even in b) over the window a_lo <= a <= a_hi.
    For sl <= 2/3 the contour meets the edge |b| = 1 - a, and the maximum
    is often there, so the edge points are scanned exactly. Each basin that
    the first scan finds (see _scan) is zoomed on _ZOOM_POINTS points
    around its best point until the bracket is narrower than _ZOOM_WIDTH;
    every near-best basin is zoomed, not only the best, because two basins
    can nearly tie (the a = q kink and the b = 0 end near sl = 0.8326).
    Each step handles at most measures._CHUNK_ELEMENTS points at once, and
    every operation is elementwise over rows, so a value does not depend on
    its batch.
    """
    x = np.asarray(sl, dtype=float).reshape(-1)
    c = 1.5 * x
    rad = 4 - 3 * c
    if np.any(rad < -1e-12):
        raise ValueError(f"linear entropy {x.max()} exceeds the family maximum 8/9")
    root = np.sqrt(np.maximum(rad, 0.0))
    a_lo = np.maximum(0.0, (1 - root) / 3)
    a_hi = np.minimum(1.0, (1 + root) / 3)
    best = np.empty_like(x)
    jobs = []
    size = _chunk_size(_SCAN_POINTS + 2)
    for start in range(0, len(x), size):
        part = slice(start, start + size)
        best[part], rows, lo, hi = _scan(c[part], a_lo[part], a_hi[part])
        jobs.append((rows + start, lo, hi))
    rows, lo, hi = (np.concatenate(j) for j in zip(*jobs))
    size = _chunk_size(_ZOOM_POINTS)
    act = np.flatnonzero(hi - lo > _ZOOM_WIDTH)
    while act.size:
        for start in range(0, act.size, size):
            job = act[start : start + size]
            r = rows[job]
            a = _grid(lo[job], hi[job], _ZOOM_POINTS)
            val = _contour_values(c[r], a)
            k, i = np.arange(len(job)), np.argmax(val, axis=1)
            np.maximum.at(best, r, val[k, i])
            a_new = a[k, i]
            step = (hi[job] - lo[job]) / (_ZOOM_POINTS - 1)
            lo[job] = np.maximum(a_lo[r], a_new - step)
            hi[job] = np.minimum(a_hi[r], a_new + step)
        act = act[hi[act] - lo[act] > _ZOOM_WIDTH]
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
    closed-form discord. Points are ordered with x increasing.
    """
    if resolution < 2:
        raise ParamOutOfRange("resolution must be >= 2")
    key = (kind, plane)
    if key not in _SWEEP_RANGES:
        raise ParamOutOfRange(f"no sweep defined for family {kind!r} in {plane}")
    p0, p1 = _SWEEP_RANGES[key]
    params = np.linspace(p0, p1, resolution)
    xs, ys = [], []
    for p in params:
        if kind == "alpha":
            q, _ = alpha_discord(p)
            x = eof_from_concurrence(max(0.0, 2 * p - 1))
        elif kind == "beta":
            q = beta_discord(p)
            x = eof_from_concurrence(abs(2 * p - 1))
        elif kind == "pure":
            q = binary_entropy(p)
            x = q
        elif kind == "werner":
            q = werner_discord(p)
            if plane == "eof-q":
                x = eof_from_concurrence(max(0.0, (3 * p - 1) / 2))
            else:
                x = 1 - p * p
        elif kind == "twoparam":
            q = float(min(p, two_param_q(p, 0.0)))
            x = (4 / 3) * (1 - _two_param_purity(p, 0.0))
        else:
            raise ParamOutOfRange(f"unknown family kind {kind!r}")
        xs.append(float(x))
        ys.append(float(q))
    return BoundaryCurve(
        plane=plane,
        family_tag=kind,
        params=params,
        xs=np.asarray(xs),
        ys=np.asarray(ys),
    )


def find_crossover(c1, c2, xtol=1e-6):
    """Intersection of two curves: bisection on the interpolated difference."""
    lo = max(c1.xs.min(), c2.xs.min())
    hi = min(c1.xs.max(), c2.xs.max())
    if hi <= lo:
        raise NoSignChange("curves do not overlap in x")

    def diff(x):
        return np.interp(x, c1.xs, c1.ys) - np.interp(x, c2.xs, c2.ys)

    grid = np.linspace(lo, hi, 2048)
    d = diff(grid)
    sign_flip = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
    if len(sign_flip) == 0:
        raise NoSignChange("curve difference does not change sign in the overlap")
    i = sign_flip[0]
    x = bisect(diff, grid[i], grid[i + 1], xtol=xtol)
    return float(x), float(np.interp(x, c1.xs, c1.ys))


def _derived_seeds(seed, n):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


def sample_random(n, seed, cfg=DEFAULT_OPT):
    """Correlation records for n seeded random density matrices."""
    if n < 1:
        raise ParamOutOfRange("n must be >= 1")
    if seed < 0:
        raise ParamOutOfRange("seed must be >= 0")
    seeds = _derived_seeds(seed, n)
    records = discord_batch([random_state(s) for s in seeds], cfg)
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


def sample_near_boundary(kind, n, epsilon, seed, cfg=DEFAULT_OPT):
    """Family states convexly mixed with an epsilon-weighted random state."""
    if not 0 <= epsilon <= 1:
        raise ParamOutOfRange("epsilon must be in [0, 1]")
    if n < 1:
        raise ParamOutOfRange("n must be >= 1")
    if seed < 0:
        raise ParamOutOfRange("seed must be >= 0")
    rng = np.random.default_rng(seed)
    seeds = _derived_seeds(seed, n)
    families = [_draw_family(kind, rng) for _ in range(n)]
    rhos = [
        validate_state((1 - epsilon) * make_family(fam) + epsilon * random_state(s))
        for fam, s in zip(families, seeds)
    ]
    records = discord_batch(rhos, cfg)
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


def verify_bounds(batch, plane, slack=DEFAULT_SLACK):
    """Check every record of a batch against the region bounds.

    eof-q: horn_lower - slack <= Q <= horn_upper + slack.
    sl-q:  Q <= entropy_upper + slack.
    Each bound is evaluated once, on the x values of the whole batch.
    Violations are reported, never raised; offenders are listed in record
    order, an upper violation before a lower one.
    """
    if not batch.records:
        raise ValueError("batch is empty")
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
