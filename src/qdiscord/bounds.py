"""Boundary curves of the discord-entanglement and discord-entropy regions,
crossover location, and the random / near-boundary containment experiments.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import bisect

from .measures import (
    DEFAULT_OPT,
    CorrelationRecord,
    alpha_discord,
    beta_discord,
    discord_batch,
    discord_numeric,
    eof_from_concurrence,
    two_param_q,
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
    """Outcome of a bound-containment check."""

    n_checked: int
    n_violations: int
    worst_violation: float
    offenders: list[dict]

    def to_json_obj(self):
        return {
            "n_checked": self.n_checked,
            "n_violations": self.n_violations,
            "worst_violation": self.worst_violation,
            "offenders": self.offenders,
        }


def eof_to_concurrence(e):
    """Invert E = h((1+sqrt(1-C^2))/2) by bisection (monotone in C)."""
    if e <= 0:
        return 0.0
    if e >= 1:
        return 1.0
    return bisect(lambda c: eof_from_concurrence(c) - e, 0.0, 1.0, xtol=1e-13)


@functools.lru_cache(maxsize=None)
def _werner_discord(xi, cfg=DEFAULT_OPT):
    return discord_numeric(make_family(Family("werner", xi)), cfg).discord


def _alpha_branch(e):
    """Upper-bound branch generated by alpha states, as a function of EoF."""
    c = eof_to_concurrence(e)
    return alpha_discord((c + 1) / 2)[0]


def _werner_branch(e, cfg=DEFAULT_OPT):
    """Upper-bound branch generated by Werner states, as a function of EoF."""
    c = eof_to_concurrence(e)
    xi = round((2 * c + 1) / 3, 14)
    return _werner_discord(xi, cfg)


@functools.lru_cache(maxsize=None)
def horn_crossovers(cfg=DEFAULT_OPT):
    """(E, Q) of the alpha-Werner junction and E of the Werner-pure junction."""
    e_aw = bisect(
        lambda e: _alpha_branch(e) - _werner_branch(e, cfg), 0.4, 0.7, xtol=1e-9
    )
    e_wp = bisect(lambda e: _werner_branch(e, cfg) - e, 0.65, 0.9, xtol=1e-9)
    return float(e_aw), float(_alpha_branch(e_aw)), float(e_wp)


@functools.lru_cache(maxsize=None)
def _zero_eof_bound():
    """Largest family discord on the EoF = 0 axis.

    All alpha states with alpha <= 1/2 are separable, and their discord peaks
    at alpha = 1/3 (the pimple state) with Q = 1/3 — above the alpha = 1/2
    value that continues the E > 0 branch, so E = 0 needs its own bound.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda a: -alpha_discord(a)[0],
        bounds=(0.0, 0.5),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(-res.fun)


def horn_upper(e, cfg=DEFAULT_OPT):
    """Upper discord bound at a given EoF: alpha, Werner, then pure branch.

    The EoF = 0 edge is bounded by the separable alpha slice (Q = 1/3 at
    alpha = 1/3), which sits above the alpha = 1/2 endpoint of the curve.
    """
    if not (0 <= e <= 1):
        raise ValueError(f"EoF {e} outside [0, 1]")
    if e <= 0:
        return _zero_eof_bound()
    e_aw, _, e_wp = horn_crossovers(cfg)
    if e <= e_aw:
        return _alpha_branch(e)
    if e <= e_wp:
        return _werner_branch(e, cfg)
    return float(e)


def horn_lower(e):
    """Lower discord bound at a given EoF, generated by the beta states."""
    if not (0 <= e <= 1):
        raise ValueError(f"EoF {e} outside [0, 1]")
    c = eof_to_concurrence(e)
    return beta_discord((1 + c) / 2)


def _two_param_purity(a, b):
    return a * a + ((1 - a) ** 2 + b * b) / 2


def _envelope_two_param(sl):
    """Max over the two-parameter family of min{a, q} at fixed linear entropy.

    The constraint Tr rho^2 = 1 - 3 sl / 4 defines a contour b(a) >= 0 (the
    family discord is even in b); scan the feasible a window, then zoom.
    """
    target = 1.0 - 0.75 * sl
    rad = 6 * target - 2
    if rad < -1e-12:
        raise ValueError(f"linear entropy {sl} exceeds the family maximum 8/9")
    rad = max(rad, 0.0)
    a_lo = max(0.0, (1 - np.sqrt(rad)) / 3)
    a_hi = min(1.0, (1 + np.sqrt(rad)) / 3)

    def best_on(a):
        b_sq = 2 * target - 2 * a * a - (1 - a) ** 2
        feas = (b_sq >= -1e-15) & (b_sq <= (1 - a) ** 2 + 1e-15)
        b = np.sqrt(np.clip(b_sq, 0.0, None))
        q = two_param_q(a, b)
        val = np.minimum(a, q)
        val = np.where(feas, val, -np.inf)
        i = int(np.argmax(val))
        return float(val[i]), float(a[i])

    best, a_best = best_on(np.linspace(a_lo, a_hi, 4001))
    step = (a_hi - a_lo) / 4000 if a_hi > a_lo else 0.0
    lo, hi = a_best - step, a_best + step
    while hi - lo > 1e-9:
        cand, a_best = best_on(
            np.linspace(max(a_lo, lo), min(a_hi, hi), 401)
        )
        best = max(best, cand)
        step = (hi - lo) / 400
        lo, hi = a_best - step, a_best + step
    return best


def entropy_upper(sl, cfg=DEFAULT_OPT):
    """Upper discord bound at a given linear entropy.

    Two-parameter envelope for S_L <= 8/9; the Werner curve at
    xi = sqrt(1 - S_L) beyond that. The 8/9 junction is not forced
    continuous; each side reports its own value.
    """
    if not (0 <= sl <= 1):
        raise ValueError(f"linear entropy {sl} outside [0, 1]")
    if sl <= PIMPLE_SL:
        return _envelope_two_param(sl)
    xi = round(float(np.sqrt(1 - sl)), 14)
    return _werner_discord(xi, cfg)


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


def sweep_family(kind, plane, resolution=512, cfg=DEFAULT_OPT):
    """Trace one family's curve in the requested plane.

    Analytic discord for alpha / beta / two-parameter / pure; the numeric
    engine for Werner. Points are ordered with x increasing.
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
            q = _werner_discord(round(float(p), 14), cfg)
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
        raise ValueError("n must be >= 1")
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
    if epsilon < 0:
        raise ParamOutOfRange("epsilon must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
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


def verify_bounds(batch, plane, slack=DEFAULT_SLACK, cfg=DEFAULT_OPT):
    """Check every record of a batch against the region bounds.

    eof-q: horn_lower - slack <= Q <= horn_upper + slack.
    sl-q:  Q <= entropy_upper + slack.
    Violations are reported, never raised.
    """
    if not batch.records:
        raise ValueError("batch is empty")
    offenders = []
    worst = 0.0
    for seed, rec in zip(batch.seeds, batch.records):
        checks = []
        if plane == "eof-q":
            up = horn_upper(rec.eof, cfg)
            lo = horn_lower(rec.eof)
            checks.append((rec.eof, rec.discord - up, "upper", up))
            checks.append((rec.eof, lo - rec.discord, "lower", lo))
        elif plane == "sl-q":
            up = entropy_upper(rec.linear_entropy, cfg)
            checks.append((rec.linear_entropy, rec.discord - up, "upper", up))
        else:
            raise ValueError(f"unknown plane {plane!r}")
        for x, excess, branch, bound in checks:
            if excess > slack:
                worst = max(worst, float(excess))
                offenders.append(
                    {
                        "seed": seed,
                        "x": float(x),
                        "y": float(rec.discord),
                        "bound": float(bound),
                        "branch": branch,
                    }
                )
    return RegionReport(
        n_checked=len(batch.records),
        n_violations=len(offenders),
        worst_violation=worst,
        offenders=offenders,
    )
