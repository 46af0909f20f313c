"""The benchmark workloads: input generation, the timed section and the
oracle checks that run after it.

Every workload is a class built from (seed, smoke).  The constructor makes
the inputs (this counts toward setup_s), ``run`` is the timed section and
returns the (start, end) perf_counter times of its unit calls, ``emitted`` returns every CSV/JSON text
the run produced (digested for the determinism check), and ``check`` returns
the failed operations, found with independent references only, out of the
``ops`` the workload attempts.  Why each workload exists
is recorded in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io as _io
import json
import math
import time

import numpy as np

from qdiscord import bounds, cli, io, measures, states

SLACK = 1e-6  # bound slack of acceptance criteria 6 and 7
GATE_SL = 8.0 / 9.0  # sl-q containment is gated at S_L <= 8/9 (criterion 7)
FAMILY_TOL = 1e-4  # analytic vs numeric discord (criteria 1 and 2)
EXACT_TOL = 1e-12  # analytic sweep points against discord_analytic
CC_TOL = 1e-9  # classical_corr against the reference conditional_information
Q_FLOOR = -1e-9


def _h(x):
    """Binary entropy in bits, written out here as an independent reference."""
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0.0)


def werner_discord_closed_form(xi):
    """Bell-diagonal closed form Q = I(xi) - [1 - h((1 + |xi|)/2)] (Luo 2008).

    Both marginals of a Werner state are maximally mixed, so I = 2 - S(rho)
    with spectrum (1 + 3 xi)/4 once and (1 - xi)/4 three times.
    """
    lam = [(1 + 3 * xi) / 4] + [(1 - xi) / 4] * 3
    mutual = 2.0 + sum(p * math.log2(p) for p in lam if p > 0.0)
    return mutual - (1.0 - _h((1 + abs(xi)) / 2))


def _stratified(rng, n):
    """n uniform draws on [0, 1), one per stratum of width 1/n, shuffled.

    Every seed then covers the whole range, so the cost of a run (which
    depends on where the points fall) varies less from seed to seed.
    """
    return [float(u) for u in rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)]


def _record_json(records):
    return json.dumps([dataclasses.asdict(r) for r in records]) + "\n"


def _q_in_range(rec):
    return Q_FLOOR <= rec.discord <= rec.mutual_info - Q_FLOOR


class McRandom:
    """The paper's random containment experiment (acceptance criteria 6-8)."""

    name = "mc-random"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 10 if smoke else 100
        self.ops = self.n
        self.inputs = {"n": self.n, "seed": seed}

    def run(self):
        t0 = time.perf_counter()
        self.batch = bounds.sample_random(self.n, self.seed)
        call = (t0, time.perf_counter())
        self.reports = {"eof-q": bounds.verify_bounds(self.batch, "eof-q", SLACK)}
        for tag, keep in (("sl-q", True), ("sl-q-above-8-9", False)):
            part = bounds.SampleBatch(
                records=[],
                seeds=[],
                provenance=self.batch.provenance,
            )
            for s, r in zip(self.batch.seeds, self.batch.records):
                if (r.linear_entropy <= GATE_SL) == keep:
                    part.seeds.append(s)
                    part.records.append(r)
            if part.records:
                self.reports[tag] = bounds.verify_bounds(part, "sl-q", SLACK)
        self.texts = {"batch.csv": io.csv_text(self.batch)}
        for tag, rep in self.reports.items():
            self.texts[f"report-{tag}.json"] = io.report_json_text(rep)
        return [call]

    def emitted(self):
        return self.texts

    def check(self):
        failures = []
        # the S_L > 8/9 slice is informational only, as in criterion 7
        offenders = {
            o["seed"]
            for tag in ("eof-q", "sl-q")
            if tag in self.reports
            for o in self.reports[tag].offenders
        }
        for s, rec in zip(self.batch.seeds, self.batch.records):
            ref = measures.conditional_information(
                states.random_state(s), rec.theta_opt, rec.phi_opt
            )
            if abs(rec.classical_corr - ref) > CC_TOL:
                failures.append(f"seed {s}: classical_corr {rec.classical_corr} vs {ref}")
            elif not _q_in_range(rec):
                failures.append(f"seed {s}: Q={rec.discord} outside [0, I={rec.mutual_info}]")
            elif s in offenders:
                failures.append(f"seed {s}: bound violation beyond slack {SLACK}")
        return failures


class SingleState:
    """One discord_numeric call at a time: family members and 1e-3 mixtures."""

    name = "single-state"
    EPSILON = 1e-3

    def __init__(self, seed, smoke):
        rng = np.random.default_rng(seed)
        per_kind = 1 if smoke else 16
        draws = {k: _stratified(rng, per_kind) for k in states.FAMILY_KINDS}
        self.families, self.rhos, self.inputs = [], [], []
        for i in range(per_kind):
            for kind in states.FAMILY_KINDS:
                fam = self._family(kind, draws[kind][i], rng)
                mix_seed = int(rng.integers(0, 2**63 - 1))
                exact = states.make_family(fam)
                mixed = states.validate_state(
                    (1 - self.EPSILON) * exact
                    + self.EPSILON * states.random_state(mix_seed)
                )
                self.families += [fam, None]
                self.rhos += [exact, mixed]
                self.inputs.append([fam.kind, fam.p1, fam.p2, mix_seed])
        self.ops = len(self.rhos)

    @staticmethod
    def _family(kind, u, rng):
        """Family member at stratified position u in [0, 1) of its range."""
        if kind == "werner":
            return states.Family("werner", -1 / 3 + (4 / 3) * u)
        if kind == "twoparam":
            return states.Family("twoparam", u, float(rng.uniform(u - 1, 1 - u)))
        return states.Family(kind, u)

    def run(self):
        calls, self.records = [], []
        for rho in self.rhos:
            t0 = time.perf_counter()
            rec = measures.discord_numeric(rho)
            calls.append((t0, time.perf_counter()))
            self.records.append(rec)
        return calls

    def emitted(self):
        return {"records.json": _record_json(self.records)}

    def check(self):
        failures = []
        for i, (fam, rec) in enumerate(zip(self.families, self.records)):
            if fam is None:
                if not _q_in_range(rec):
                    failures.append(f"mixture {i}: Q={rec.discord}, I={rec.mutual_info}")
                continue
            if fam.kind == "werner":
                ref = werner_discord_closed_form(fam.p1)
            elif fam.kind == "pure":
                ref = _h(fam.p1)  # Q = E = h(Schmidt eigenvalue)
            else:
                ref = measures.discord_analytic(fam).value
            if abs(rec.discord - ref) > FAMILY_TOL:
                failures.append(f"{fam}: Q={rec.discord} vs reference {ref}")
        return failures


class BoundsCurves:
    """Cold-cache boundary work: crossover and sweep CLI calls, then bounds."""

    name = "bounds-curves"
    SWEEPS = [
        ("alpha", "eof-q"),
        ("beta", "eof-q"),
        ("werner", "eof-q"),
        ("pure", "eof-q"),
        ("werner", "sl-q"),
        ("twoparam", "sl-q"),
        ("alpha", "sl-q"),
    ]

    def __init__(self, seed, smoke):
        rng = np.random.default_rng(seed)
        self.resolution = 2 if smoke else 32
        n_points = 3 if smoke else 400
        self.eofs = _stratified(rng, n_points)
        self.sls = _stratified(rng, n_points)
        self.inputs = {"resolution": self.resolution, "eof": self.eofs, "S_L": self.sls}
        # the two crossovers, every sweep point and every bound evaluation
        self.ops = 2 + len(self.SWEEPS) * self.resolution + 2 * n_points + n_points

    @staticmethod
    def _cli(argv):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self):
        self.cli_results = {"crossover.json": self._cli(["crossover"])}
        for fam, plane in self.SWEEPS:
            argv = ["sweep", "--family", fam, "--plane", plane, "--n", str(self.resolution)]
            self.cli_results[f"sweep-{fam}-{plane}.csv"] = self._cli(argv)
        calls = []
        self.horn, self.entropy = [], []

        def timed(fn, x):
            t0 = time.perf_counter()
            try:
                return fn(x)
            except Exception as exc:  # counted as a failed op by check()
                return exc
            finally:
                calls.append((t0, time.perf_counter()))

        for e in self.eofs:
            self.horn.append((timed(bounds.horn_upper, e), timed(bounds.horn_lower, e)))
        for s in self.sls:
            self.entropy.append(timed(bounds.entropy_upper, s))
        return calls

    def emitted(self):
        texts = {name: text for name, (_, text) in self.cli_results.items()}
        texts["bounds.json"] = json.dumps(
            {"horn": self.horn, "entropy_upper": self.entropy}, default=repr
        ) + "\n"
        return texts

    def check(self):
        failures = []
        code, text = self.cli_results["crossover.json"]
        if code != 0:
            failures += ["crossover: exit code %d" % code] * 2
        else:
            obj = json.loads(text)
            aw, wp = obj["alpha_werner"], obj["werner_pure"]
            # criterion 5 tolerances
            if abs(aw["eof"] - 0.620) > 0.01 or abs(aw["discord"] - 0.644) > 0.01:
                failures.append(f"alpha-werner crossover at {aw}")
            if abs(wp["eof"] - 0.746) > 0.01:
                failures.append(f"werner-pure crossover at {wp}")
        for fam, plane in self.SWEEPS:
            code, text = self.cli_results[f"sweep-{fam}-{plane}.csv"]
            if code != 0:
                failures += [f"sweep {fam} {plane}: exit code {code}"] * self.resolution
                continue
            rows = list(csv.DictReader(_io.StringIO(text)))
            if len(rows) != self.resolution:
                failures += [f"sweep {fam} {plane}: {len(rows)} rows"] * self.resolution
                continue
            for row in rows:
                p, q = float(row["param1"]), float(row["discord"])
                if fam == "werner":
                    ref, tol = werner_discord_closed_form(p), FAMILY_TOL
                elif fam == "pure":
                    ref, tol = _h(p), EXACT_TOL
                elif fam == "twoparam":  # the b = 0 slice
                    ref = measures.discord_analytic(states.Family(fam, p, 0.0)).value
                    tol = EXACT_TOL
                else:
                    ref = measures.discord_analytic(states.Family(fam, p)).value
                    tol = EXACT_TOL
                if abs(q - ref) > tol:
                    failures.append(f"sweep {fam} {plane} at {p}: {q} vs {ref}")
        for e, (up, lo) in zip(self.eofs, self.horn):
            if isinstance(up, Exception) or isinstance(lo, Exception):
                failures += [f"horn bounds at EoF {e}: {up!r}, {lo!r}"] * 2
            elif lo > up + SLACK:
                failures.append(f"horn_lower {lo} > horn_upper {up} at EoF {e}")
        for s, up in zip(self.sls, self.entropy):
            if isinstance(up, Exception):
                failures.append(f"entropy_upper at S_L {s}: {up!r}")
            elif s > GATE_SL:
                ref = werner_discord_closed_form(math.sqrt(1 - s))
                if abs(up - ref) > FAMILY_TOL:
                    failures.append(f"entropy_upper({s}) = {up}, Werner {ref}")
            else:
                # the b = 0 two-parameter state with this S_L lies on the
                # contour the envelope maximizes over, so it bounds it below
                a = (1 + math.sqrt(max(6 * (1 - 0.75 * s) - 2, 0.0))) / 3
                floor = measures.discord_analytic(states.Family("twoparam", a, 0.0)).value
                if not (floor - EXACT_TOL <= up <= 1.0):
                    failures.append(f"entropy_upper({s}) = {up}, below {floor}")
        return failures


WORKLOADS = {w.name: w for w in (McRandom, SingleState, BoundsCurves)}
