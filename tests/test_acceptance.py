"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line on the real terminal (outside
pytest capture) so the gate status is readable from any run log.
"""
import json

import numpy as np
import pytest
from conftest import concurrence_analytic, random_pure_state

from qdiscord.bounds import (
    horn_crossovers,
    sample_near_boundary,
    sample_random,
    split_at_pimple,
    verify_bounds,
)
from qdiscord.cli import main
from qdiscord.measures import (
    concurrence,
    discord_analytic,
    discord_numeric,
    mutual_information,
)
from qdiscord.states import (
    FAMILY_KINDS,
    Family,
    linear_entropy,
    make_family,
    random_state,
)

RANDOM_SEED = 99
NEAR_SEED = 202
N_RANDOM = 10_000
N_NEAR = 1_000
EPSILON = 1e-3


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def random_batch():
    return sample_random(N_RANDOM, RANDOM_SEED)


@pytest.fixture(scope="module")
def near_batches():
    return {
        kind: sample_near_boundary(kind, N_NEAR, EPSILON, NEAR_SEED)
        for kind in FAMILY_KINDS
    }


def _two_param_grid(n=21):
    for a in np.linspace(0, 1, n):
        for b in np.linspace(a - 1, 1 - a, n):
            yield Family("twoparam", float(a), float(b))


def test_criterion_1_pure_state_identity(report):
    worst = 0.0
    for s in range(500):
        v = random_pure_state(s)
        rho = np.outer(v, v.conj())
        rec = discord_numeric(rho)
        worst = max(worst, abs(rec.discord - rec.eof))
    report(1, "pure-state identity", worst <= 1e-4, f"max |Q-E| = {worst:.2e}")


def test_criterion_2_analytic_vs_numeric_discord(report):
    fams = (
        [Family("alpha", float(a)) for a in np.linspace(0, 1, 21)]
        + [Family("beta", float(b)) for b in np.linspace(0, 1, 21)]
        + list(_two_param_grid())
    )
    worst = 0.0
    for fam in fams:
        q_num = discord_numeric(make_family(fam)).discord
        worst = max(worst, abs(q_num - discord_analytic(fam).value))
    report(2, "analytic vs numeric discord", worst <= 1e-4,
           f"max dev = {worst:.2e} over {len(fams)} states")


def test_criterion_3_concurrence_oracles(report):
    fams = (
        [Family("alpha", float(a)) for a in np.linspace(0, 1, 21)]
        + [Family("beta", float(b)) for b in np.linspace(0, 1, 21)]
        + list(_two_param_grid())
    )
    worst = max(
        abs(concurrence(make_family(fam)) - concurrence_analytic(fam))
        for fam in fams
    )
    report(3, "concurrence oracles", worst <= 1e-10, f"max dev = {worst:.2e}")


def test_criterion_4_pimple_coordinates(report):
    fam = Family("twoparam", 1 / 3, 0.0)
    rho = make_family(fam)
    dev_sl = abs(linear_entropy(rho) - 8 / 9)
    dev_qa = abs(discord_analytic(fam).value - 1 / 3)
    dev_qn = abs(discord_numeric(rho).discord - 1 / 3)
    ok = dev_sl <= 1e-12 and dev_qa <= 1e-6 and dev_qn <= 1e-4
    report(4, "pimple coordinates", ok,
           f"dS_L = {dev_sl:.1e}, dQ_analytic = {dev_qa:.1e}, "
           f"dQ_numeric = {dev_qn:.1e}")


def test_criterion_5_crossovers(report):
    e_aw, q_aw, e_wp = horn_crossovers()
    ok = (
        abs(e_aw - 0.620) <= 0.01
        and abs(q_aw - 0.644) <= 0.01
        and abs(e_wp - 0.746) <= 0.01
    )
    report(5, "horn crossovers", ok,
           f"alpha-werner ({e_aw:.4f}, {q_aw:.4f}), werner-pure {e_wp:.4f}")


def test_criterion_6_horn_containment(report, random_batch, near_batches):
    total_viol = 0
    worst = 0.0
    margin = np.inf
    parts = [("random", random_batch)] + sorted(near_batches.items())
    for _, batch in parts:
        rep = verify_bounds(batch, "eof-q", slack=1e-6)
        total_viol += rep.n_violations
        worst = max(worst, rep.worst_violation)
        margin = min(margin, rep.min_margin)
    n = sum(len(b.records) for _, b in parts)
    report(6, "horn containment", total_viol == 0,
           f"{n} states, {total_viol} violations, worst = {worst:.2e}, "
           f"min margin = {margin:.2e}")


def test_criterion_7_entropy_containment(report, random_batch):
    gate, rest = split_at_pimple(random_batch)
    rep = verify_bounds(gate, "sl-q", slack=1e-6)
    info = ""
    if rest.records:
        irep = verify_bounds(rest, "sl-q", slack=1e-6)
        info = (f"; informational S_L > 8/9: {irep.n_checked} states, "
                f"{irep.n_violations} above two-param envelope")
    report(7, "entropy-plane containment", rep.n_violations == 0,
           f"{rep.n_checked} states with S_L <= 8/9, "
           f"{rep.n_violations} violations, min margin = {rep.min_margin:.2e}{info}")


def test_criterion_8_endpoint_sanity(report, random_batch, near_batches):
    q_mixed = discord_numeric(np.eye(4) / 4).discord
    q_bell = discord_numeric(make_family(Family("pure", 0.5))).discord
    sl_mixed = linear_entropy(np.eye(4) / 4)
    ok = abs(q_mixed) <= 1e-9 and abs(q_bell - 1) <= 1e-6 and sl_mixed == 1.0
    records = list(random_batch.records)
    for batch in near_batches.values():
        records.extend(batch.records)
    min_q = min(r.discord for r in records)
    max_gap = max(r.discord - r.mutual_info for r in records)
    ok = ok and min_q >= -1e-9 and max_gap <= 1e-9
    report(8, "endpoint sanity", ok,
           f"Q(I/4) = {q_mixed:.1e}, Q(Bell)-1 = {q_bell - 1:.1e}, "
           f"min Q = {min_q:.1e}, max Q-I = {max_gap:.1e}")


def test_criterion_9_local_unitary_invariance(report):
    from conftest import random_unitary

    rng = np.random.default_rng(2024)
    worst = 0.0
    for s in range(100):
        rho = random_state(s)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rot = u @ rho @ u.conj().T
        a, b = discord_numeric(rho), discord_numeric(rot)
        for fld in ("mutual_info", "classical_corr", "discord", "eof"):
            worst = max(worst, abs(getattr(a, fld) - getattr(b, fld)))
    report(9, "local-unitary invariance", worst <= 1e-6,
           f"100 pairs, max dev = {worst:.2e}")


def test_criterion_10_determinism(report, tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        dest = tmp_path / f"verify_{tag}.json"
        code = main([
            "verify", "--plane", "eof-q", "--n", "200", "--seed", "11",
            "--out", str(dest),
        ])
        assert code == 0
        outs.append(dest.read_bytes())
    ok = outs[0] == outs[1] and json.loads(outs[0])["n_violations"] == 0
    report(10, "determinism", ok, f"{len(outs[0])} identical bytes")
