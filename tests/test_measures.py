import mpmath
import numpy as np
import pytest

from conftest import (
    bell_diagonal_cc_oracle,
    concurrence,
    concurrence_analytic,
    linear_entropy,
    mutual_information,
    random_pure_state,
    random_unitary,
    two_param_q_edge_limit,
    two_param_q_four_term,
    written_out_random_state,
)
from qdiscord.bounds import _derived_seeds, sample_near_boundary, sample_random
from qdiscord.measures import (
    AnalyticDiscordTrace,
    UnsupportedFamily,
    alpha_discord,
    apply_measurement,
    beta_discord,
    conditional_information,
    discord_analytic,
    discord_batch,
    discord_numeric,
    eof_from_concurrence,
    measurement_pair,
    two_param_q,
    werner_discord,
)
from qdiscord.states import (
    FAMILY_KINDS,
    Family,
    NotHermitian,
    make_family,
    random_state,
    validate_state,
)

BELL = make_family(Family("pure", 0.5))
MIXED = np.eye(4, dtype=complex) / 4


def in_range_ab_grid(n=21):
    for a in np.linspace(0, 1, n):
        for b in np.linspace(-1, 1, n):
            if a - 1 <= b <= 1 - a:
                yield float(a), float(b)


class TestMeasurementPair:
    def test_computational(self):
        b1, b2 = measurement_pair(0.0, 0.0)
        assert np.allclose(b1, np.diag([1, 0]))
        assert np.allclose(b2, np.diag([0, 1]))

    def test_hadamard_basis(self):
        b1, b2 = measurement_pair(np.pi / 4, 0.0)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(b1, np.outer(plus, plus))

    def test_completeness_orthogonality(self, rng):
        for _ in range(1000):
            th = rng.uniform(0, np.pi / 2)
            ph = rng.uniform(0, 2 * np.pi)
            b1, b2 = measurement_pair(th, ph)
            assert np.max(np.abs(b1 + b2 - np.eye(2))) < 1e-14
            assert np.max(np.abs(b1 @ b1 - b1)) < 1e-14
            assert np.max(np.abs(b2 @ b2 - b2)) < 1e-14
            assert np.max(np.abs(b1 @ b2)) < 1e-14


class TestApplyMeasurement:
    def test_bell_computational(self):
        (p1, r1), (p2, r2) = apply_measurement(BELL, 0.0, 0.0)
        assert p1 == pytest.approx(0.5) and p2 == pytest.approx(0.5)
        assert np.allclose(r1, np.diag([1, 0, 0, 0]))
        assert np.allclose(r2, np.diag([0, 0, 0, 1]))

    def test_product_with_mixed_b(self, rng):
        rho_a = random_state(1)[:2, :2]
        rho_a = rho_a / np.trace(rho_a)
        rho = np.kron(rho_a, np.eye(2) / 2)
        th, ph = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        outs = apply_measurement(rho, th, ph)
        for (p, rk), b in zip(outs, measurement_pair(th, ph)):
            assert p == pytest.approx(0.5)
            assert np.allclose(rk, np.kron(rho_a, b), atol=1e-12)

    def test_zero_probability_outcome_flagged(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        (p1, r1), (p2, r2) = apply_measurement(rho, 0.0, 0.0)
        assert p1 == pytest.approx(1.0)
        assert p2 == pytest.approx(0.0, abs=1e-14)
        assert r2 is None

    def test_probabilities_sum_to_one(self, rng):
        for s in range(20):
            outs = apply_measurement(
                random_state(s), rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
            )
            assert sum(p for p, _ in outs) == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_product(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])).astype(complex)
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell(self):
        assert mutual_information(BELL) == pytest.approx(2.0)

    def test_two_param_pimple(self):
        rho = make_family(Family("twoparam", 1 / 3, 0.0))
        assert mutual_information(rho) == pytest.approx(2 - np.log2(3), abs=1e-12)
        assert mutual_information(rho) == pytest.approx(0.415037, abs=1e-6)


class TestConditionalInformation:
    def test_bell_computational(self):
        assert conditional_information(BELL, 0.0, 0.0) == pytest.approx(1.0)

    def test_classically_correlated(self):
        rho = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert conditional_information(rho, 0.0, 0.0) == pytest.approx(1.0)
        assert conditional_information(rho, np.pi / 4, 0.0) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_maximally_mixed(self, rng):
        th, ph = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        assert conditional_information(MIXED, th, ph) == pytest.approx(0.0, abs=1e-12)

    def test_canonical_angles_preserve_objective(self, rng):
        # the projector pair, so the objective, is invariant under
        # theta -> -theta, phi -> phi + pi and theta -> pi - theta,
        # phi -> phi + pi; together with the periods they reduce any pair
        # to theta in [0, pi/2], phi in [0, 2 pi)
        rho = random_state(8)
        for _ in range(20):
            th = rng.uniform(-np.pi, 2 * np.pi)
            ph = rng.uniform(-np.pi, 4 * np.pi)
            ref = conditional_information(rho, th, ph)
            for t, p in ((-th, ph + np.pi), (np.pi - th, ph + np.pi)):
                assert conditional_information(rho, t, p) == pytest.approx(
                    ref, abs=1e-12
                )
            tc, pc = th % np.pi, ph
            if tc > np.pi / 2:
                tc, pc = np.pi - tc, pc + np.pi
            pc %= 2 * np.pi
            assert 0 <= tc <= np.pi / 2 and 0 <= pc < 2 * np.pi
            assert conditional_information(rho, tc, pc) == pytest.approx(
                ref, abs=1e-12
            )


class TestClassicalCorrelation:
    def test_bell(self):
        val = discord_numeric(BELL).classical_corr
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_product(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])).astype(complex)
        val = discord_numeric(rho).classical_corr
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_two_param_pimple_vs_oracle(self):
        rho = make_family(Family("twoparam", 1 / 3, 0.0))
        val = discord_numeric(rho).classical_corr
        assert val == pytest.approx(bell_diagonal_cc_oracle(rho), abs=1e-8)
        assert val == pytest.approx(0.081704, abs=1e-6)

    @pytest.mark.parametrize("xi", [0.2, 0.5, 0.8, 1.0])
    def test_werner_vs_bell_diagonal_oracle(self, xi):
        rho = make_family(Family("werner", xi))
        val = discord_numeric(rho).classical_corr
        assert val == pytest.approx(bell_diagonal_cc_oracle(rho), abs=1e-8)

    def test_argmax_consistency(self):
        for s in range(20):
            rho = random_state(s)
            rec = discord_numeric(rho)
            val, th, ph = rec.classical_corr, rec.theta_opt, rec.phi_opt
            assert conditional_information(rho, th, ph) == pytest.approx(
                val, abs=1e-10
            )


class TestSpinFlipAndConcurrence:
    def test_product_pure_concurrence_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        assert concurrence(rho) == 0.0

    def test_werner_one_maximally_entangled(self):
        assert concurrence(make_family(Family("werner", 1.0))) == pytest.approx(1.0)

    def test_bell_and_mixed(self):
        assert concurrence(BELL) == pytest.approx(1.0)
        assert concurrence(MIXED) == 0.0

    def test_alpha_concurrence(self):
        assert concurrence(make_family(Family("alpha", 0.75))) == pytest.approx(0.5)


class TestEof:
    def test_extremes(self):
        assert eof_from_concurrence(1.0) == pytest.approx(1.0)
        assert eof_from_concurrence(0.0) == 0.0

    def test_half(self):
        # h((1 + sqrt(0.75))/2) to 40 digits: 0.3545789026652698842...
        assert eof_from_concurrence(0.5) == pytest.approx(0.3545789026652699, abs=1e-12)

    def test_array_matches_scalar_bit_for_bit(self, rng):
        cs = np.concatenate([[0.0, 1.0, -0.5, 1.5, 1e-300], rng.uniform(0, 1, 500)])
        values = eof_from_concurrence(cs)
        assert isinstance(values, np.ndarray) and values.shape == cs.shape
        scalars = [eof_from_concurrence(float(c)) for c in cs]
        assert all(isinstance(v, float) for v in scalars)
        assert values.tobytes() == np.array(scalars).tobytes()
        assert (values[0], values[1]) == (0.0, 1.0)

    def test_relative_error_against_mpmath(self):
        # Wootters' E(C) = h(y), y = (1 - sqrt(1 - C^2))/2, in 60 digits: on
        # log-spaced C in 1e-16 ... 1e-1, where 1 - x of the h(x) form
        # cancels, and on 2 000 points of [1e-3, 1]; at most 9.2e-16 measured
        cs = np.concatenate([np.logspace(-16, -1, 151), np.linspace(1e-3, 1, 2000)])
        for c, value in zip(cs, eof_from_concurrence(cs)):
            with mpmath.workdps(60):
                y = (1 - mpmath.sqrt(1 - mpmath.mpf(c) ** 2)) / 2
                ref = -(y * mpmath.log(y) + (1 - y) * mpmath.log1p(-y)) / mpmath.ln2
                assert abs(value - ref) <= 1e-15 * ref, c
        for zero in (eof_from_concurrence(0.0), eof_from_concurrence(np.zeros(2))[0]):
            assert zero == 0.0 and not np.signbit(zero)


class TestDiscordNumeric:
    def test_bell(self):
        assert discord_numeric(BELL).discord == pytest.approx(1.0, abs=1e-6)

    def test_maximally_mixed(self):
        assert discord_numeric(MIXED).discord == pytest.approx(0.0, abs=1e-9)

    def test_alpha_half(self):
        rec = discord_numeric(make_family(Family("alpha", 0.5)))
        assert rec.discord == pytest.approx(0.311278, abs=1e-4)

    def test_two_param_pimple(self):
        rec = discord_numeric(make_family(Family("twoparam", 1 / 3, 0.0)))
        assert rec.discord == pytest.approx(1 / 3, abs=1e-4)

    def test_record_invariants(self):
        for s in range(50):
            rec = discord_numeric(random_state(s))
            assert rec.discord == pytest.approx(
                rec.mutual_info - rec.classical_corr, abs=1e-10
            )
            assert rec.discord >= -1e-9
            assert rec.classical_corr >= -1e-9
            assert rec.discord <= rec.mutual_info + 1e-9

    def test_pure_state_identity_sample(self):
        for s in range(50):
            v = random_pure_state(s)
            rec = discord_numeric(np.outer(v, v.conj()))
            assert abs(rec.discord - rec.eof) <= 1e-4

    @pytest.mark.parametrize("p", [1e-12, 5e-13, 1e-13, 1e-14, 1 - 1e-13])
    def test_pure_family_small_schmidt_weight(self, p):
        # Q = J = h(p) and I = 2 h(p) exactly. A Schmidt weight at or below
        # the 1e-12 cut on eigh's eigenvalues is real, not round-off, and
        # I and J must read the same S(rho_A) for it
        with mpmath.workdps(50):
            x = mpmath.mpf(p)
            h = float(-(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.ln2)
        rec = discord_numeric(make_family(Family("pure", p)))
        assert rec.discord >= 0
        assert rec.mutual_info >= rec.classical_corr
        assert abs(rec.discord - h) <= 1e-14
        assert abs(rec.mutual_info - 2 * h) <= 2e-14

    def test_local_unitary_invariance_sample(self, rng):
        for s in range(20):
            rho = random_state(s)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            r1 = discord_numeric(rho)
            r2 = discord_numeric(u @ rho @ u.conj().T)
            assert abs(r1.discord - r2.discord) <= 1e-6
            assert abs(r1.concurrence - r2.concurrence) <= 1e-6
            assert abs(r1.eof - r2.eof) <= 1e-6
            assert abs(r1.linear_entropy - r2.linear_entropy) <= 1e-6


class TestAnalyticDiscord:
    def test_alpha_bell(self):
        tr = discord_analytic(Family("alpha", 1.0))
        assert tr.value == pytest.approx(1.0)
        assert tr.zeta == pytest.approx(1.0)

    def test_beta(self):
        assert discord_analytic(Family("beta", 0.5)).value == 0.0
        assert discord_analytic(Family("beta", 0.9)).value == pytest.approx(
            0.531004, abs=1e-6
        )

    def test_two_param_pimple_branch(self):
        tr = discord_analytic(Family("twoparam", 1 / 3, 0.0))
        assert tr.value == pytest.approx(1 / 3, abs=1e-12)
        assert tr.q == pytest.approx(1 / 3, abs=1e-12)
        assert tr.branch == "a = q (pimple)"

    def test_min_of_a_and_q(self):
        for a, b in in_range_ab_grid(9):
            tr = discord_analytic(Family("twoparam", a, b))
            assert tr.value == min(a, tr.q)

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            discord_analytic(Family("werner", 0.5))
        with pytest.raises(UnsupportedFamily):
            discord_analytic(Family("pure", 0.5))

    def test_q_even_in_b(self, rng):
        for _ in range(30):
            a = rng.uniform(0, 1)
            b = rng.uniform(0, 1 - a)
            assert two_param_q(a, b) == pytest.approx(two_param_q(a, -b), abs=1e-12)

    def test_q_edge_limit_matches_interior(self):
        # divergences cancel on |b| = 1 - a; spot-check the closed-form limit
        for a in (0.2, 0.5, 0.8):
            lim = two_param_q(a, 1 - a)
            near = two_param_q(a, (1 - a) - 1e-9)
            assert lim == pytest.approx(near, abs=1e-6)


class TestCollectedQ:
    """two_param_q against the four-term form and its edge limit."""

    def test_matches_four_term_form_inside(self):
        a, b = np.meshgrid(np.linspace(0, 1, 401), np.linspace(-1, 1, 801))
        keep = (1 - a - b >= 1e-3) & (1 - a + b >= 1e-3)
        a, b = a[keep], b[keep]
        assert np.max(np.abs(two_param_q(a, b) - two_param_q_four_term(a, b))) <= 1e-11

    def test_finite_on_edge_and_corners(self):
        a = np.linspace(0, 1, 1001)
        inner = slice(1, -1)  # the edge limit is singular at a = 0 and a = 1
        for b in (1 - a, a - 1):
            q = two_param_q(a, b)
            assert np.all(np.isfinite(q))
            assert np.max(np.abs(q[inner] - two_param_q_edge_limit(a[inner]))) <= 1e-12
        assert two_param_q(1.0, 0.0) == 1.0
        assert two_param_q(0.0, 1.0) == 0.0
        assert two_param_q(0.0, -1.0) == 0.0

    def test_branch_labels_kept(self):
        # labels as given by the four-term form, its edge limit within 1e-12
        # of the edge, and +inf at its singular points
        pts = list(in_range_ab_grid(21))
        pts += [(a, s * (1 - a)) for a in np.linspace(0, 1, 17) for s in (1, -1)]
        for a, b in pts:
            on_edge = abs(abs(b) - (1 - a)) <= 1e-12 and 1e-12 < a < 1 - 1e-12
            q = float(two_param_q_edge_limit(a) if on_edge else two_param_q_four_term(a, b))
            if abs(a - q) <= 1e-12:
                expect = "a = q (pimple)"
            else:
                expect = "a" if a < q else "q"
            assert discord_analytic(Family("twoparam", a, b)).branch == expect, (a, b)


class TestAnalyticVsNumeric:
    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_alpha(self, a):
        num = discord_numeric(make_family(Family("alpha", a))).discord
        assert num == pytest.approx(discord_analytic(Family("alpha", a)).value, abs=1e-4)

    @pytest.mark.parametrize("b", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_beta(self, b):
        num = discord_numeric(make_family(Family("beta", b))).discord
        assert num == pytest.approx(discord_analytic(Family("beta", b)).value, abs=1e-4)

    @pytest.mark.parametrize("ab", [(0.8, -0.2), (0.5, 0.25), (0.9, 0.05), (0.1, 0.6)])
    def test_two_param_spot(self, ab):
        a, b = ab
        num = discord_numeric(make_family(Family("twoparam", a, b))).discord
        assert num == pytest.approx(
            discord_analytic(Family("twoparam", a, b)).value, abs=1e-4
        )


class TestAnalyticConcurrence:
    def test_values(self):
        assert concurrence_analytic(Family("alpha", 0.3)) == 0.0
        assert concurrence_analytic(Family("beta", 0.0)) == 1.0
        assert concurrence_analytic(Family("twoparam", 1 / 3, 0.0)) == 0.0

    def test_matches_wootters(self):
        for a, b in in_range_ab_grid(11):
            fam = Family("twoparam", a, b)
            assert concurrence(make_family(fam)) == pytest.approx(
                concurrence_analytic(fam), abs=1e-10
            )
        for x in np.linspace(0, 1, 11):
            for kind in ("alpha", "beta"):
                fam = Family(kind, float(x))
                assert concurrence(make_family(fam)) == pytest.approx(
                    concurrence_analytic(fam), abs=1e-10
                )

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            concurrence_analytic(Family("werner", 0.5))


class TestWernerClosedForm:
    XIS = np.concatenate([[-1 / 3, 0.0, 1 / 3, 1.0], np.linspace(-1 / 3, 1, 48)[1:-1]])

    def test_against_numeric(self):
        assert len(self.XIS) == 50
        for xi in self.XIS:
            num = discord_numeric(make_family(Family("werner", float(xi)))).discord
            assert werner_discord(xi) == pytest.approx(num, abs=1e-9)

    def test_against_bell_diagonal_oracle(self):
        for xi in self.XIS:
            rho = make_family(Family("werner", float(xi)))
            assert werner_discord(xi) == pytest.approx(
                mutual_information(rho) - bell_diagonal_cc_oracle(rho), abs=1e-12
            )

    def test_endpoints(self):
        assert werner_discord(0.0) == 0.0
        assert werner_discord(1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "fn,xs",
    [
        (lambda x: alpha_discord(x)[0], np.linspace(0, 1, 101)),
        (lambda x: alpha_discord(x)[1], np.linspace(0, 1, 101)),
        (beta_discord, np.linspace(0, 1, 101)),
        (werner_discord, np.linspace(-1 / 3, 1, 101)),
    ],
)
def test_family_closed_forms_elementwise(fn, xs):
    scalar = [fn(float(x)) for x in xs]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(fn(xs), scalar)


def _record_test_states():
    rng = np.random.default_rng(7)
    out = [random_state(s) for s in range(40)]
    for kind in ("werner", "alpha", "beta", "pure"):
        out += [make_family(Family(kind, float(x))) for x in np.linspace(0, 1, 9)]
    out += [make_family(Family("twoparam", a, b)) for a, b in in_range_ab_grid(7)]
    # Schmidt weights whose entropy terms straddle the 1e-12 eigenvalue clip
    out += [make_family(Family("pure", lam)) for lam in (1e-13, 1e-11, 1 - 1e-13)]
    for s in range(10):  # near-pure: a pure state mixed with 1e-9 of noise
        v = random_pure_state(s)
        out.append((1 - 1e-9) * np.outer(v, v.conj()) + 1e-9 * random_state(100 + s))
    for rank in (1, 2, 3):  # rank-deficient: T T^dag with T of rank < 4
        for _ in range(5):
            t = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            m = t @ t.conj().T
            out.append(m / np.trace(m).real)
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    out.append(np.outer(v, v))  # pure product state
    return out


def test_batched_record_measures_match_reference():
    rhos = _record_test_states()
    for rho, rec in zip(rhos, discord_batch(rhos)):
        assert abs(rec.mutual_info - mutual_information(rho)) <= 1e-12
        assert abs(rec.concurrence - concurrence(rho)) <= 1e-12
        assert abs(rec.linear_entropy - linear_entropy(rho)) <= 1e-12
        assert rec.eof == eof_from_concurrence(rec.concurrence)


def test_non_hermitian_rejected():
    rho = random_state(3)
    rho[0, 1] += 1e-6
    with pytest.raises(NotHermitian):
        discord_numeric(rho)
    with pytest.raises(NotHermitian):
        discord_batch([random_state(1), rho])


def test_sample_random_records_match_written_out_states():
    batch = sample_random(50, 3)
    assert batch.seeds == _derived_seeds(3, 50)
    rhos = [written_out_random_state(s) for s in batch.seeds]
    assert batch.records == discord_batch(rhos)


def test_sample_near_boundary_records_match_written_out_states():
    eps = 1e-3
    batch = sample_near_boundary("alpha", 30, eps, 5)
    assert batch.seeds == _derived_seeds(5, 30)
    rhos = [
        validate_state(
            (1 - eps) * make_family(fam) + eps * written_out_random_state(s)
        )
        for fam, s in zip(batch.families, batch.seeds)
    ]
    assert batch.records == discord_batch(rhos)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_near_boundary_stack_matches_per_state_build(kind):
    # the mixtures are formed and validated as one stack; each must equal the
    # per-state mixture of the family member and its seed's random state
    eps = 0.3
    batch = sample_near_boundary(kind, 12, eps, 8)
    rhos = [
        validate_state(
            (1 - eps) * make_family(fam) + eps * written_out_random_state(s)
        )
        for fam, s in zip(batch.families, batch.seeds)
    ]
    assert batch.records == discord_batch(rhos)
