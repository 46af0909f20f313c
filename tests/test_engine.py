"""The batched discord engine: independence of batch and chunk size, an
independent optimizer oracle on degenerate and near-tie landscapes, the
fixed search budget against far larger searches, the start directions read
off the state, the non-convergence contract and the bits of the records."""
import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import (
    PAULI,
    bell_diagonal_cc_oracle,
    dense_classical_correlation,
    marginal_entropy_a,
    random_unitary,
)
from scipy.optimize import minimize

from qdiscord import io, measures
from qdiscord.bounds import sample_random
from qdiscord.measures import (
    OptimizerDidNotConverge,
    conditional_information,
    discord_batch,
    discord_numeric,
)
from qdiscord.states import (
    FAMILY_KINDS,
    FAMILY_RANGES,
    PSD_TOL,
    Family,
    NotPositive,
    StateError,
    make_family,
    random_state,
    random_states,
    validate_state,
    validate_states,
)

EPSILON = 1e-3
# B-side rotation taking the z axis to the x axis: the reference optimizer
# also runs in this rotated angle chart, so no optimum sits only at a pole
HADAMARD_B = np.kron(np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def classical_corrs(rhos):
    """The classical correlations of a batch, from discord_batch's records."""
    return np.array([rec.classical_corr for rec in discord_batch(rhos)])


def reference_classical_correlation(rho):
    """Multi-start Nelder-Mead on the reference conditional_information.

    A 10 x 20 angle grid picks four starts per chart; the answer is the best
    of the eight refined values. Shares no code with the batched engine.
    """
    best = -np.inf
    for r in (rho, HADAMARD_B @ rho @ HADAMARD_B):
        grid = [
            (conditional_information(r, th, ph), th, ph)
            for th in np.linspace(0, np.pi / 2, 10)
            for ph in np.linspace(0, 2 * np.pi, 20, endpoint=False)
        ]
        grid.sort(key=lambda t: -t[0])
        for _, th, ph in grid[:4]:
            res = minimize(
                lambda x: -conditional_information(r, x[0], x[1]),
                x0=[th, ph],
                method="Nelder-Mead",
                options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000},
            )
            best = max(best, -res.fun)
    return best


def _family(kind, u, rng):
    if kind == "werner":
        return Family("werner", -1 / 3 + (4 / 3) * u)
    if kind == "twoparam":
        return Family("twoparam", u, float(rng.uniform(u - 1, 1 - u)))
    return Family(kind, u)


def family_mixtures(per_kind, epsilon=EPSILON):
    rng = np.random.default_rng(31)
    out = []
    for kind in FAMILY_KINDS:
        for u in (np.arange(per_kind) + 0.5) / per_kind:
            fam = _family(kind, float(u), rng)
            noise = random_state(int(rng.integers(0, 2**63 - 1)))
            rho = (1 - epsilon) * make_family(fam) + epsilon * noise
            out.append((fam, validate_state(rho)))
    return out


def near_tie_bell_diagonal(count, rotate):
    """Bell-diagonal states whose two largest |c_i| differ by 1e-3 relative,
    at random axes and signs, optionally under a random local unitary.

    S(A|Pi_n) depends on n only through sum c_i^2 n_i^2, so the landscape
    has its minimum on the largest |c_i| axis and a saddle on the
    runner-up axis, only 1e-3 relative apart. Returns (state, unrotated
    state) pairs; the oracle reads the unrotated one.
    """
    rng = np.random.default_rng(77)
    out = []
    while len(out) < count:
        big = rng.uniform(0.05, 0.95)
        mags = [big, big * (1 - 1e-3), rng.uniform(0, big * (1 - 1e-3))]
        c = rng.permutation(mags) * rng.choice([-1.0, 1.0], size=3)
        corr = sum(ci * np.kron(p, p) for ci, p in zip(c, PAULI.values()))
        rho = 0.25 * (np.eye(4) + corr)
        if np.linalg.eigvalsh(rho)[0] < 0:
            continue
        u = np.kron(random_unitary(rng), random_unitary(rng)) if rotate else np.eye(4)
        out.append((u @ rho @ u.conj().T, rho))
    return out


def x_states(rng, count, rotate):
    """Random X states (populations and the two coherences), optionally under
    a random local unitary."""
    out = []
    for _ in range(count):
        p = rng.dirichlet(np.ones(4))
        rho = np.diag(p).astype(complex)
        for (i, j), bound in (((0, 3), p[0] * p[3]), ((1, 2), p[1] * p[2])):
            z = np.sqrt(bound) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            rho[i, j], rho[j, i] = z, np.conj(z)
        if rotate:
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rho = u @ rho @ u.conj().T
        out.append(rho)
    return out


def ginibre_states(rng, count, rank):
    """G G^dagger / Tr for a complex Gaussian 4 x rank matrix G."""
    out = []
    for _ in range(count):
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        out.append(rho / np.trace(rho).real)
    return out


def near_pure_mixtures(rng, count):
    """(1 - eps) |psi><psi| + eps sigma with eps = 10^U(-8, -0.5), psi a
    random pure state and sigma a full-rank Ginibre state. The landscape is
    flat at eps = 0 and shaped by sigma, so it can hold several shallow
    basins that no direction read off the state points to."""
    psis = ginibre_states(rng, count, 1)
    noise = ginibre_states(rng, count, 4)
    eps = 10 ** rng.uniform(-8, -0.5, count)
    return [(1 - e) * p + e * n for e, p, n in zip(eps, psis, noise)]


def near_tie_with_local_vectors(rng, count):
    """Bell-diagonal correlations whose two largest |c_i| differ by up to
    1e-3 relative, plus local Bloch vectors r, s of length up to 0.3, half of
    them under a random local unitary."""
    out = []
    while len(out) < count:
        big = rng.uniform(0.05, 0.95)
        mags = [big, big * (1 - rng.uniform(0, 1e-3)), rng.uniform(0, big)]
        c = rng.permutation(mags) * rng.choice([-1.0, 1.0], size=3)
        r, s = (
            v * rng.uniform(0, 0.3) / np.linalg.norm(v) for v in rng.normal(size=(2, 3))
        )
        rho = np.eye(4, dtype=complex)
        for ci, ri, si, p in zip(c, r, s, PAULI.values()):
            rho += ci * np.kron(p, p)
            rho += ri * np.kron(p, np.eye(2)) + si * np.kron(np.eye(2), p)
        rho /= 4
        if np.linalg.eigvalsh(rho)[0] < 0:
            continue
        if rng.uniform() < 0.5:
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rho = u @ rho @ u.conj().T
        out.append(rho)
    return out


def degenerate_states(rng):
    """I/4 (T = 0, s = 0), Werner states (T proportional to I, s = 0) and
    random product pure states (T of rank 1)."""
    out = [np.eye(4, dtype=complex) / 4]
    out += [make_family(Family("werner", xi)) for xi in np.linspace(-1 / 3, 1, 9)]
    for _ in range(20):
        v = np.kron(*(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
        v /= np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return out


class TestBatchIndependence:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_csv_bytes_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        # chunk float64 states per scan call (and per refinement block), so
        # twice as many float32 ones; with the default _F32_MIN a block of
        # fewer states takes the float64 scan alone, and with _F32_MIN = 1
        # every block ranks its starts in float32
        n, seed = 20, 5
        reference = io.csv_text(sample_random(n, seed))
        budget = (chunk or n) * 8 * measures._STARTS
        monkeypatch.setattr(measures, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(measures, "_BLOCK_STATES", chunk or n)
        assert io.csv_text(sample_random(n, seed)) == reference
        monkeypatch.setattr(measures, "_F32_MIN", 1)
        assert io.csv_text(sample_random(n, seed)) == reference

    def test_single_state_equals_its_batch_row(self):
        rhos = [random_state(s) for s in range(12)] + [
            rho for _, rho in family_mixtures(1)
        ]
        records = discord_batch(rhos)
        for i, rho in enumerate(rhos):
            assert discord_numeric(rho) == records[i]

    def test_empty_batch(self):
        for empty in (np.empty((0, 4, 4)), [], ()):
            assert discord_batch(empty) == []
            assert validate_states(empty).shape == (0, 4, 4)


class TestOptimizerOracle:
    @pytest.mark.parametrize(
        "fam,rho", family_mixtures(3), ids=lambda v: getattr(v, "kind", "")
    )
    def test_family_mixture_matches_reference(self, fam, rho):
        rec = discord_numeric(rho)
        value, theta, phi = rec.classical_corr, rec.theta_opt, rec.phi_opt
        ref = reference_classical_correlation(rho)
        assert abs(value - ref) <= 1e-8, (fam, value, ref)
        assert value == pytest.approx(
            conditional_information(rho, theta, phi), abs=1e-12
        )

    def test_random_batch_matches_reference(self):
        rhos = [random_state(s) for s in range(300, 310)]
        values = classical_corrs(rhos)
        for rho, value in zip(rhos, values):
            assert abs(value - reference_classical_correlation(rho)) <= 1e-8


class TestDefaultBudget:
    """The fixed budget (one start from a coarse grid) must find the same
    optimum as a far larger search, on the landscapes it could get wrong."""

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_near_tie_bell_diagonal_matches_oracle(self, rotate):
        pairs = near_tie_bell_diagonal(60, rotate)
        values = classical_corrs([rho for rho, _ in pairs])
        for value, (_, diag) in zip(values, pairs):
            assert abs(value - bell_diagonal_cc_oracle(diag)) <= 1e-10

    @pytest.mark.parametrize(
        "epsilon", [None, 1e-6, 1e-3], ids=["random", "1e-6", "1e-3"]
    )
    def test_matches_a_larger_search(self, epsilon):
        if epsilon is None:
            rhos = [random_state(s) for s in range(1000, 1200)]
        else:
            rhos = [rho for _, rho in family_mixtures(20, epsilon)]
        values = classical_corrs(rhos)
        wide = dense_classical_correlation(rhos, grid_theta=90, grid_phi=180)
        assert np.max(np.abs(values - wide)) <= 1e-11


def bloch_rotation(u):
    """R_ij = Tr(sigma_i u sigma_j u^dagger) / 2: the rotation of Bloch
    vectors that the qubit unitary u makes."""
    p = list(PAULI.values())
    return np.array(
        [[0.5 * np.trace(a @ u @ b @ u.conj().T).real for b in p] for a in p]
    )


class TestStateDirections:
    def test_singular_vectors_of_t_and_direction_of_s(self):
        # T = R_A diag(c) R_B^T and s = R_B s0 after the local unitary, so
        # the right singular vectors of T are the columns of R_B
        rng = np.random.default_rng(5)
        c, s0 = np.array([0.5, -0.3, 0.1]), np.array([0.0, 0.1, 0.2])
        rho = np.eye(4, dtype=complex)
        for ci, si, p in zip(c, s0, PAULI.values()):
            rho += ci * np.kron(p, p) + si * np.kron(np.eye(2), p)
        ub = random_unitary(rng)
        u = np.kron(random_unitary(rng), ub)
        rho = u @ (rho / 4) @ u.conj().T
        nx, ny, nz = measures._state_directions(measures._fano(rho[None]))
        dirs = np.stack([nx[0], ny[0], nz[0]], axis=1)
        rb = bloch_rotation(ub)
        overlap = np.abs(dirs[:3] @ rb)
        assert np.allclose(np.sort(overlap, axis=1)[:, -1], 1.0, atol=1e-12)
        assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-12)
        assert np.allclose(dirs[3], rb @ s0 / np.linalg.norm(s0), atol=1e-12)

    def test_s_zero_falls_back_to_the_z_axis(self):
        nx, ny, nz = measures._state_directions(measures._fano((np.eye(4) / 4)[None]))
        assert (nx[0, 3], ny[0, 3], nz[0, 3]) == (0.0, 0.0, 1.0)


def hermitian_from_upper(values):
    """The 4 x 4 Hermitian matrix with the upper triangle values, row-major
    from (0, 0) to (3, 3)."""
    rho = np.zeros((4, 4), dtype=complex)
    rows, cols = np.triu_indices(4)
    rho[rows, cols] = values
    rho[cols, rows] = np.conj(values)
    return rho


STATE_SETS = {
    "x": (41, lambda rng: x_states(rng, 100, rotate=False)),
    "x-rotated": (42, lambda rng: x_states(rng, 100, rotate=True)),
    "rank-1": (43, lambda rng: ginibre_states(rng, 100, 1)),
    "rank-2": (44, lambda rng: ginibre_states(rng, 100, 2)),
    "rank-3": (45, lambda rng: ginibre_states(rng, 100, 3)),
    "near-pure": (46, lambda rng: near_pure_mixtures(rng, 200)),
    "near-tie-local": (47, lambda rng: near_tie_with_local_vectors(rng, 100)),
    "degenerate": (48, degenerate_states),
}


# States of near_pure_mixtures(np.random.default_rng(seed), 1500) that a
# coarser grid than the 16 x 32 default misses, by their shortfall against
# the dense search; the default matches it within 1.5e-15 on each
NEAR_PURE_GRID_MARGIN = {
    # 12 x 24 and 10 x 20 fall 1.06e-7 short
    "seed113-state456": [
        0.25678031924137484,
        -0.0010669980717800246 - 0.36964209498914524j,
        -0.05215549513164928 - 0.10720030186802126j,
        -0.11758231729124316 - 0.16169869914794516j,
        0.5321480398840025,
        0.15454038786268387 - 0.07464719873190388j,
        0.2332523290206406 - 0.16860362098951173j,
        0.05536523595635573,
        0.09139283176465123 - 0.016249930300449456j,
        0.15570640491826704,
    ],
    # 12 x 24 falls 7.28e-7 short
    "seed127-state662": [
        0.018818661486055103,
        -0.008123136016292226 + 0.10692732480187503j,
        -0.012354662554806056 + 0.004276684918424339j,
        0.0027113343580617197 + 0.0820839314190607j,
        0.6127576520629688,
        0.029726776703388202 + 0.06854574623694883j,
        0.46638398176362544 - 0.050881792914911225j,
        0.009167503877689717,
        0.01695984462800241 - 0.05462077443465247j,
        0.35925618257328645,
    ],
    # 10 x 20 falls 9.13e-6 short
    "seed116-state1156": [
        0.8217431956897759,
        0.24564232745774842 + 0.028660982300582456j,
        0.1167821852956547 - 0.23576652869735795j,
        0.11965011929480344 - 0.03804273366318809j,
        0.0746407252906473,
        0.026669940453275254 - 0.0746084980864934j,
        0.034448812933028254 - 0.015589582610704773j,
        0.08430983411721232,
        0.027902611413296093 + 0.02895532316039771j,
        0.019306244902364243,
    ],
    # 8 x 16 falls 5.04e-7 short
    "seed109-state1389": [
        0.02663119905367003,
        -0.057478970791951196 - 0.1478734919026995j,
        -0.014521966785847816 + 0.004761442238425223j,
        -0.013934497515717771 + 0.015265285938281395j,
        0.9481411104280119,
        0.00490944636833302 - 0.09112190864569676j,
        -0.05479011375221252 - 0.1110269979408324j,
        0.00884576911822408,
        0.010386899935644959 - 0.005863261031816659j,
        0.01638192140009393,
    ],
    # 6 x 12 falls 1.08e-4 short
    "seed101-state1165": [
        0.2566923449340516,
        0.06913401469655486 + 0.03049346185006443j,
        0.0333033356465583 + 0.3891353486662743j,
        -0.12769796438664346 + 0.12614980610167187j,
        0.02254741731636854,
        0.05512434233611925 + 0.1009240099053418j,
        -0.019476137278542763 + 0.04925342579314061j,
        0.5949505014864572,
        0.17455126420926534 + 0.21025132258877585j,
        0.12580973626312275,
    ],
    # 6 x 12 falls 2.24e-6 short
    "seed101-state1206": [
        0.06039970853531565,
        0.07676241132648172 - 0.05878158844050995j,
        0.07437973162367298 + 0.07299809553387308j,
        0.18599708034919923 + 0.0441032428271498j,
        0.15477633420426723,
        0.023485452238872075 + 0.16516632647969873j,
        0.19346871490036693 + 0.2370791744108601j,
        0.1798268340068905,
        0.28235621427834523 - 0.17048891778869732j,
        0.6049971232535266,
    ],
}


class TestDenseOracle:
    """The engine's start set (a small grid plus T's singular vectors and s)
    against a 120 x 240 grid with 8 starts."""

    @pytest.mark.parametrize("name", list(STATE_SETS))
    def test_default_matches_dense_search(self, name):
        seed, make = STATE_SETS[name]
        rhos = make(np.random.default_rng(seed))
        values = classical_corrs(rhos)
        dense = dense_classical_correlation(rhos)
        assert np.max(np.abs(values - dense)) <= 1e-12

    def test_shallow_near_pure_landscape(self):
        # found by a hill climb on the deficit against the dense search: a
        # refinement that took a flat 1.8e-5 stencil for convergence stopped
        # 4.2e-12 short
        rho = hermitian_from_upper(
            [
                0.09285962757091573,
                -0.013830236771385226 - 0.0695390902638127j,
                -0.12019913382467542 + 0.03334208918492299j,
                -0.24698921430547868 + 0.051375694856430745j,
                0.05415350217728721,
                -0.007060946419348555 - 0.09497915017611962j,
                -0.001668529769917477 - 0.1926043073399476j,
                0.16756433334868595,
                0.33815884195104584 + 0.022184544990165728j,
                0.6854225369031112,
            ]
        )
        value = discord_numeric(rho).classical_corr
        assert abs(value - dense_classical_correlation([rho])[0]) <= 1e-12

    def test_near_pure_basin_only_the_grid_finds(self):
        # near_pure_mixtures seed 106, state 59: its optimum lies in a basin
        # that none of the four state directions points to. With a 3 x 2
        # grid and those directions the engine falls 7.3e-5 short of the
        # dense search; the 16 x 32 grid finds it
        rho = hermitian_from_upper(
            [
                0.04762948743268192,
                -0.08821344933983027 + 0.013119495231446232j,
                0.07233846241545419 - 0.05542651951106723j,
                -0.1561357046168551 + 0.06565477490575686j,
                0.1687679972503328,
                -0.15012906080536517 + 0.08331928596230699j,
                0.30997238739422317 - 0.07922648675603457j,
                0.17529221938909123,
                -0.3151763891113426 - 0.08315798313697752j,
                0.6083102959278941,
            ]
        )
        value = discord_numeric(rho).classical_corr
        assert abs(value - dense_classical_correlation([rho])[0]) <= 1e-12

    @pytest.mark.parametrize("name", list(NEAR_PURE_GRID_MARGIN))
    def test_near_pure_state_a_coarser_grid_misses(self, name):
        rho = hermitian_from_upper(NEAR_PURE_GRID_MARGIN[name])
        value = discord_numeric(rho).classical_corr
        assert abs(value - dense_classical_correlation([rho])[0]) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="known miss of the 16 x 32 default: it falls 2.36e-10 short of "
        "the dense search, refining a shallow basin near n = (-0.938, 0.100, "
        "-0.333) instead of the optimum near (-0.639, 0.175, -0.749)",
    )
    def test_near_pure_state_the_default_misses(self):
        # near_pure_mixtures seed 113, state 452 (eps about 3e-8); a 240 x 480
        # grid with 16 starts agrees with the dense search to 1.4e-15
        rho = hermitian_from_upper(
            [
                0.05642214623557276,
                -0.13829141253416866 + 0.024138862703054306j,
                0.06212220688975886 + 0.04741600304570109j,
                -0.11011086764950133 - 0.12369167987831378j,
                0.3492813365738729,
                -0.13197654113112117 - 0.14279475001199196j,
                0.21696465788788274 + 0.35027824481929104j,
                0.10824555505661357,
                -0.22518278687487428 - 0.04365276981904928j,
                0.4860509621339408,
            ]
        )
        value = discord_numeric(rho).classical_corr
        assert abs(value - dense_classical_correlation([rho])[0]) <= 1e-12

    def test_full_rank_state_converges_under_the_default(self):
        # found by a hill climb on Q - horn_upper over general states: purity
        # about 0.40, T's two largest singular values within 2 % of each
        # other. The finite-difference stencil refinement raised
        # OptimizerDidNotConverge on it at _MAX_ITER = 500.
        rho = hermitian_from_upper(
            [
                0.3100385979325583,
                0.10368699918843526 - 0.13201822908104452j,
                -0.038595822556582025 - 0.1048321441519785j,
                0.039116855019248636 - 0.09776529584867213j,
                0.23074112638045002,
                -0.05724548579738963 - 0.03451683204937618j,
                0.04949499847324378 + 0.06981638194324821j,
                0.21117366460512174,
                -0.015211633930828894 + 0.09209825967460256j,
                0.24804661108186987,
            ]
        )
        value = discord_numeric(rho).classical_corr
        assert abs(value - dense_classical_correlation([rho])[0]) <= 1e-13


class TestNonConvergence:
    @pytest.fixture(autouse=True)
    def one_iteration(self, monkeypatch):
        monkeypatch.setattr(measures, "_MAX_ITER", 1)

    def test_tiny_iteration_budget_raises(self):
        with pytest.raises(OptimizerDidNotConverge) as err:
            discord_numeric(random_state(4))
        assert err.value.states == [0]

    def test_batch_names_the_unconverged_states(self):
        # the maximally mixed state has a flat landscape and converges in
        # the first iteration; the random states need several
        rhos = [random_state(1), np.eye(4) / 4, random_state(2)]
        with pytest.raises(OptimizerDidNotConverge) as err:
            discord_batch(rhos)
        assert err.value.states == [0, 2]
        value = discord_batch(rhos[1:2])[0].classical_corr
        assert value == pytest.approx(0.0, abs=1e-15)


def family_grid(per_kind=40, kinds=FAMILY_KINDS):
    """per_kind members of each family of kinds, evenly over its range of p1,
    twoparam with b = (1 - a) times -1, -1/2, 0, 1/2 and 1 in turn. The
    Werner and alpha members, among others, have starts whose values tie
    exactly."""
    out = []
    for kind in kinds:
        lo, hi = FAMILY_RANGES[kind]
        for k in range(per_kind):
            p = lo + (hi - lo) * k / (per_kind - 1)
            b = (1 - p) * ((k % 5) / 2 - 1) if kind == "twoparam" else None
            out.append(make_family(Family(kind, p, b)))
    return np.array(out)


def engine_pin_corpus():
    """name -> states of the corpus whose records TestEngineBitPins pins."""
    families = family_grid()
    noise = random_states(range(1000, 1000 + len(families)))
    return {
        "families": families,
        "mixtures": (1 - EPSILON) * families + EPSILON * noise,
        "near-pure": np.array(
            [hermitian_from_upper(v) for v in NEAR_PURE_GRID_MARGIN.values()]
        ),
        "random": random_states(range(200)),
    }


def record_digest(records):
    """SHA-256 of the little-endian float64 bytes of the records' eight
    fields, row by row."""
    rows = np.array([dataclasses.astuple(r) for r in records], dtype="<f8")
    return hashlib.sha256(rows.tobytes()).hexdigest()


class TestEngineBitPins:
    """The records of a fixed corpus pinned to their bits. The float64
    scans of 157 of the 200 family members tie exactly, so the pins also
    hold the engine's tie rule, the first minimum in start order (see
    TestTieRule). Taken with numpy 2.4.6 on x86-64 (AVX-512), as the bound
    pins of test_bounds.TestBitPins: a numpy build whose log, sqrt,
    trigonometric functions or LAPACK round differently moves a last bit,
    and then the pins must be taken again from the build at hand."""

    DIGESTS = {
        "families": "785610f29efa1e5fdd4e21868569d695d9691b58e4532ad1cf0a54bdce29c395",
        "mixtures": "6d577cc906122ba28ba3be84c789812c84783a02c1dfece647f0c982d66e1d96",
        "near-pure": "66098b98f4eeccae30ea129821b044a5d902b69bd0b21c7305fd9832c69fed74",
        "random": "a8b88142aff00df3ff379a892ae947ea599eb0caa08d2b2257e8058bd553511e",
    }
    # a mid-range member of each family, then the first mixture, near-pure
    # and random state, each through discord_numeric alone
    SINGLE_DIGEST = "8ce051a9f44c0d8090ed93fcc5e0db32053e5c598d04090ad382099118efced9"

    @pytest.fixture(scope="class")
    def corpus(self):
        return engine_pin_corpus()

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_batch_digest(self, corpus, name):
        assert record_digest(discord_batch(corpus[name])) == self.DIGESTS[name]

    def test_single_state_digest(self, corpus):
        rhos = list(corpus["families"][20::40])
        rhos += [corpus[name][0] for name in ("mixtures", "near-pure", "random")]
        records = [discord_numeric(rho) for rho in rhos]
        assert record_digest(records) == self.SINGLE_DIGEST


def ranking_corpora():
    """name -> states on which the float32 ranking of the scan is checked:
    random states, the family members of the engine pins (whose scans tie
    exactly), 1e-3 mixtures of the five families (shuffled, so that each
    float32 chunk holds several families), near-pure mixtures, Ginibre
    states of rank 1, 2 and 3, and I/4."""
    rng = np.random.default_rng(30)
    near = np.array([rho for _, rho in family_mixtures(200)])
    return {
        "random": random_states(range(2000)),
        "families": family_grid(),
        "near": near[rng.permutation(len(near))],
        "near-pure": np.array(near_pure_mixtures(rng, 1500)),
        **{
            f"rank-{rank}": np.array(ginibre_states(rng, 200, rank))
            for rank in (1, 2, 3)
        },
        "I/4": np.eye(4, dtype=complex)[None] / 4,
    }


CORPUS_NAMES = ["random", "families", "near", "near-pure"]
CORPUS_NAMES += ["rank-1", "rank-2", "rank-3", "I/4"]


@pytest.fixture(scope="module")
def corpora():
    return ranking_corpora()


class TestFinalValue:
    """A record's classical correlation is S(rho_A) - S(A|Pi_n) at the angles
    it reports, (2 theta_opt, phi_opt), bit for bit, with phi_opt in
    [0, 2 pi): measures._angles gives every angle that the refinement
    evaluates in the form a record reports it, so the value the refinement
    ends on is the reported one. The seeds run alone, through the float64
    scan; seed 4 reports phi_opt above pi, where arctan2's azimuth is
    negative."""

    @staticmethod
    def assert_value_at_the_reported_angles(rhos, records):
        theta, phi = np.array([(r.theta_opt, r.phi_opt) for r in records]).T
        assert ((phi >= 0) & (phi < 2 * np.pi)).all()
        assert not np.signbit(phi).any()
        c = measures._fano(rhos)
        n = measures._frame(np.array([2 * theta, phi]))[0]
        value = marginal_entropy_a(c) - measures._conditional_entropy(c, n)
        cc = np.array([r.classical_corr for r in records])
        assert value.tobytes() == cc.tobytes()

    @pytest.mark.parametrize("seed,negative", [(4, True), (0, False)])
    def test_value_at_the_reported_angles(self, seed, negative):
        rho = random_state(seed)
        rec = discord_numeric(rho)
        assert (rec.phi_opt > np.pi) == negative
        self.assert_value_at_the_reported_angles(rho[None], [rec])

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_every_record_of_the_corpora(self, corpora, name):
        rhos = corpora[name]
        self.assert_value_at_the_reported_angles(rhos, discord_batch(rhos))

    def test_angles_take_the_reported_form(self):
        # arctan2 gives -0.0, -pi and a negative subnormal azimuth, which
        # rounds to 2 pi when 2 pi is added; the polar angle 3 x 2^-1074
        # loses its last bit when halved. A coherence of 1e-310 in rho_B puts
        # a subnormal into s/|s|, one of the state's starts.
        tiny = np.nextafter(0.0, 1.0)
        rho_b = np.array([[0.7, 1e-310], [1e-310, 0.3]])
        rho = np.kron(np.diag([0.6, 0.4]), rho_b).astype(complex)
        s_dir = measures._state_directions(measures._fano(rho[None]))[:, 0, 3]
        assert 0 < s_dir[0] < np.finfo(float).tiny
        v = np.array(
            [
                [1.0, -0.0, 0.0],
                [-1.0, -0.0, 0.0],
                [1.0, -1e-310, 0.0],
                [-0.3, -0.4, 0.5],
                [0.3, -0.4, -0.5],
                [3 * tiny, 0.0, 1.0],
                [3 * tiny, -tiny, 1.0],
                [-0.0, -0.0, -1.0],
                s_dir,
            ]
        ).T
        raw = np.arctan2(np.hypot(v[0], v[1]), v[2])
        assert (2 * (0.5 * raw) != raw).any()
        pol, azi = measures._angles(v)
        assert ((azi >= 0) & (azi < 2 * np.pi)).all()
        assert not np.signbit(azi).any()
        assert (2 * (0.5 * pol) == pol).all()
        # the angles name the direction of v
        n = measures._frame(np.array([pol, azi]))[0]
        assert np.abs(n - v / np.linalg.norm(v, axis=0)).max() <= 1e-15


def start_table(c):
    """Every start of each state with halved Fano coefficients c, in start
    order: the grid, then the state directions; shape (3, N, starts)."""
    g = measures._GRID.shape[1]
    n = np.empty((3, c.shape[-1], measures._STARTS))
    n[:, :, :g] = measures._GRID[:, None]
    n[:, :, g:] = measures._state_directions(c)
    return n


def start_values(rhos, dtype):
    """S(A|Pi_n) of every start of each state (start_table), shape
    (N, starts), with the scan's kernel in dtype."""
    c = measures._fano(rhos)
    n = start_table(c)
    return measures._conditional_entropy(c[..., None].astype(dtype), n.astype(dtype))


def tied_minimum(values):
    """Per row of values, whether the row's minimum is attained exactly,
    shape (N, starts)."""
    return values == values.min(axis=1, keepdims=True)


class TestFloat32Ranking:
    """The scan ranks the starts in float32 and decides each state in
    float64 among the starts of its window (measures._rank_f32): every
    start is the float64 scan's to the bit, the records do not depend on
    whether it runs, and its float32 values stay within a tenth of the
    bound _F32_EPS that its proof reads."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_decided_starts_are_the_float64_starts(self, corpora, name):
        c = measures._fano(corpora[name])
        dirs = measures._state_directions(c)
        start, size = measures._rank_f32(c, dirs)
        assert start.tobytes() == measures._scan_f64(c, dirs).tobytes()
        if name == "random":  # measured: 1.155 starts per state, at most 4
            assert size <= 1.25 * c.shape[-1]
        if name == "families":
            # the windows of the 40 Werner and 40 pure members, flat within
            # 2 _F32_EPS, hold all their starts; of the 120 alpha, beta and
            # twoparam members, 13.7, 12.4 and 17.6 per state (measured)
            _, size = measures._rank_f32(c[..., 40:160], dirs[:, 40:160])
            assert size <= 20 * 120

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunked_scan_equals_the_unchunked_values(
        self, monkeypatch, corpora, chunk, dtype
    ):
        # the one chunk loop of both scans, at a budget of chunk float64
        # states per call (twice as many float32 ones) and at the default
        rhos = np.concatenate([corpora["random"][:100], corpora["families"]])
        if chunk:
            monkeypatch.setattr(measures, "_CHUNK_BYTES", chunk * 8 * measures._STARTS)
        c = measures._fano(rhos)
        chunks = measures._scan_chunks(c, measures._state_directions(c), dtype)
        values = np.concatenate([v for *_, v in chunks])
        assert values.dtype == dtype
        assert values.tobytes() == start_values(rhos, dtype).tobytes()

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_records_do_not_depend_on_the_ranking(self, monkeypatch, corpora, name):
        rhos = corpora[name]
        digests = {"default": record_digest(discord_batch(rhos))}
        modes = {
            "every block": {"_F32_MIN": 1},
            "every start in the window": {"_F32_MIN": 1, "_F32_EPS": np.inf},
            "off": {"_F32_MIN": len(rhos) + 1},
        }
        for mode, settings in modes.items():
            with monkeypatch.context() as m:
                for attr, value in settings.items():
                    m.setattr(measures, attr, value)
                digests[mode] = record_digest(discord_batch(rhos))
        assert set(digests.values()) == {digests["off"]}, digests

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_float32_error_is_within_a_tenth_of_eps(self, corpora, name):
        # measured: 3.7e-7 on random states, 1.2e-6 on near-pure ones
        rhos = corpora[name]
        for lo in range(0, len(rhos), 250):
            part = rhos[lo : lo + 250]
            err = start_values(part, np.float32) - start_values(part, np.float64)
            assert np.abs(err).max() <= measures._F32_EPS / 10

    def test_kernel_stays_float32(self):
        # |00><00| measured along z has an outcome of p = 0 and zero
        # eigenvalues, where the float32 floor under log2 must not round to 0
        # (0 log2 0 is nan); numpy 1.x's value-based casting rounded a
        # Python-float floor of 1e-300 to 0 in float32, as NEP 50 does
        zero = np.zeros((4, 4), dtype=complex)
        zero[0, 0] = 1.0
        rhos = np.array([zero, np.eye(4) / 4, random_state(3)])
        c = measures._fano(rhos).astype(np.float32)
        # each state measured along z and along (0.6, 0, 0.8)
        n = np.zeros((3, 3, 2), dtype=np.float32)
        n[2, :, 0] = 1.0
        n[:, :, 1] = np.array([[0.6], [0.0], [0.8]])
        b, w, lg = measures._outcomes(c[..., None], measures._rows(c[..., None], n))
        assert b.dtype == w.dtype == lg.dtype == np.float32
        assert np.isfinite(lg).all() and lg.min() <= -126
        values = measures._conditional_entropy(c[..., None], n)
        assert values.dtype == np.float32
        assert np.isfinite(values).all()
        values64 = start_values(rhos, np.float64)
        assert np.abs(start_values(rhos, np.float32) - values64).max() <= 1e-5

    @pytest.fixture
    def ranked(self, monkeypatch):
        """The (states, window starts) of each _rank_f32 call."""
        calls = []
        rank = measures._rank_f32

        def spy(c, dirs):
            start, size = rank(c, dirs)
            calls.append((c.shape[-1], size))
            return start, size

        monkeypatch.setattr(measures, "_rank_f32", spy)
        return calls

    HEAD = measures._CHUNK_BYTES // 4 // measures._STARTS  # the first float32 chunk

    def test_a_flat_batch_ranks_only_its_first_chunk(self, ranked):
        # the windows of the first 26 1e-3 Werner mixtures hold 5 558 of
        # their 5 954 starts (measured), more than 1/8, so the rest of the
        # block skips the ranking
        werner = np.array(
            [rho for fam, rho in family_mixtures(100) if fam.kind == "werner"]
        )
        discord_batch(werner)
        [(n, size)] = ranked
        assert n == self.HEAD and 8 * size > self.HEAD * measures._STARTS
        ranked.clear()
        discord_batch(random_states(range(100)))
        assert [n for n, _ in ranked] == [self.HEAD, 100 - self.HEAD]

    def test_pure_mixtures_rank_past_their_first_chunk(self, ranked):
        # 317 window starts in the first 26 1e-3 pure mixtures (measured)
        pure = np.array(
            [rho for fam, rho in family_mixtures(100) if fam.kind == "pure"]
        )
        discord_batch(pure)
        assert [n for n, _ in ranked] == [self.HEAD, 100 - self.HEAD]
        assert 8 * ranked[0][1] <= self.HEAD * measures._STARTS

    def test_a_nan_row_takes_every_start(self, monkeypatch, corpora):
        # a float32 row that holds a nan has a nan minimum, which no start
        # exceeds, so its window is all of its starts; its float64 values
        # are those of the float64 scan
        rhos = corpora["random"][:20]
        c = measures._fano(rhos)
        dirs = measures._state_directions(c)
        _, size = measures._rank_f32(c, dirs)
        _, own = measures._rank_f32(c[..., 3:4], dirs[:, 3:4])
        chunks = measures._scan_chunks

        def nan_row(c, dirs, dtype):
            for part, here, values in chunks(c, dirs, dtype):
                if dtype == np.float32 and part.start == 0:
                    values[3, 17] = np.nan
                yield part, here, values

        monkeypatch.setattr(measures, "_scan_chunks", nan_row)
        start, nan_size = measures._rank_f32(c, dirs)
        assert nan_size == size - own + measures._STARTS
        assert start.tobytes() == measures._scan_f64(c, dirs).tobytes()


class TestTieRule:
    """Where starts tie exactly, a state's start is the first minimum in
    start order (numpy's argmin rule), in the float64 scan and in the
    float32 ranking alike. The float64 scans of 157 of the 200 family
    members of the engine pins tie."""

    @pytest.fixture(scope="class")
    def families(self):
        rhos = family_grid()
        c = measures._fano(rhos)
        return start_values(rhos, np.float64), c, measures._state_directions(c)

    def test_float64_start_is_the_first_minimum(self, families):
        values, c, dirs = families
        tied = tied_minimum(values)
        assert (tied.sum(axis=1) > 1).sum() > 100
        first = tied.argmax(axis=1)  # the first True of each row
        expected = start_table(c)[:, np.arange(len(first)), first]
        assert measures._scan_f64(c, dirs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["alpha", "twoparam"])
    def test_ranking_decides_tied_members(self, families, kind):
        values, c, dirs = families
        of_kind = np.repeat(FAMILY_KINDS, len(values) // len(FAMILY_KINDS)) == kind
        # the float64 starts of all 40 alpha and all 40 twoparam members tie
        assert (of_kind & (tied_minimum(values).sum(axis=1) > 1)).sum() == 40
        start, _ = measures._rank_f32(c[..., of_kind], dirs[:, of_kind])
        ref = measures._scan_f64(c[..., of_kind], dirs[:, of_kind])
        assert start.tobytes() == ref.tobytes()

    def test_ranking_takes_the_first_of_ties_that_float32_reorders(self):
        # the float32 values can order a state's tied float64 minima other
        # than start order: 2 of these 500 twoparam members, so the ranking
        # must take the first of its window's starts in start order, not
        # in float32 order
        rhos = family_grid(500, kinds=["twoparam"])
        tied = tied_minimum(start_values(rhos, np.float64))
        f32 = np.where(tied, start_values(rhos, np.float32), np.inf)
        reordered = f32.argmin(axis=1) != tied.argmax(axis=1)
        c = measures._fano(rhos)
        dirs = measures._state_directions(c)
        assert reordered.any()
        start, _ = measures._rank_f32(c, dirs)
        assert start.tobytes() == measures._scan_f64(c, dirs).tobytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("engine", [discord_numeric, discord_batch])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_raises_state_error(self, engine, value):
        rho = np.eye(4) / 4
        rho[0, 0] = value
        # discord_numeric's batch of one holds the bad state as state 0
        if engine is discord_numeric:
            arg, k = rho, 0
        else:
            arg, k = [np.eye(4) / 4, rho], 1
        message = rf"state {k}: entry \(0, 0\) is not finite"
        with pytest.raises(StateError, match=message):
            engine(arg)


# not density matrices: trace 0, trace 2, a negative eigenvalue of -1/2
NOT_DENSITY = {
    "zero": np.zeros((4, 4)),
    "eye-half": np.eye(4) / 2,
    "negative": np.diag([0.5, 0.5, 0.5, -0.5]),
}
WRONG_SHAPES = [(2, 16), (2, 2, 4, 4), (8, 8)]


def validate_states_error(stack):
    """The exception validate_states raises on stack."""
    with pytest.raises(StateError) as err:
        validate_states(stack)
    return err.value


def assert_raises_like(engine, arg, expected):
    """engine(arg) raises expected's class with expected's message."""
    with pytest.raises(StateError) as err:
        engine(arg)
    assert type(err.value) is type(expected)
    assert str(err.value) == str(expected)


class TestInputContract:
    """discord_batch accepts only what validate_states accepts, and raises
    validate_states' error, naming the same state, for anything else."""

    @pytest.mark.parametrize("name", list(NOT_DENSITY))
    def test_not_a_density_matrix(self, name):
        rho = NOT_DENSITY[name]
        expected = validate_states_error([rho])
        assert str(expected).startswith("state 0: ")
        assert_raises_like(discord_batch, [rho], expected)
        assert_raises_like(discord_numeric, rho, expected)

    @pytest.mark.parametrize("shape", WRONG_SHAPES, ids=str)
    def test_wrong_shape(self, shape):
        m = np.zeros(shape)
        assert_raises_like(discord_batch, m, validate_states_error(m))
        assert_raises_like(discord_numeric, m, validate_states_error([m]))

    @pytest.mark.parametrize("name", list(NOT_DENSITY))
    def test_batch_names_the_invalid_state(self, name):
        rhos = [random_state(s) for s in range(4)]
        rhos[2] = NOT_DENSITY[name]
        expected = validate_states_error(rhos)
        assert str(expected).startswith("state 2: ")
        assert_raises_like(discord_batch, rhos, expected)
        assert_raises_like(discord_batch, np.array(rhos), expected)

    def test_positivity_is_decided_at_psd_tol(self):
        inside = np.diag([0.5, 0.5, 0.5 * PSD_TOL, -0.5 * PSD_TOL])
        outside = np.diag([0.5, 0.5, 2 * PSD_TOL, -2 * PSD_TOL])
        assert discord_batch([inside])[0] == discord_numeric(inside)
        with pytest.raises(NotPositive, match="state 0: minimum eigenvalue"):
            discord_numeric(outside)

    def test_state_that_validate_states_rejects_by_a_hair_is_rejected(self):
        # eigh's lowest eigenvalue d - y = -0.8e-10 passes PSD_TOL, but that of
        # (rho + rho^dagger)/2, d - (x + y)/2 = -1.3e-10, does not
        d, x, y = 0.2e-10, 2e-10, 1e-10
        rho = np.diag([0.5 - d, 0.5 - d, d, d]).astype(complex)
        rho[2, 3], rho[3, 2] = x, y
        assert np.linalg.eigh(rho)[0][0] >= -PSD_TOL
        assert_raises_like(discord_numeric, rho, validate_states_error([rho]))

    def test_state_that_validate_states_passes_goes_on(self):
        # eigh reads the lower triangle, whose block [[d, y], [y, d]] has the
        # eigenvalue d - y = -1.3e-10, below -PSD_TOL; validate_states reads
        # (rho + rho^dagger)/2, whose block has d - (x + y)/2 = -0.825e-10,
        # and the Hermiticity deviation y - x = 0.95e-10 is within HERM_TOL
        d, x, y = 0.7e-10, 1.05e-10, 2e-10
        rho = np.diag([0.5 - d, 0.5 - d, d, d]).astype(complex)
        rho[2, 3], rho[3, 2] = x, y
        assert np.linalg.eigh(rho)[0][0] < -PSD_TOL
        validate_states([rho])
        rec = discord_numeric(rho)
        assert rec == discord_batch([random_state(0), rho])[1]


def objective_cases():
    """(state, its own axis) pairs: random states, |00>, product pure states
    and |00> mixed with 1e-15 of I/4. Measured along +-its own axis (B's
    Bloch vector) each of the last three has an outcome of probability 0,
    round-off or 5e-16, all below P_FLOOR."""
    rng = np.random.default_rng(61)
    out = [(random_state(s), None) for s in range(700, 704)]
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    out.append((zero, np.array([0.0, 0.0, 1.0])))
    out.append(((1 - 1e-15) * zero + 1e-15 * np.eye(4) / 4, out[-1][1]))
    for _ in range(4):
        a, b = random_unitary(rng)[:, 0], random_unitary(rng)[:, 0]
        psi = np.kron(a, b)
        coh = 2 * b[0].conj() * b[1]
        axis = np.array([coh.real, coh.imag, abs(b[0]) ** 2 - abs(b[1]) ** 2])
        out.append((np.outer(psi, psi.conj()), axis))
    return out


def objective_directions(rng, axis, count):
    """count unit vectors: random ones, then +-axis where a state has one."""
    n = rng.standard_normal((3, count))
    if axis is not None:
        n[:, -2:] = np.stack([axis, -axis], axis=1)
    return n / np.linalg.norm(n, axis=0)


def per_component_objective(c, n):
    """S(A|Pi_n) written out one component and one outcome at a time. The
    stacked _conditional_entropy runs the same operations on every element
    in the same order, so it must equal this bit for bit."""
    nx, ny, nz = n
    r, t, s = c[:3, 0], c[:3, 1:], c[3, 1:]
    xlog = measures._xlog2
    sn = s[0] * nx + s[1] * ny + s[2] * nz
    tx, ty, tz = (t[i, 0] * nx + t[i, 1] * ny + t[i, 2] * nz for i in range(3))
    out = 0.0
    for p, ux, uy, uz in (
        (0.5 + sn, r[0] + tx, r[1] + ty, r[2] + tz),
        (0.5 - sn, r[0] - tx, r[1] - ty, r[2] - tz),
    ):
        w = np.sqrt(ux * ux + uy * uy + uz * uz)
        out = out + xlog(p) - xlog(0.5 * (p + w)) - xlog(0.5 * (p - w))
    return out


def direction_angles(n):
    """(theta, phi) of the measurement along each unit vector n[:, i]."""
    return 0.5 * np.arctan2(np.hypot(n[0], n[1]), n[2]), np.arctan2(n[1], n[0])


def reference_objective(rho, n):
    """conditional_information along each unit vector n[:, i]."""
    return np.array(
        [conditional_information(rho, t, p) for t, p in zip(*direction_angles(n))]
    )


class TestObjective:
    """S(rho_A) - S(A|Pi_n) of the stacked objective against the reference
    conditional_information, in each broadcast shape the engine uses: the
    scan (N states x K directions) and the refinement and final value (M).
    Outcomes below P_FLOOR, which the reference drops, contribute at most p
    bits. In each shape the values also equal the per-component form bit
    for bit. The refinement's derivative kernel is checked against its
    value and against central differences."""

    K = 8

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(62)
        cases = objective_cases()
        rhos = np.array([rho for rho, _ in cases])
        n = np.stack(
            [objective_directions(rng, axis, self.K) for _, axis in cases], axis=1
        )
        ref = np.array([reference_objective(r, n[:, i]) for i, r in enumerate(rhos)])
        return measures._fano(rhos), n, ref, rhos

    def test_cases_reach_outcomes_below_the_floor(self, cases):
        _, n, _, rhos = cases
        probs = [
            p
            for i, rho in enumerate(rhos)
            for th, ph in zip(*direction_angles(n[:, i]))
            for p, _ in measures.apply_measurement(rho, th, ph)
        ]
        assert 0.0 in probs
        assert sum(0 < p < measures.P_FLOOR for p in probs) >= 4

    def test_scan_shape(self, cases):
        c, n, ref, _ = cases  # n: (3, N, K)
        cond = measures._conditional_entropy(c[..., None], n)
        assert cond.tobytes() == per_component_objective(c[..., None], n).tobytes()
        value = marginal_entropy_a(c[..., None]) - cond
        assert value.shape == ref.shape
        assert np.max(np.abs(value - ref)) <= 1e-12

    def test_derivative_kernel(self, cases):
        # value, tangent gradient and tangent Hessian at each direction's
        # frame: the value equals _conditional_entropy bit for bit, and the
        # derivatives match central differences along _retract. The p = 0
        # and pure-product cases, flat to round-off, stay finite.
        c, n, _, _ = cases
        owner = np.repeat(np.arange(n.shape[1]), self.K)
        ck = c[..., owner]
        frame = measures._frame(measures._angles(n.reshape(3, -1)))
        out = measures._objective_derivatives(ck, frame)
        assert out.shape == (6, ck.shape[-1])
        assert np.isfinite(out).all()
        cond = measures._conditional_entropy(ck, frame[0])
        assert out[0].tobytes() == cond.tobytes()

        h = 1e-4

        def along(x, y):
            xy = np.array([[x], [y]]) * np.ones(ck.shape[-1])
            return measures._conditional_entropy(ck, measures._retract(frame, xy))

        f0 = along(0, 0)
        fd_grad = [
            (along(h, 0) - along(-h, 0)) / (2 * h),
            (along(0, h) - along(0, -h)) / (2 * h),
        ]
        fd_hess = [
            (along(h, 0) - 2 * f0 + along(-h, 0)) / h**2,
            (along(0, h) - 2 * f0 + along(0, -h)) / h**2,
            (along(h, h) - along(h, -h) - along(-h, h) + along(-h, -h)) / (4 * h * h),
        ]
        assert np.max(np.abs(out[1:3] - fd_grad)) <= 1e-7
        assert np.max(np.abs(out[3:] - fd_hess)) <= 1e-5

    def test_newton_and_final_shape(self, cases):
        c, n, ref, _ = cases  # one direction per start: M = N K
        owner = np.repeat(np.arange(n.shape[1]), self.K)
        flat = n.reshape(3, -1)
        cond = measures._conditional_entropy(c[..., owner], flat)
        assert cond.tobytes() == per_component_objective(c[..., owner], flat).tobytes()
        value = marginal_entropy_a(c[..., owner]) - cond
        assert value.shape == (flat.shape[1],)
        assert np.max(np.abs(value - ref.ravel())) <= 1e-12
