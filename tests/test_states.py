import re
import warnings

import numpy as np
import pytest

from conftest import (
    binary_entropy,
    linear_entropy,
    partial_trace,
    purity,
    spectrum,
    von_neumann_entropy,
    written_out_random_state,
)
from qdiscord.bounds import _derived_seeds
from qdiscord.io import state_from_json_obj, state_to_json_obj
from qdiscord.states import (
    FAMILY_KINDS,
    FAMILY_RANGES,
    Family,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    StateError,
    TraceNotOne,
    make_family,
    _pcg_seed_words,
    _SeedWords,
    random_state,
    random_states,
    validate_state,
    validate_states,
)

BELL = make_family(Family("pure", 0.5))


class TestValidate:
    def test_maximally_mixed(self):
        m = validate_state(np.eye(4) / 4)
        assert np.allclose(m, np.eye(4) / 4)

    def test_bell_projector(self):
        validate_state(BELL)

    def test_trace_violation(self):
        m = np.diag([1.5, -0.1, -0.2, -0.2]).astype(complex)
        with pytest.raises((TraceNotOne, NotPositive)) as exc:
            validate_state(m)
        assert exc.value.deviation > 0

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian) as exc:
            validate_state(m)
        assert exc.value.deviation == pytest.approx(0.1)

    def test_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotPositive) as exc:
            validate_state(m)
        assert exc.value.deviation == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.25, np.nan)])
    def test_non_finite_entry(self, value):
        m = np.eye(4, dtype=complex) / 4
        m[3, 3] = value
        with pytest.raises(StateError, match=r"entry \(3, 3\) is not finite"):
            validate_state(m)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_state(np.eye(2) / 2)


def _non_finite(m):
    m[3, 3] = complex(0.25, np.nan)


def _non_hermitian(m):
    m[0, 1] += 0.1


def _trace_off(m):
    m[2, 2] += 1e-6


def _negative(m):
    m[:] = np.diag([0.7, 0.5, -0.1, -0.1])


class TestValidateStates:
    def test_valid_stack_is_copied(self):
        stack = random_states(range(6))
        out = validate_states(stack)
        assert np.array_equal(out, stack) and out is not stack

    @pytest.mark.parametrize(
        "spoil", [_non_finite, _non_hermitian, _trace_off, _negative]
    )
    def test_bad_state_raises_as_alone(self, spoil):
        stack = random_states(range(6))
        spoil(stack[4])
        with pytest.raises(StateError) as alone:
            validate_state(stack[4])
        with pytest.raises(StateError) as exc:
            validate_states(stack)
        assert type(exc.value) is type(alone.value)
        assert exc.value.deviation == alone.value.deviation
        assert str(exc.value) == f"state 4: {alone.value}"

    def test_first_bad_state_is_named(self):
        stack = random_states(range(6))
        _negative(stack[5])
        _non_hermitian(stack[2])
        with pytest.raises(NotHermitian, match="^state 2: "):
            validate_states(stack)

    def test_wrong_shape(self):
        with pytest.raises(StateError, match=r"\(N, 4, 4\) stack"):
            validate_states(np.eye(4) / 4)


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        assert np.allclose(partial_trace(BELL, "A"), np.eye(2) / 2)
        assert np.allclose(partial_trace(BELL, "B"), np.eye(2) / 2)

    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0  # |01><01|
        red = partial_trace(rho, "A")
        assert np.allclose(red, np.diag([1, 0]))
        assert np.allclose(partial_trace(rho, "B"), np.diag([0, 1]))

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_alpha_marginals_maximally_mixed(self, a):
        rho = make_family(Family("alpha", a))
        for sub in "AB":
            assert np.max(np.abs(partial_trace(rho, sub) - np.eye(2) / 2)) < 1e-12

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(25):
            rho = random_state(int(rng.integers(0, 2**31)))
            for sub in "AB":
                red = partial_trace(rho, sub)
                assert abs(np.trace(red).real - 1) < 1e-12
                assert np.array_equal(red, red.conj().T)


class TestSpectrum:
    def test_identity(self):
        assert np.allclose(spectrum(np.eye(4) / 4), 0.25)

    def test_werner_third(self):
        ev = spectrum(make_family(Family("werner", 1 / 3)))
        assert np.allclose(ev, [0.5, 1 / 6, 1 / 6, 1 / 6])

    def test_two_param_pimple(self):
        ev = spectrum(make_family(Family("twoparam", 1 / 3, 0.0)))
        assert np.allclose(ev, [1 / 3, 1 / 3, 1 / 3, 0.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            spectrum(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_descending(self, rng):
        ev = spectrum(random_state(7))
        assert np.all(np.diff(ev) <= 0)
        assert np.all(ev >= 0)


class TestEntropies:
    def test_vn_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_vn_pure(self):
        assert von_neumann_entropy(BELL) == pytest.approx(0.0, abs=1e-12)

    def test_vn_werner_third(self):
        expected = 0.5 + 0.5 * np.log2(6)  # -0.5 log2 0.5 - 3 (1/6) log2 (1/6)
        assert von_neumann_entropy(make_family(Family("werner", 1 / 3))) == (
            pytest.approx(expected, abs=1e-12)
        )
        assert expected == pytest.approx(1.792481, abs=1e-6)

    def test_binary_entropy(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.75) == pytest.approx(0.811278, abs=1e-6)

    def test_binary_entropy_symmetric(self, rng):
        for x in rng.uniform(0, 1, 50):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        binary_entropy(1 + 1e-13)  # inside slack

    def test_linear_entropy(self):
        assert linear_entropy(BELL) == pytest.approx(0.0, abs=1e-12)
        assert linear_entropy(np.eye(4) / 4) == 1.0
        assert linear_entropy(make_family(Family("werner", 0.5))) == (
            pytest.approx(0.75)
        )

    def test_linear_entropy_zero_iff_pure(self, rng):
        for _ in range(20):
            rho = random_state(int(rng.integers(0, 2**31)))
            sl = linear_entropy(rho)
            assert 0 <= sl <= 1
            assert (sl < 1e-10) == (abs(purity(rho) - 1) < 1e-10)


class TestFamilies:
    def test_param_ranges(self):
        with pytest.raises(ParamOutOfRange):
            Family("werner", -0.4)
        with pytest.raises(ParamOutOfRange):
            Family("alpha", 1.01)
        with pytest.raises(ParamOutOfRange):
            Family("beta", -0.01)
        with pytest.raises(ParamOutOfRange):
            Family("twoparam", 0.4, 0.7)  # |b| > 1-a
        with pytest.raises(ParamOutOfRange):
            Family("twoparam", 0.4)  # missing b
        with pytest.raises(ParamOutOfRange):
            Family("nosuch", 0.5)

    def test_kinds_keep_their_order(self):
        # the benchmark draws its family states kind by kind in this order
        assert FAMILY_KINDS == ("werner", "alpha", "beta", "twoparam", "pure")
        assert FAMILY_KINDS == tuple(FAMILY_RANGES)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_range_ends_accepted_and_beyond_rejected(self, kind):
        lo, hi = FAMILY_RANGES[kind]
        b = 0.0 if kind == "twoparam" else None
        for x in (lo, hi):
            Family(kind, x, b)
        for x in (float(np.nextafter(lo, -2)), float(np.nextafter(hi, 2))):
            message = re.escape(f"{kind} p1={x} out of range [{lo:.4g}, {hi:g}]")
            with pytest.raises(ParamOutOfRange, match=message):
                Family(kind, x, b)

    def test_alpha_is_twoparam_at_b_zero_bit_for_bit(self):
        for a in np.r_[np.linspace(0, 1, 97), 1 / 3, 0.5, 0.1, 0.7]:
            alpha = make_family(Family("alpha", float(a)))
            two = make_family(Family("twoparam", float(a), 0.0))
            assert alpha.tobytes() == two.tobytes()

    def test_alpha_one_is_bell(self):
        assert np.allclose(make_family(Family("alpha", 1.0)), BELL)

    def test_werner_one_is_singlet(self):
        psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert np.allclose(
            make_family(Family("werner", 1.0)), np.outer(psi, psi.conj())
        )

    def test_two_param_pimple_entries(self):
        m = make_family(Family("twoparam", 1 / 3, 0.0))
        assert np.allclose(np.diag(m), [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        assert m[0, 3] == pytest.approx(1 / 6)
        assert m[3, 0] == pytest.approx(1 / 6)

    @pytest.mark.parametrize(
        "fam",
        [Family("werner", x) for x in np.linspace(-1 / 3, 1, 9)]
        + [Family("alpha", x) for x in np.linspace(0, 1, 9)]
        + [Family("beta", x) for x in np.linspace(0, 1, 9)]
        + [Family("pure", x) for x in np.linspace(0, 1, 9)]
        + [
            Family("twoparam", a, b)
            for a in np.linspace(0, 1, 5)
            for b in np.linspace(a - 1, 1 - a, 5)
        ],
    )
    def test_all_family_states_valid(self, fam):
        validate_state(make_family(fam))

    @pytest.mark.parametrize("kind", ["werner", "alpha", "beta"])
    def test_mmms_marginals(self, kind, rng):
        lo = -1 / 3 if kind == "werner" else 0.0
        for p in rng.uniform(lo, 1, 10):
            rho = make_family(Family(kind, float(p)))
            for sub in "AB":
                assert np.max(np.abs(partial_trace(rho, sub) - np.eye(2) / 2)) < 1e-12


class TestRandomState:
    def test_deterministic(self):
        assert np.array_equal(random_state(42), random_state(42))

    def test_valid(self):
        for s in range(50):
            rho = random_state(s)
            assert abs(np.trace(rho).real - 1) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-14

    def test_distinct_seeds_differ(self):
        for s in range(100):
            a, b = random_state(2 * s), random_state(2 * s + 1)
            assert np.max(np.abs(a - b)) > 1e-6

    # 0 and 2**32 - 1 hash as one 32-bit word, 2**32 and above as two
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]

    def test_stack_matches_written_out_form(self):
        # the written-out form seeds numpy's own generator per seed, so this
        # also checks the restated seeding against numpy's
        seeds = self.EDGE_SEEDS + _derived_seeds(1, 5000)
        ref = np.stack([written_out_random_state(s) for s in seeds])
        assert np.array_equal(random_states(seeds), ref)

    def test_seed_words_seed_numpy_pcg64(self):
        # numpy's own PCG64 seeding, fed the restated SeedSequence words,
        # must land in the state it reaches from the seed itself
        seeds = self.EDGE_SEEDS + _derived_seeds(3, 200)
        words = _pcg_seed_words(np.array(seeds, dtype=np.uint64))
        for s, row in zip(seeds, words, strict=True):
            assert np.random.PCG64(_SeedWords(row)).state == np.random.PCG64(s).state

    def test_seed_words_refuse_other_requests(self):
        row = _pcg_seed_words(np.array([5], dtype=np.uint64))[0]
        with pytest.raises(ValueError, match="4 uint64 words"):
            _SeedWords(row).generate_state(8, np.uint32)

    def test_shuffled_seeds_permute_the_states(self):
        seeds = self.EDGE_SEEDS + _derived_seeds(4, 200)
        order = np.random.default_rng(9).permutation(len(seeds))
        shuffled = random_states([seeds[k] for k in order])
        assert np.array_equal(shuffled, random_states(seeds)[order])

    def test_empty_seed_list(self):
        assert random_states([]).shape == (0, 4, 4)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ParamOutOfRange, match=f"seed {seed} outside"):
            random_states([3, seed])

    @pytest.mark.parametrize("seed", [1.5, 3.0, "3", None])
    def test_non_integer_seed_raises_type_error(self, seed):
        # an integer out of range raises ParamOutOfRange (above); a seed that
        # is not an integer raises TypeError, also where sample_random and
        # sample_near_boundary derive their seeds
        with pytest.raises(TypeError):
            random_state(seed)
        with pytest.raises(TypeError):
            random_states([3, seed])
        with pytest.raises(TypeError):
            _derived_seeds(seed, 3)

    def test_seeding_raises_no_warning(self):
        # the hash wraps uint32 arrays on purpose; numpy warns on overflow
        # only in scalar arithmetic, which the seeding must not use
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            random_states(self.EDGE_SEEDS)
            random_state(2**64 - 1)

    def test_single_state_is_stack_of_one(self):
        for s in _derived_seeds(2, 50) + [0, 2**63 - 2]:
            assert np.array_equal(random_state(s), random_states([s])[0])
            assert np.array_equal(random_state(s), written_out_random_state(s))

    def test_mean_purity_anchor(self):
        # frozen regression value for seeds 0..9999 (induced-measure theory
        # for d = K = 4 gives 8/17 = 0.4706)
        mean = np.mean([purity(rho) for rho in random_states(range(10000))])
        assert mean == pytest.approx(0.471717040652871, abs=1e-9)


class TestStateJson:
    def test_round_trip(self):
        rho = random_state(5)
        again = state_from_json_obj(state_to_json_obj(rho))
        assert np.array_equal(rho, again)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            state_from_json_obj({"nope": 1})

    def test_rejects_object_entry(self):
        with pytest.raises(StateError, match="malformed"):
            state_from_json_obj({"rho": [[{"re": 1}]]})
