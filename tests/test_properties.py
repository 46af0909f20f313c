"""Property tests of the discord engine over generated states: local-unitary
invariance, 0 <= Q <= I, Q = EoF on pure states (and the record's EoF equal
to the entropy of the Schmidt weights), batch rows equal to single-state
records, and records independent of how a batch is split."""
import dataclasses

import numpy as np
from conftest import random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord.measures import discord_batch, discord_numeric
from qdiscord.states import FAMILY_KINDS, Family, make_family

# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def ginibre_states(draw):
    """G G^dagger / Tr for a complex Gaussian 4 x rank matrix, rank 1 to 4."""
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@st.composite
def family_states(draw):
    """A family member, optionally mixed with a Ginibre state."""
    kind = draw(st.sampled_from(FAMILY_KINDS))
    u = draw(st.floats(0, 1))
    if kind == "werner":
        fam = Family("werner", -1 / 3 + (4 / 3) * u)
    elif kind == "twoparam":
        fam = Family("twoparam", u, draw(st.floats(0, 1)) * (2 - 2 * u) - (1 - u))
    else:
        fam = Family(kind, u)
    eps = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]))
    return (1 - eps) * make_family(fam) + eps * draw(ginibre_states())


@st.composite
def pure_states(draw):
    """A local-unitary rotation of cos t |00> + sin t |11>, t in [0, pi/4],
    and the exact EoF of it: the entropy of its Schmidt weights."""
    t = draw(st.floats(0, np.pi / 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = np.kron(random_unitary(rng), random_unitary(rng)) @ [np.cos(t), 0, 0, np.sin(t)]
    w = np.array([np.cos(t) ** 2, np.sin(t) ** 2])
    w = w[w > 0]
    return np.outer(psi, psi.conj()), float(-np.sum(w * np.log2(w)))


STATES = st.one_of(ginibre_states(), family_states())


@SETTINGS
@given(rho=STATES, seed=st.integers(0, 2**32 - 1))
def test_local_unitary_invariance(rho, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    a, b = discord_batch([rho, u @ rho @ u.conj().T])
    assert abs(a.discord - b.discord) <= 1e-10
    assert abs(a.classical_corr - b.classical_corr) <= 1e-10


@SETTINGS
@given(rho=STATES)
def test_discord_between_zero_and_mutual_information(rho):
    rec = discord_numeric(rho)
    assert -1e-9 <= rec.discord <= rec.mutual_info + 1e-9


@SETTINGS
@given(rhos=st.lists(STATES, min_size=1, max_size=5), pick=st.integers(0, 4))
def test_batch_row_equals_single_state_record(rhos, pick):
    i = pick % len(rhos)
    row = dataclasses.astuple(discord_batch(rhos)[i])
    single = dataclasses.astuple(discord_numeric(rhos[i]))
    assert np.array(row).tobytes() == np.array(single).tobytes()


@SETTINGS
@given(state=pure_states())
def test_discord_equals_eof_on_pure_states(state):
    rho, eof = state
    rec = discord_numeric(rho)
    assert abs(rec.discord - eof) <= 1e-9
    assert abs(rec.eof - eof) <= 1e-12


def test_product_pure_state_has_no_concurrence():
    rng = np.random.default_rng(8)
    psi = np.kron(random_unitary(rng)[:, 0], random_unitary(rng)[:, 0])
    rec = discord_numeric(np.outer(psi, psi.conj()))
    assert rec.concurrence <= 1e-15
    assert rec.eof <= 1e-15


@SETTINGS
@given(rhos=st.lists(STATES, min_size=2, max_size=6), cut=st.integers(1, 5))
def test_records_do_not_depend_on_the_batch_split(rhos, cut):
    cut = min(cut, len(rhos) - 1)
    whole = [dataclasses.astuple(r) for r in discord_batch(rhos)]
    parts = discord_batch(rhos[:cut]) + discord_batch(rhos[cut:])
    assert np.array(whole).tobytes() == np.array([dataclasses.astuple(r) for r in parts]).tobytes()
