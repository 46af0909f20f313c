"""Two-qubit density matrices: validation, parametrized families, the von
Neumann entropy and seeded random states.

partial_trace, spectrum and von_neumann_entropy serve only the per-state
measures.conditional_information, which stays because bench/workloads.py
reads it. The records' S_L comes from measures._record_measures; its
per-state references, purity and linear_entropy, are test oracles in
tests/conftest.py.

States are validated as one (N, 4, 4) stack by validate_states, and seeded
random states are built as one stack by random_states; validate_state and
random_state are stacks of one, so each has a single path. random_states
restates numpy's SeedSequence hash to run on all seeds at once and hands
each seed's words to numpy's own PCG64 seeding, so a seed gives the stream
of np.random.Generator(np.random.PCG64(seed)).

Basis order is fixed as |00>, |01>, |10>, |11> throughout.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class StateError(ValueError):
    """Base class for state-construction and validation failures."""

    def __init__(self, message, deviation=None):
        super().__init__(message)
        self.deviation = deviation


class NotHermitian(StateError):
    pass


class TraceNotOne(StateError):
    pass


class NotPositive(StateError):
    pass


class ParamOutOfRange(StateError):
    pass


def validate_states(raw):
    """Check that `raw` is a (N, 4, 4) stack, or a sequence of N 4x4
    matrices, N >= 0, of two-qubit density matrices.

    Returns a complex copy, or raises for the first state that is not one,
    with the class and deviation validate_state raises for that state alone
    and a message that names its index.
    """
    m = np.array(raw, dtype=complex)
    if m.shape == (0,):  # an empty sequence: a stack of no states
        m = m.reshape(0, 4, 4)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise StateError(f"expected an (N, 4, 4) stack, got shape {m.shape}")
    _raise_first_invalid(m, "state {}: ")
    return m


def validate_state(raw):
    """Check that `raw` is a valid two-qubit density matrix.

    Returns a complex 4x4 copy, or raises StateError for a wrong shape or a
    NaN/Inf entry, or NotHermitian / TraceNotOne / NotPositive carrying the
    measured deviation. The checks are validate_states' on a stack of one.
    """
    m = np.array(raw, dtype=complex)
    if m.shape != (4, 4):
        raise StateError(f"expected a 4x4 matrix, got shape {m.shape}")
    _raise_first_invalid(m[None], "")
    return m


def _hermitian_unit_trace(m):
    """Per state of the (N, 4, 4) complex stack m: whether it is Hermitian
    and of unit trace within HERM_TOL and TRACE_TOL, and the two deviations,
    the largest |m - m^dagger| entry and |Tr m - 1|. A NaN or Inf entry
    makes the Hermiticity deviation NaN or Inf, so such a state fails."""
    with np.errstate(invalid="ignore"):  # inf - inf in non-finite states
        herm = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        tr = m.trace(axis1=1, axis2=2)
        tr = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    return (herm <= HERM_TOL) & (tr <= TRACE_TOL), herm, tr


def _raise_first_invalid(m, prefix):
    """Raise for the first state of the (N, 4, 4) stack m that fails a check,
    with the first check it fails: finite entries, Hermiticity, unit trace,
    then positivity. prefix.format(index) starts the message."""
    ok, herm, tr = _hermitian_unit_trace(m)
    lo = np.zeros(len(m))
    h = m[ok]
    lo[ok] = np.linalg.eigvalsh((h + h.conj().transpose(0, 2, 1)) / 2).min(axis=1)
    bad = np.flatnonzero(~ok | (lo < -PSD_TOL))
    if not bad.size:
        return
    k = bad[0]
    at = prefix.format(k)
    if not np.isfinite(m[k]).all():
        i, j = np.argwhere(~np.isfinite(m[k]))[0]
        raise StateError(f"{at}entry ({i}, {j}) is not finite: {m[k, i, j]}")
    if herm[k] > HERM_TOL:
        dev = float(herm[k])
        raise NotHermitian(f"{at}matrix is not Hermitian (deviation {dev:.3e})", dev)
    if tr[k] > TRACE_TOL:
        dev = float(tr[k])
        raise TraceNotOne(f"{at}trace differs from 1 by {dev:.3e}", dev)
    low = float(lo[k])
    raise NotPositive(f"{at}minimum eigenvalue {low:.3e} is negative", -low)


def partial_trace(rho, keep):
    """Trace out one qubit; `keep` is 'A' or 'B'.

    The contraction pairs conjugate entries term by term, so the result is
    Hermitian exactly and the trace is preserved to round-off.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError("keep must be 'A' or 'B'")


def spectrum(m):
    """Eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending.

    Round-off negatives down to -1e-10 are clipped to zero so the values can
    feed entropies directly.
    """
    m = np.asarray(m, dtype=complex)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERM_TOL:
        raise NotHermitian(f"matrix is not Hermitian (deviation {dev:.3e})", dev)
    ev = np.linalg.eigvalsh(m)[::-1].copy()
    ev[(ev < 0) & (ev >= -PSD_TOL)] = 0.0
    return ev


def von_neumann_entropy(m):
    """S(rho) = -Tr{rho log2 rho} in bits over every positive eigenvalue,
    with 0 log 0 = 0."""
    ev = spectrum(m)
    ev = ev[ev > 0]
    return float(-np.sum(ev * np.log2(ev)))


# kind -> range of p1 (twoparam's b lies in [a - 1, 1 - a]), in FAMILY_KINDS order
FAMILY_RANGES = {
    "werner": (-1 / 3, 1.0),
    "alpha": (0.0, 1.0),
    "beta": (0.0, 1.0),
    "twoparam": (0.0, 1.0),
    "pure": (0.0, 1.0),
}
FAMILY_KINDS = tuple(FAMILY_RANGES)


@dataclass(frozen=True)
class Family:
    """Tagged parametrized state family.

    kind: one of 'werner' (xi), 'alpha', 'beta', 'pure' (Schmidt eigenvalue),
    each with a single parameter p1 in FAMILY_RANGES[kind], or 'twoparam'
    with (p1, p2) = (a, b).
    """

    kind: str
    p1: float
    p2: float | None = None

    def __post_init__(self):
        k, x = self.kind, self.p1
        if k not in FAMILY_RANGES:
            raise ParamOutOfRange(f"unknown family kind {k!r}")
        two = k == "twoparam"
        if two == (self.p2 is None):
            n = "two parameters (a, b)" if two else "a single parameter"
            raise ParamOutOfRange(f"{k} takes {n}")
        lo, hi = FAMILY_RANGES[k]
        if not lo <= x <= hi:
            raise ParamOutOfRange(f"{k} p1={x} out of range [{lo:.4g}, {hi:g}]")
        # 1e-12 slack absorbs round-off at the |b| = 1-a edge
        if two and not x - 1 - 1e-12 <= self.p2 <= 1 - x + 1e-12:
            raise ParamOutOfRange(f"twoparam (a={x}, b={self.p2}) outside a-1<=b<=1-a")


PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def make_family(fam):
    """Build the density matrix of a parametrized family member. alpha, beta
    and twoparam are one X-state block with rho_03 = p1/2: alpha is twoparam
    at b = 0, and beta adds rho_12 = (1 - beta)/2."""
    k, p = fam.kind, fam.p1
    if k == "werner":
        return (1 - p) * np.eye(4, dtype=complex) / 4 + p * np.outer(
            PSI_MINUS, PSI_MINUS.conj()
        )
    if k == "pure":
        v = np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)], dtype=complex)
        return np.outer(v, v.conj())
    b = 0.0 if fam.p2 is None else fam.p2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = p / 2
    m[1, 1] = (1 - p - b) / 2
    m[2, 2] = (1 - p + b) / 2
    if k == "beta":
        m[1, 2] = m[2, 1] = (1 - p) / 2
    return m


# numpy's SeedSequence(seed).generate_state(4, np.uint64), restated: it
# hashes the seed's 32-bit words into a pool of 4 words and the pool into
# the 4 64-bit words of PCG64's seed (numpy/random/bit_generator.pyx).
# Every hash step xors a running constant in, advances it by a multiplier,
# and multiplies by the advanced constant; the constants do not depend on
# the seed, so they are tabulated here.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the seed words
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


def _hash_steps(init, mult, n):
    """The xor and the multiply constants of n successive hash steps, each
    as a (n, 1) uint32 column."""
    xor, mul, h = [], [], init
    for _ in range(n):
        xor.append(h)
        h = h * mult & _MASK32
        mul.append(h)
    return tuple(np.array(c, dtype=np.uint32)[:, None] for c in (xor, mul))


# the pool's steps: 4 to fill it, then 3 per mixing round, one for each
# other word in ascending order; a zero step fills the round's own row
_POOL_STEPS = _hash_steps(_INIT_A, _MULT_A, 16)
_POOL_FILL = [c[:4] for c in _POOL_STEPS]
_POOL_ROUNDS = [
    [np.insert(c[4 + 3 * src : 7 + 3 * src], src, 0, axis=0) for c in _POOL_STEPS]
    for src in range(4)
]
# the 8 32-bit seed words cycle twice through the pool, as (2, 4) halves
_WORD_XOR, _WORD_MUL = (c.reshape(2, 4, 1) for c in _hash_steps(_INIT_B, _MULT_B, 8))
_SHIFT = np.uint32(16)
_MIX_L = np.uint32(_MIX_MULT_L)
_MIX_R = np.uint32(_MIX_MULT_R)
_HALF = np.uint64(32)


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ v >> _SHIFT


def _pcg_seed_words(seeds):
    """PCG64's 4 64-bit seed words for each seed of a uint64 array, as
    SeedSequence(seed).generate_state(4, np.uint64) gives them: a
    C-contiguous (N, 4) uint64 array, one seed's words to a row.

    The hashing runs as uint32 array arithmetic, which wraps silently, over
    all seeds at once. A seed below 2**64 is at most 2 words, and
    SeedSequence fills the pool past the seed's words with hashes of 0, so a
    seed below 2**32 (one word) hashes as the two words (seed, 0).
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> _HALF
    pool = _hashmix(pool, *_POOL_FILL)
    # each word mixes into the other three; those three updates read only
    # the source word, so they run as one, and the source row is restored
    for src, (xor, mul) in enumerate(_POOL_ROUNDS):
        mixed = pool * _MIX_L - _hashmix(pool[src], xor, mul) * _MIX_R
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix(pool, _WORD_XOR, _WORD_MUL).astype(np.uint64)
    # pairs of 32-bit words, low word first, make the 64-bit words; the rows
    # are contiguous, so _SeedWords takes each without a copy
    words = (words[:, 0::2] | words[:, 1::2] << _HALF).reshape(4, -1)
    return np.ascontiguousarray(words.T)


class _SeedWords(ISeedSequence):
    """One seed's row of _pcg_seed_words, handed to np.random.PCG64 in
    place of the SeedSequence it would build from the seed."""

    def __init__(self, words):
        # numpy's PCG64 reads the words through the array's data pointer
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for its 4 uint64 words; any other request is an error
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def random_states(seeds):
    """The (N, 4, 4) stack of rho = T T^dag / Tr{T T^dag}, one per seed, with
    T a 4x4 standard complex Gaussian.

    A seed is an integer in [0, 2**64): an integer outside that range
    raises ParamOutOfRange, and a seed that is not an integer (a float, a
    str, None) raises TypeError, from operator.index. Each seed's
    generator is np.random.PCG64(seed)'s: the seed hashing runs on all
    seeds at once (_pcg_seed_words), then per seed numpy seeds a PCG64 from
    the seed's words, and its generator draws 32 standard normals, the real
    then the imaginary parts of T (the stream of two (4, 4) draws). The
    products, traces and divisions then run once on the whole stack; every
    element keeps the per-state operation order, so a state does not depend
    on the batch it is built in. Deterministic for fixed seeds; PSD and
    unit trace by construction.
    """
    seeds = [operator.index(s) for s in seeds]
    bad = [s for s in seeds if not 0 <= s < 2**64]
    if bad:
        raise ParamOutOfRange(f"seed {bad[0]} outside [0, 2**64)")
    words = _pcg_seed_words(np.array(seeds, dtype=np.uint64))
    g = np.empty((len(seeds), 2, 4, 4))
    for i, row in enumerate(words):
        bits = np.random.PCG64(_SeedWords(row))
        np.random.Generator(bits).standard_normal(out=g[i])
    t = g[:, 0] + 1j * g[:, 1]
    m = t @ t.conj().transpose(0, 2, 1)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def random_state(seed):
    """One seeded random state: a stack of one for random_states."""
    return random_states([seed])[0]
