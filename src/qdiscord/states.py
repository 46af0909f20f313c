"""Two-qubit density matrices: validation, parametrized families, entropies
and seeded random states.

Seeded random states are built as one (N, 4, 4) stack by random_states;
random_state is a stack of one, so there is a single construction path.

Basis order is fixed as |00>, |01>, |10>, |11> throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLIP = 1e-12


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


def hermiticity_deviation(m):
    return float(np.max(np.abs(m - m.conj().T)))


def validate_state(raw):
    """Check that `raw` is a valid two-qubit density matrix.

    Returns a complex 4x4 copy, or raises StateError for a wrong shape or a
    NaN/Inf entry, or NotHermitian / TraceNotOne / NotPositive carrying the
    measured deviation.
    """
    m = np.asarray(raw, dtype=complex)
    if m.shape != (4, 4):
        raise StateError(f"expected a 4x4 matrix, got shape {m.shape}")
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise StateError(f"entry ({i}, {j}) is not finite: {m[i, j]}")
    dev = hermiticity_deviation(m)
    if dev > HERM_TOL:
        raise NotHermitian(f"matrix is not Hermitian (deviation {dev:.3e})", dev)
    tr_dev = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
    if tr_dev > TRACE_TOL:
        raise TraceNotOne(f"trace differs from 1 by {tr_dev:.3e}", tr_dev)
    lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    if lo < -PSD_TOL:
        raise NotPositive(f"minimum eigenvalue {lo:.3e} is negative", -lo)
    return m.copy()


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
    dev = hermiticity_deviation(m)
    if dev > HERM_TOL:
        raise NotHermitian(f"matrix is not Hermitian (deviation {dev:.3e})", dev)
    ev = np.linalg.eigvalsh(m)[::-1].copy()
    ev[(ev < 0) & (ev >= -PSD_TOL)] = 0.0
    return ev


def von_neumann_entropy(m):
    """S(rho) = -Tr{rho log2 rho} in bits, with 0 log 0 = 0."""
    ev = spectrum(m)
    ev = ev[ev > EIG_CLIP]
    return float(-np.sum(ev * np.log2(ev)))


def purity(rho):
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ rho)))


def linear_entropy(rho):
    """S_L = (4/3)(1 - Tr rho^2), normalized to [0, 1] for two qubits."""
    s = (4.0 / 3.0) * (1.0 - purity(rho))
    return float(min(max(s, 0.0), 1.0))


FAMILY_KINDS = ("werner", "alpha", "beta", "twoparam", "pure")


@dataclass(frozen=True)
class Family:
    """Tagged parametrized state family.

    kind: one of 'werner' (xi), 'alpha', 'beta', 'pure' (Schmidt eigenvalue),
    each with a single parameter p1, or 'twoparam' with (p1, p2) = (a, b).
    """

    kind: str
    p1: float
    p2: float | None = None

    def __post_init__(self):
        k, x = self.kind, self.p1
        if k not in FAMILY_KINDS:
            raise ParamOutOfRange(f"unknown family kind {k!r}")
        if k == "werner" and not (-1 / 3 <= x <= 1):
            raise ParamOutOfRange(f"werner xi={x} out of range [-1/3,1]")
        if k in ("alpha", "beta", "pure") and not (0 <= x <= 1):
            raise ParamOutOfRange(f"{k}={x} out of range [0,1]")
        if k == "twoparam":
            if self.p2 is None:
                raise ParamOutOfRange("twoparam requires two parameters (a, b)")
            a, b = x, self.p2
            # 1e-12 slack absorbs round-off at the |b| = 1-a edge
            if not (0 <= a <= 1) or not (a - 1 - 1e-12 <= b <= 1 - a + 1e-12):
                raise ParamOutOfRange(
                    f"twoparam (a={a}, b={b}) outside 0<=a<=1, a-1<=b<=1-a"
                )
        if k != "twoparam" and self.p2 is not None:
            raise ParamOutOfRange(f"{k} takes a single parameter")


PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def make_family(fam):
    """Build the density matrix of a parametrized family member."""
    k = fam.kind
    if k == "werner":
        xi = fam.p1
        return (1 - xi) * np.eye(4, dtype=complex) / 4 + xi * np.outer(
            PSI_MINUS, PSI_MINUS.conj()
        )
    if k == "alpha":
        a = fam.p1
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = a / 2
        m[1, 1] = m[2, 2] = (1 - a) / 2
        return m
    if k == "beta":
        b = fam.p1
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = b / 2
        m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = (1 - b) / 2
        return m
    if k == "twoparam":
        a, b = fam.p1, fam.p2
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = a / 2
        m[1, 1] = (1 - a - b) / 2
        m[2, 2] = (1 - a + b) / 2
        return m
    if k == "pure":
        lam = fam.p1
        v = np.array([np.sqrt(lam), 0, 0, np.sqrt(1 - lam)], dtype=complex)
        return np.outer(v, v.conj())
    raise ParamOutOfRange(f"unknown family kind {k!r}")


def random_states(seeds):
    """The (N, 4, 4) stack of rho = T T^dag / Tr{T T^dag}, one per seed, with
    T a 4x4 standard complex Gaussian.

    Each seed gets its own generator and one standard_normal draw of 32
    values, the real then the imaginary parts of T, which is the stream of two
    (4, 4) draws. The products, traces and divisions then run once on the
    whole stack; every element keeps the per-state operation order, so a
    state does not depend on the batch it is built in. Deterministic for
    fixed seeds; PSD and unit trace by construction.
    """
    g = np.empty((len(seeds), 2, 4, 4))
    for i, s in enumerate(seeds):
        np.random.default_rng(s).standard_normal(out=g[i])
    t = g[:, 0] + 1j * g[:, 1]
    m = t @ t.conj().transpose(0, 2, 1)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def random_state(seed):
    """One seeded random state: a stack of one for random_states."""
    return random_states([seed])[0]
