"""Correlation measures for two-qubit states: mutual information, numerically
optimized discord, classical correlation, Wootters concurrence, entanglement
of formation from the concurrence, and closed-form family discords.

Measurements are two-element projective sets on subsystem B, parametrized by
(theta, phi) with |psi> = cos(theta)|0> + e^{i phi} sin(theta)|1>, that is,
by the Bloch vector n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta).

discord_batch is the one entry to the discord engine (_classical_correlation):
it checks its states once, by the rules of states.validate_states, and
discord_numeric is its batch of one. The engine writes each state in Fano
form, rho = (I + r.sigma x I + I x s.sigma + sum_ij T_ij sigma_i x sigma_j)/4.
Measuring B along n gives p+- = (1 +- s.n)/2 and conditional Bloch vectors
a+- = (r +- T n)/(2 p+-), so S(A|Pi) = sum p+- h((1 + |a+-|)/2) in closed
form (Luo, PRA 77, 042303 (2008)). The engine scans S(A|Pi) over each
state's start set: the distinct directions of the fixed _GRID_THETA x
_GRID_PHI angle grid plus four directions read off the state, the right
singular vectors of T and s/|s|. The tie rule: where starts tie exactly,
a state's start is the first minimum in start order (the grid columns in
order, then the four directions), which is numpy's documented argmin
rule. In a batch of at least _F32_MIN states the engine ranks the starts
in float32 and decides each state in float64 among the starts of its
window, those within 2 _F32_EPS of its float32 minimum (_rank_f32), with
the start of the float64 scan (_scan_f64) to the bit; a block whose first
float32 chunk has windows of more than 1/8 of its starts takes the float64
scan for the rest (_scan). It refines the best start of every
state with a trust-region Newton iteration in the tangent plane of the
sphere, on the value, gradient and Hessian of that closed form, all three
from one evaluation per step, to _REFINE_TOL within _MAX_ITER steps. It
goes through a batch in chunks of bounded size, with per-state SVDs and
elementwise arithmetic only, so a state's result does not depend on its
batch. The outcomes, rows and frame vectors of one evaluation lie on
leading axes of a few arrays, so numpy's per-call cost is paid per
evaluation, not per component, and each element still goes through the
per-component operations in their order. A record's S(rho_A) is taken
once, by _record_measures, and read by both its mutual information and its
classical correlation S(rho_A) - S(A|Pi), where the engine gives S(A|Pi).
The package keeps exactly two per-state references, for the benchmark:
conditional_information and discord_analytic. No package code calls them;
bench/workloads.py reads both, and they leave when the benchmark holds its
own copies (ROADMAP item 7). Every other per-state reference is a test
oracle in tests/conftest.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    PSD_TOL,
    Family,
    StateError,
    _hermitian_unit_trace,
    validate_states,
)

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SYSY = np.kron(SIGMA_Y, SIGMA_Y)

P_FLOOR = 1e-14  # measurement outcomes below this probability are dropped
EIG_CLIP = 1e-12  # eigh's eigenvalues of rho up to this are round-off


class UnsupportedFamily(StateError):
    pass


class OptimizerDidNotConverge(RuntimeError):
    """The refinement of some state did not converge within _MAX_ITER
    iterations; `states` holds the indices of those states in their batch."""

    def __init__(self, message, states=()):
        super().__init__(message)
        self.states = list(states)


@dataclass(frozen=True)
class CorrelationRecord:
    """All scalar measures of one state plus the optimizing angles."""

    mutual_info: float
    classical_corr: float
    discord: float
    concurrence: float
    eof: float
    linear_entropy: float
    theta_opt: float
    phi_opt: float


@dataclass(frozen=True)
class AnalyticDiscordTrace:
    """Closed-form discord value with its diagnostic intermediates."""

    value: float
    branch: str
    zeta: float | None = None  # alpha family only
    q: float | None = None  # two-parameter family only


def conditional_information(rho, theta, phi):
    """Measurement-induced mutual information S(rho_A) - sum_k p_k S(rho_A|k)
    of the state rho when B is measured in the basis v_1 = (cos theta,
    e^{i phi} sin theta), v_2 = (-sin theta, e^{i phi} cos theta): the
    per-state reference for the classical correlation of discord_batch's
    records, taken from the matrices without Fano coefficients.

    One contraction <v_k|_B rho |v_k>_B gives A's two unnormalized
    conditional states, of traces p_k; an outcome with p_k <= P_FLOOR is
    dropped. Each entropy counts the positive eigenvalues of eigvalsh's
    spectrum of a 2 x 2 state of A, rho_A or a normalized conditional
    state: the 4 x 4 post-measurement states have two zero eigenvalues,
    which eigvalsh would return as ~1e-15 of round-off noise. rho is taken
    to be a density matrix; it is not validated.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    ph = np.exp(1j * phi)
    c, s = np.cos(theta), np.sin(theta)
    v = np.array([[c, ph * s], [-s, ph * c]])
    cond = np.einsum("kb,abcd,kd->kac", v.conj(), r, v)
    p = np.trace(cond, axis1=1, axis2=2).real
    keep = p > P_FLOOR
    rho_a = np.einsum("abcb->ac", r)
    m = np.concatenate([rho_a[None], cond[keep] / p[keep, None, None]])
    ev = np.linalg.eigvalsh(m)
    ev[ev <= 0] = 1.0  # 1 log2 1 = 0: 0 log 0 = 0, and round-off negatives are 0
    ent = -(ev * np.log2(ev)).sum(axis=1)
    return float(ent[0] - p[keep] @ ent[1:])


# Each two-qubit Pauli product P = sigma_i x sigma_j has one nonzero entry per
# row, so Tr(P rho) = sum_k P[k, c_k] rho[c_k, k]: four products per state.
# Product 4 i + j takes A's index i in the order x, y, z, 0 and B's index j
# in the order 0, x, y, z (see _fano).
_PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    SIGMA_Y,
    np.array([[1, 0], [0, -1]]),
)
_PRODUCTS = [np.kron(a, b) for a in _PAULIS[1:] + _PAULIS[:1] for b in _PAULIS]
_PAULI_COLS = np.array([np.argmax(np.abs(p), axis=1) for p in _PRODUCTS])
_PAULI_VALS = np.array(
    [p[np.arange(4), c] for p, c in zip(_PRODUCTS, _PAULI_COLS)], dtype=complex
)
_PAULI_ENTRIES = 4 * _PAULI_COLS + np.arange(4)  # flat indices of rho[c_k, k]
# the 15 coefficients other than the constant, as flat indices into the 4 x 4
# layout, in the order r, s, T: Tr rho^2 sums their squares in this order
_PURITY_ORDER = np.array([0, 4, 8, 13, 14, 15, 1, 2, 3, 5, 6, 7, 9, 10, 11])


def _fano(rhos):
    """Halved Fano coefficients of a stack of states, shape (4, 4, N).

    rho = (I + r.sigma x I + I x s.sigma + sum_ij T_ij sigma_i x sigma_j) / 4.
    c[i, j] = Tr(rho sigma_i x sigma_j) / 2, with A's index i in the order
    x, y, z, 0 and B's index j in the order 0, x, y, z: c[:3, 0] = r/2,
    c[:3, 1:] = T/2, c[3, 1:] = s/2 and c[3, 0] = 1/2 exactly. Outcome +-n
    of measuring B along n then has (u, p) = c[:, 0] +- c[:, 1:] n (see
    _conditional_entropy).
    """
    t = rhos.reshape(len(rhos), 16)[:, _PAULI_ENTRIES] * _PAULI_VALS
    tr = (t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3]).real
    c = (0.5 * tr).T.reshape(4, 4, len(rhos))
    c[3, 0] = 0.5
    return c


def _xlog2(x):
    """x log2 x, elementwise, taken as 0 for x <= 0 (round-off can push the
    small eigenvalue of a pure conditional state just below zero)."""
    x = np.maximum(x, 0.0)
    return x * np.log2(np.maximum(x, 1e-300))


def _conditional_entropy(c, n):
    """S(A|Pi_n) = sum_k p_k S(rho_A|k) for the projective measurement of B
    along the unit Bloch vectors n = (nx, ny, nz) (leading axis), elementwise
    over the broadcast of the halved Fano coefficients c (see _fano) against
    n's trailing shape.

    Outcome +-n occurs with p = 1/2 +- (s/2).n and leaves A in the
    unnormalized state (p I + u.sigma)/2 with u = r/2 +- (T/2) n, whose
    eigenvalues (p +- |u|)/2 give p S(rho_A|k) = xlog(p) - sum xlog(eig).
    The rows (T n, s.n) and the two outcomes lie on leading axes, so the
    objective takes 22 array operations whatever its shape. Every element
    goes through the operations of the per-component form in the same
    order, so the values are the same to the bit. An outcome with p <= 0
    contributes 0 and one with p below P_FLOOR at most p bits; the
    reference conditional_information drops both. The arithmetic runs in
    the dtype of c and n, float64 or, for the scan's ranking (see
    _rank_f32), float32.
    """
    b, _, lg = _outcomes(c, _rows(c, n))
    lg *= b[3:]
    return _outcome_sum(lg)


def _rows(c, n):
    """The rows (T n, s.n)/2 of the halved Fano coefficients c (see _fano)
    for the Bloch vectors n = (nx, ny, nz) (leading axis), each as
    ((c_x nx + c_y ny) + c_z nz), elementwise over the broadcast of c's
    trailing shape against n's; shape (4, ...). All the products c_k n_k
    come from one multiplication."""
    prod = c[:, 1:] * n
    rows = prod[:, 0] + prod[:, 1]
    rows += prod[:, 2]
    return rows


# the least argument of log2 in _outcomes, per dtype. A float32 floor must
# be a float32 number: 1e-300 rounds to 0 in float32 (under numpy 1.x's
# value-based casting too), and then 0 log2 0 is nan. Below the floor,
# x log2(floor) is at most 2^-126 x 126 in float32, far under round-off.
_LOG2_FLOOR = {np.dtype(np.float64): 1e-300, np.dtype(np.float32): np.finfo(np.float32).tiny}


def _outcomes(c, rows):
    """The two outcomes of measuring B along n, from the rows (T n, s.n)/2
    of n (see _rows), with the clamped logarithms of S(A|Pi_n): the one
    value path of _conditional_entropy and _objective_derivatives.

    Returns (b, w, lg). b[:, k] holds outcome k's u (3 rows), then p and
    the eigenvalues (p + |u|)/2 and (p - |u|)/2, the last three clamped at
    0, shape (6, 2, ...); w holds |u|, shape (2, ...); lg holds log2 of the
    clamped (p, eig+, eig-), each at least _LOG2_FLOOR, so that
    _outcome_sum(lg * b[3:]) is S(A|Pi_n). All three have the dtype of rows.
    """
    b = np.empty((6, 2) + rows.shape[1:], dtype=rows.dtype)
    np.add(c[:, 0], rows, out=b[:4, 0])
    np.subtract(c[:, 0], rows, out=b[:4, 1])
    sq = b[:3] * b[:3]
    w = sq[0] + sq[1]
    w += sq[2]
    np.sqrt(w, out=w)
    np.add(b[3], w, out=b[4])
    np.subtract(b[3], w, out=b[5])
    e = b[4:]
    e *= 0.5
    x = np.maximum(b[3:], 0.0, out=b[3:])
    # sq is spent, and lg takes its buffer: kept alive next to a fresh lg,
    # it made the scan about a fifth slower (see _CHUNK_BYTES)
    lg = np.maximum(x, _LOG2_FLOOR[x.dtype], out=sq)
    np.log2(lg, out=lg)
    return b, w, lg


def _outcome_sum(xl, out=None):
    """The running sum 0 + xlog(p) - xlog(eig+) - xlog(eig-) over the two
    outcomes of xl = xlog2 of (p, eig+, eig-), shape (3, 2, ...), into out
    if given."""
    out = np.add(xl[0, 0], 0.0, out=out)
    out -= xl[1, 0]
    out -= xl[2, 0]
    out += xl[0, 1]
    out -= xl[1, 1]
    out -= xl[2, 1]
    return out


# sigma times the signs of the log2 p, log2 e+ and log2 e- terms of the gradient
_GRAD_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])[..., None]
_LOG2_CLIP = np.log2(EIG_CLIP)
# the signs of the K(p), K(e+) and K(e-) terms of the Hessian, over ln 2
_CURV_SIGN = np.array([1.0, -1.0, -1.0])[:, None, None] / np.log(2.0)


def _objective_derivatives(c, frame):
    """S(A|Pi_n) with its gradient and Hessian in the tangent plane, at the
    frames (n, e1, e2) (see _frame) of shape (3, 3, M), for the halved Fano
    coefficients c of shape (4, 4, M).

    With r' = c[:3, 0], T' = c[:3, 1:] and s' = c[3, 1:], outcome sigma = +-1
    has p = 1/2 + sigma s'.n, u = r' + sigma T'n, w = |u| and eigenvalues
    e+- = (p +- w)/2. The rows of T' and s' times the frame lie on one
    leading axis: t_k = T'e_k and a_k = s'.e_k for e_k = n, e1, e2. With
    z_k = u.t_k / w and d+-_k = (a_k +- z_k)/2, the derivative along e_k is
    g_k = sum_sigma sigma (log2 p a_k - log2 e+ d+_k - log2 e- d-_k)
    (Luo's closed form differentiated; the 1/ln 2 terms cancel). With
    K(x) = 1/(x ln 2), B = log2(e+/e-)/2 and G_ij = t_i.t_j, the tangent
    Hessian, the second derivatives along _retract, is
    h_ij = sum_sigma [K(p) a_i a_j - K(e+) d+_i d+_j - K(e-) d-_i d-_j
    + (B/w)(z_i z_j - G_ij)] - delta_ij g_n. A p or eigenvalue at or below
    EIG_CLIP enters the logarithms as EIG_CLIP and adds no K term: the
    round-off eigenvalues of pure states would otherwise put ~1e17 into the
    Hessian and ~1e-13 of noise into the gradient. So an outcome with p at
    or below EIG_CLIP, whose eigenvalues are no larger, adds nothing to the
    derivatives (and at most p bits to the value).

    Returns the stack (f, g1, g2, h11, h22, h12), shape (6, M). f equals
    _conditional_entropy(c, frame[0]) bit for bit: both take it from
    _rows and _outcomes.
    """
    rows = _rows(c[:, :, None], frame.swapaxes(0, 1))  # (4, 3, M): n, e1, e2
    b, w, lg = _outcomes(c, rows[:, 0])
    x = b[3:]
    out = np.empty((6,) + w.shape[1:])
    _outcome_sum(lg * x, out=out[0])

    keep = x > EIG_CLIP
    np.maximum(lg, _LOG2_CLIP, out=lg)  # log2 of max(x, EIG_CLIP)
    # Hessian weights of (a, d+, d-, z, t) per outcome: K(p), -K(e+-), B/w
    # and -B/w for each of the three components of t
    wt = np.empty((7,) + w.shape)
    np.divide(keep * _CURV_SIGN, np.maximum(x, EIG_CLIP), out=wt[:3])
    wi = 1.0 / np.maximum(w, 1e-300)  # u/w is 0 where u = 0
    np.subtract(lg[1], lg[2], out=wt[3])
    wt[3] *= 0.5 * wi
    np.negative(wt[3], out=wt[4:])
    # (a, d+, d-, z, t) per outcome along n, e1 and e2: shape (7, 2, 3, M)
    dv = np.empty((7, 2) + rows.shape[1:])
    dv[4:] = rows[:3, None]
    zt = (b[:3] * wi)[:, :, None] * rows[:3, None]
    z = np.add(zt[0], zt[1], out=dv[3])
    z += zt[2]
    dv[0] = rows[3]
    np.add(dv[0], z, out=dv[1])
    np.subtract(dv[0], z, out=dv[2])
    dv[1:3] *= 0.5
    gp = dv[:3] * (lg * _GRAD_SIGN)[:, :, None]
    g = _sum_leading(gp.reshape((6,) + rows.shape[1:]))  # g_n, g1, g2
    out[1:3] = g[1:]

    tan = dv[:, :, 1:]
    hp = tan[:, :, :, None] * tan[:, :, None]
    hp *= wt[:, :, None, None]
    h = _sum_leading(hp.reshape((14, 4) + w.shape[1:]))  # h11, h12, h21, h22
    np.subtract(h[::3], g[0], out=out[3:5])
    out[5] = h[1]
    return out


def _sum_leading(x):
    """The sum over the leading axis of x as a fixed tree of elementwise
    adds, so every element is summed in the same order whatever the other
    axes; a numpy reduction picks its order from the array's shape."""
    while len(x) > 1:
        half = len(x) // 2
        y = x[:half] + x[half : 2 * half]
        if len(x) % 2:
            y[0] += x[-1]
        x = y
    return x[0]


def _binary_entropy_pair(x):
    """-xlog2(x[0]) - xlog2(x[1]) of the stacked pair x, from one _xlog2
    call."""
    xl = _xlog2(x)
    return -xl[0] - xl[1]


def _direction_grid(n_theta, n_phi):
    """Bloch vectors of the distinct measurements of an angle grid.

    The grid is theta = linspace(0, pi/2, n_theta) times phi =
    linspace(0, 2 pi, n_phi, endpoint=False), and n = (sin 2theta cos phi,
    sin 2theta sin phi, cos 2theta). Since n and -n define the same
    measurement (f(theta, phi) = f(pi/2 - theta, phi + pi)), only the half
    phi < pi is kept, and the two poles enter once. Returns the read-only
    (3, G) array of the directions.
    """
    pol = 2 * np.linspace(0.0, np.pi / 2, n_theta)[1:-1]
    azi = np.linspace(0.0, np.pi, -(-n_phi // 2), endpoint=False)
    pp, aa = np.meshgrid(pol, azi, indexing="ij")
    pp = np.concatenate([[0.0], pp.ravel()])
    aa = np.concatenate([[0.0], aa.ravel()])
    n = np.stack([np.sin(pp) * np.cos(aa), np.sin(pp) * np.sin(aa), np.cos(pp)])
    n.setflags(write=False)
    return n


# The search budget: each state's start set is the 225 distinct directions
# of a 16 x 32 grid plus the four of _state_directions, and the best of
# those 229 starts is refined (see _refine for the tolerance). On the
# acceptance batches (10 000 random states and 1000 1e-3 near-boundary
# states per family) this moves no classical correlation of the former
# 30 x 60 grid-only search by more than 5.1e-13. Against a 120 x 240 grid
# with 8 refined starts it agrees within 1e-12 on random, X, low-rank and
# near-tie Bell-diagonal states. Near-pure mixtures can have several shallow
# basins that no state direction points to, and there it can miss. On 15 000
# such states (a seeded study) it falls at most 6.1e-15 short of that search;
# a second study of 30 000 found one that falls 2.36e-10 short, its best
# start in the wrong basin (test_near_pure_state_the_default_misses), and
# states that a 12 x 24 or 10 x 20 grid misses by up to 9.1e-6. Refining
# all four state directions and no grid took 2.5 times as long per state:
# the slowest start sets the iteration count, 8-18 evaluations against 1-5.
_GRID_THETA, _GRID_PHI = 16, 32
_REFINE_TOL = 1e-12
_MAX_ITER = 500  # Newton steps per start, one objective evaluation each
_GRID = _direction_grid(_GRID_THETA, _GRID_PHI)

# bytes per plane of a chunk's objective values. The chunk rule: a scan
# call (_scan_chunks) takes _CHUNK_BYTES // itemsize // _STARTS states,
# each with its _STARTS starts, so 13 states in float64 and 26 in float32.
# The largest engine temporary, the (6, 2) row stack of
# _conditional_entropy, then holds 12 x 24 KB = 288 KB. Past ~450 KB, glibc
# malloc hands such blocks back to the OS after each call and page-faults
# them in again on the next (raising MALLOC_MMAP_THRESHOLD_ and
# MALLOC_TRIM_THRESHOLD_ removes the step), and the objective's cost per
# value doubles: a float64 scan call of 26 states took 712 us, against
# 224 us at 13. Much smaller chunks pay the fixed cost of its ~25 array
# operations on too few values: at 8 KB, sample_random(2000) took 7 %
# longer than at 24 KB.
_CHUNK_BYTES = 24 << 10
_STARTS = _GRID.shape[1] + 4  # starts per state: the grid and _state_directions
# states per refinement block: the largest temporary of
# _objective_derivatives, the pair products of (a, d+, d-, z, t), has
# 7 rows x 2 x 2 tangent pairs x 2 outcomes = 56 planes per state, as many
# as the (6, 2) row stacks of ceil(56 / 12) = 5 objective values
_BLOCK_STATES = _CHUNK_BYTES // 8 // 5
_R_START = 0.05  # first trust radius; a start read off the state is close
# a start whose trust radius falls below this without a gain has converged:
# the landscape is flat to round-off there (pure states, I/4)
_R_MIN = 1e-10
_PM = np.array([[1.0], [-1.0]])  # signs that stack a +- pair on a leading axis
# the frame as products tab[I] * tab[J] * S of tab = (cos pol, cos azi,
# sin pol, sin azi, 1): n = (sin pol cos azi, sin pol sin azi, cos pol),
# e1 = dn/dpol = (cos pol cos azi, cos pol sin azi, -sin pol) and
# e2 = (-sin azi, cos azi, 0); a factor 1 or -1 leaves a product exact
_FRAME_I = np.array([[2, 2, 0], [0, 0, 2], [3, 1, 4]])
_FRAME_J = np.array([[1, 3, 4], [1, 3, 4], [4, 4, 4]])
_FRAME_S = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 0.0]])[:, :, None]


def _frame(ang):
    """The orthonormal frame (n, e1, e2), shape (3, 3, M), at the Bloch
    angles ang = (pol, azi) of shape (2, M); see _FRAME_I."""
    tab = np.empty((5, ang.shape[1]))
    np.cos(ang, out=tab[:2])
    np.sin(ang, out=tab[2:4])
    tab[4] = 1.0
    return tab[_FRAME_I] * tab[_FRAME_J] * _FRAME_S


def _angles(v):
    """Bloch angles (pol, azi), stacked, of the vectors v = (vx, vy, vz), in
    the form a record reports them: azi in [0, 2 pi) and 2 (pol / 2) == pol.

    arctan2's azimuth is taken mod 2 pi, and as 0, the nearer angle, where
    that rounds to 2 pi (less than half an ulp of 2 pi below 0). pol is
    taken as 2 (pol / 2), which changes a subnormal pol only. Both arguments
    of arctan2 are fresh contiguous arrays: on a lone vector numpy runs
    arctan2 over a negatively strided view in a scalar loop, whose last bit
    can differ from the vector loop's."""
    ang = np.arctan2(np.array([np.hypot(v[0], v[1]), v[1]]), np.array([v[2], v[0]]))
    ang[0] = 2.0 * (0.5 * ang[0])
    azi = np.mod(ang[1], 2 * np.pi, out=ang[1])
    azi[azi == 2 * np.pi] = 0.0
    return ang


def _retract(frame, xy):
    """Unit vectors (n + x e1 + y e2) / |.| of the frame (n, e1, e2) (see
    _frame) at the tangent-plane offsets xy = (x, y), stacked."""
    sq = xy * xy
    inv = 1.0 / np.sqrt(1.0 + sq[0] + sq[1])
    t = xy[:, None] * frame[1:]
    v = frame[0] + t[0]
    v += t[1]
    v *= inv
    return v


def _refine(c, ang, f, r0):
    """Minimize S(A|Pi_n) from each start, all starts at once.

    Start k has halved Fano coefficients c[..., k] and Bloch angles
    ang[:, k] = (pol, azi). Each start runs a trust-region Newton iteration
    in the tangent plane of its frame (n, e1, e2), on the value, gradient
    and Hessian of _objective_derivatives: one evaluation per iteration,
    at the trial point (n + x e1 + y e2) / |.|. Along each eigendirection
    of the 2x2 Hessian the step is the Newton step where the curvature
    exceeds |slope| / radius, and one radius downhill otherwise; on
    negative curvature at a saddle, where the slope is 0, it still goes
    one radius. A trial is accepted only if its value is lower; the radius
    then grows to twice the step if that is larger, and otherwise shrinks
    to a quarter of the step. A start has converged when the model
    decrease of its next step is at most _REFINE_TOL / 1000 and its least
    tangent curvature is at least -_REFINE_TOL (a second-order stationary
    point), or when its radius has fallen below _R_MIN without a gain (a
    landscape flat to round-off); it is then frozen while the others
    iterate. After _MAX_ITER iterations the rest stop unconverged. The
    first radius is r0.

    The two eigendirections lie on a leading axis of one array. Writes the
    final angles into ang and values into f, and returns the per-start
    converged flags. Every operation is elementwise over starts, so a
    start's result does not depend on the others.
    """
    converged = np.ones(len(f), dtype=bool)
    act = np.arange(len(f))
    tol = _REFINE_TOL
    # the active starts' coefficients, angles, frames, evaluations, radii
    ck, at, frame = c, ang, _frame(ang)
    ev = _objective_derivatives(ck, frame)
    rk = np.full(len(f), r0)
    for _ in range(_MAX_ITER):
        g, h11, h22, h12 = ev[1:3], ev[3], ev[4], ev[5]
        diff = h11 - h22
        psi = 0.5 * np.arctan2(2 * h12, diff)
        cp, sp = np.cos(psi), np.sin(psi)
        mid, rad = 0.5 * (h11 + h22), np.hypot(0.5 * diff, h12)
        # per Hessian eigendirection: curvature mid +- rad, the slope, and in
        # steps minus the step, Newton or one radius downhill
        mu = mid + _PM * rad
        gr = cp * g + _PM * (sp * g[::-1])
        steps = np.copysign(rk, gr)
        np.divide(gr, mu, out=steps, where=mu * rk > np.abs(gr))
        model = steps * (0.5 * mu * steps - gr)  # minus the model decrease
        stationary = (model[0] + model[1] >= -1e-3 * tol) & (mu[1] >= -tol)
        done = stationary | (rk < _R_MIN)
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            break
        if n_done:
            fin, go = act[done], ~done
            ang[:, fin], f[fin] = at[:, done], ev[0, done]
            act, ck, at, frame = act[go], ck[..., go], at[:, go], frame[..., go]
            ev, rk, steps, cp, sp = ev[:, go], rk[go], steps[:, go], cp[go], sp[go]
        d = _PM * (sp * steps[::-1]) - cp * steps
        an = _angles(_retract(frame, d))
        fn = _frame(an)
        en = _objective_derivatives(ck, fn)
        better = en[0] < ev[0]
        at, frame = np.where(better, an, at), np.where(better, fn, frame)
        ev = np.where(better, en, ev)
        step = np.hypot(d[0], d[1])
        rk = np.where(better, np.maximum(rk, 2 * step), 0.25 * step)
    else:
        converged[act] = False
    ang[:, act], f[act] = at, ev[0]
    return converged


_Z_AXIS = np.array([[0.0], [0.0], [1.0]])  # the direction of s where s = 0


def _state_directions(c):
    """The four measurement directions read off each state with halved Fano
    coefficients c (see _fano): the three right singular vectors of T, from
    one stacked SVD, and s/|s|, or the z axis where s = 0. Returns the
    components (nx, ny, nz) stacked, shape (3, N, 4)."""
    out = np.empty((3, c.shape[-1], 4))
    out[:, :, :3] = np.linalg.svd(c[:3, 1:].transpose(2, 0, 1))[2].transpose(2, 0, 1)
    s = c[3, 1:]
    w = np.hypot(np.hypot(s[0], s[1]), s[2])
    out[:, :, 3] = _Z_AXIS
    np.divide(s, w, out=out[:, :, 3], where=w > 0)
    return out


# The float32 ranking of the scan (see _rank_f32 and _scan). _F32_MIN: a
# block of fewer states takes the float64 scan alone, a lone call included.
# In a fresh process, where numpy's first float32 calls cost most,
# discord_batch on random states took, ranked over unranked (median of 16
# alternating pairs), 1.035 at 4 states, 0.999 at 8 and 0.917 at 16; warm,
# 0.964 at 8. _F32_EPS bounds |S32 - S64| for any start of any state
# (derivation in _rank_f32).
_F32_MIN = 8
_F32_EPS = 1e-4


def _scan_chunks(c, dirs, dtype):
    """The one chunk loop of both scans: S(A|Pi_n) of every start of each
    state with halved Fano coefficients c and state directions dirs (see
    _state_directions), computed in dtype, one _conditional_entropy call per
    chunk of the chunk rule at _CHUNK_BYTES. Yields per chunk the slice of
    its m states, their starts (3, m, _STARTS), the grid then the state's
    four directions, and the values (m, _STARTS). The start buffer is
    reused: a chunk's starts hold until the next chunk is asked for."""
    g = _GRID.shape[1]
    n = c.shape[-1]
    size = _CHUNK_BYTES // np.dtype(dtype).itemsize // _STARTS
    cand = np.empty((3, min(size, n), _STARTS), dtype=dtype)
    cand[:, :, :g] = _GRID[:, None]
    c = c.astype(dtype, copy=False)
    for i in range(0, n, size):
        part = slice(i, i + size)
        here = cand[:, : min(size, n - i)]
        here[:, :, g:] = dirs[:, part]
        yield part, here, _conditional_entropy(c[..., part, None], here)


def _scan_f64(c, dirs):
    """The start of least float64 S(A|Pi_n) of each state with halved Fano
    coefficients c, shape (4, 4, N), and state directions dirs (see
    _state_directions), over the grid and its four state directions; shape
    (3, N). Each chunk of _scan_chunks (the chunk rule at _CHUNK_BYTES)
    picks its starts before the next runs. On exact ties the start is the
    first minimum, by the tie rule of the module docstring."""
    start = np.empty((3, c.shape[-1]))
    for part, here, scan in _scan_chunks(c, dirs, np.float64):
        best = scan.argmin(axis=1)
        start[:, part] = here[:, np.arange(len(best)), best]
    return start


def _rank_f32(c, dirs):
    """The start of least float64 S(A|Pi_n) of each state, as _scan_f64
    finds it, from a float32 scan and a float64 evaluation of each state's
    window.

    The scan runs in float32 on float32 copies of c and of the starts, in
    the chunks of _scan_chunks (the chunk rule at _CHUNK_BYTES). A state's
    window holds every start whose float32 value is not above the state's
    float32 minimum v_1 + 2 eps, with eps = _F32_EPS; a row that holds a
    nan compares false everywhere, so its window is all of its starts. With
    S32 and S64 a start's float32 and float64 values and |S32 - S64| <= eps,
    a start outside the window has S32 > v_1 + 2 eps, so
    S64 >= S32 - eps > v_1 + eps >= the S64 of the float32 best: every
    start outside the window lies strictly above the float64 minimum, and
    every start that attains it, tied or not, is in the window. The window
    test runs in float32, so v_1 + 2 eps can round down by half a float32
    ulp of 1, 6e-8 (S <= 1); the derivation below bounds |S32 - S64| by
    eps less 1.4e-5, which covers it. The window's starts are evaluated
    again in float64, with the operations of _scan_f64, in chunks of at
    most _CHUNK_BYTES per plane, into a row of +inf per state; the first
    minimum of that row is the first minimum of all the starts: _scan_f64's
    start to the bit, for every state, ties included, whatever the batch.

    eps: p and e+- come out of about 11 float32 roundings (the casts of c
    and n, the rows, the sums and the square root), each of at most half a
    float32 ulp at 1, 6e-8: an absolute error of at most about 6.5e-7
    (9e-8 seen on random states). Through x log2 x, whose slope is
    unbounded at 0, an error D moves a term by at most about
    D (log2(1/D) + 1/ln 2), 1.4e-5 at D = 6.5e-7; the six terms of two
    outcomes give 8.6e-5, and float32 log2, within an ulp of
    |x log2 x| <= 0.53, adds ~1e-7. So eps = 1e-4. The largest
    |S32 - S64| seen is 3.7e-7 on random states and 1.2e-6 on near-pure
    ones (tests: TestFloat32Ranking). A larger eps widens the windows.

    Returns the starts, shape (3, N), and the number of window starts.
    """
    g = _GRID.shape[1]
    n = c.shape[-1]
    scan = np.concatenate([v for *_, v in _scan_chunks(c, dirs, np.float32)])
    k = np.flatnonzero(~(scan > scan.min(axis=1, keepdims=True) + 2 * _F32_EPS))
    i, j = np.divmod(k, _STARTS)
    # start j of state i is column j of _GRID, or j - g of dirs[:, i]: column
    # j + 4 i of the grid followed by all the state directions
    table = np.concatenate([_GRID, dirs.reshape(3, 4 * n)], axis=1)
    col = j + (j >= g) * (4 * i)
    f = np.full((n, _STARTS), np.inf)
    size = _CHUNK_BYTES // 8
    for lo in range(0, k.size, size):
        w = slice(lo, lo + size)
        f.flat[k[w]] = _conditional_entropy(c[..., i[w]], table[:, col[w]])
    best = f.argmin(axis=1)
    return table[:, best + (best >= g) * (4 * np.arange(n))], k.size


def _scan(c, dirs):
    """The start of each state, the first minimum of its starts as
    _scan_f64 finds it (see there), with the float32 ranking of _rank_f32
    where it pays: in a block of at least _F32_MIN states, and past the
    first float32 chunk only if that chunk's windows hold at most 1/8 of
    its starts. The landscape of a 1e-3 Werner mixture is flat to within
    a few _F32_EPS: its window holds 126 of its 229 starts on average, and
    evaluating them again in float64 costs more than the float64 scan. The
    first chunk of 100 such mixtures holds 5 558 window starts in 26
    states, so the rest takes the float64 scan; without this probe,
    discord_batch on 1000 of them took about 50 % longer. Windows of 1e-3
    pure mixtures (317 starts in that first chunk, 11.5 per state) and of
    random states (1.16 per state) are ranked throughout; the shuffled
    mixtures of all five families, 29 per state, lie near the 1/8 line."""
    n = c.shape[-1]
    if n < _F32_MIN:
        return _scan_f64(c, dirs)
    head = min(n, _CHUNK_BYTES // 4 // _STARTS)  # the first float32 chunk
    start = np.empty((3, n))
    start[:, :head], size = _rank_f32(c[..., :head], dirs[:, :head])
    if head < n:
        rest = c[..., head:], dirs[:, head:]
        ranked = 8 * size <= head * _STARTS
        start[:, head:] = _rank_f32(*rest)[0] if ranked else _scan_f64(*rest)
    return start


def _classical_correlation(rhos):
    """The discord engine: the least conditional entropy S(A|Pi) of each
    state of a (N, 4, 4) complex stack of checked states, from which
    discord_batch forms the classical correlation S(rho_A) - S(A|Pi).

    For each state, S(A|Pi_n) (see _conditional_entropy) is scanned over the
    distinct directions of the _GRID_THETA x _GRID_PHI angle grid and the
    four directions of _state_directions, and the best of them is refined
    by _refine, a trust-region Newton iteration on the closed-form value,
    gradient and Hessian of _objective_derivatives, with a first trust
    radius of _R_START. _angles gives every angle that _refine evaluates in
    the form a record reports it, so the returned theta = pol / 2 and
    phi = azi are the refined angles themselves, and the returned value,
    the one _refine ends on, is S(A|Pi_n) at (2 theta, phi) bit for bit:
    _objective_derivatives takes it as _conditional_entropy does.

    States go through in blocks of _BLOCK_STATES, whose starts _refine
    takes at once; each block's coefficients and state directions come from
    one _fano and one _state_directions call, and its scan from _scan: the
    float32 ranking, which decides every state it ranks in float64 among
    the starts of its window, where that pays, and the float64 scan
    elsewhere, both in the chunks of _scan_chunks (the chunk rule at
    _CHUNK_BYTES). Both give each state the first minimum of its starts
    (the tie rule of the module docstring), so the same start to the bit.
    The SVDs run per state and all other arithmetic is elementwise over
    states, so a state's result does not depend on the batch or chunk it
    is in, bit for bit.

    Returns the halved Fano coefficients (4, 4, N) of the states and float
    arrays (S(A|Pi), theta_opt, phi_opt) with theta in [0, pi/2] and phi in
    [0, 2 pi). Raises OptimizerDidNotConverge, after the whole batch has
    run, if the refinement of some state did not converge within _MAX_ITER
    iterations.
    """
    n = len(rhos)
    c = np.empty((4, 4, n))
    f = np.empty(n)
    ang = np.empty((2, n))
    converged = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK_STATES):
        blk = slice(lo, lo + _BLOCK_STATES)
        c[..., blk] = _fano(rhos[blk])
        cb = c[..., blk]
        dirs = _state_directions(cb)
        ang[:, blk] = _angles(_scan(cb, dirs))
        # ang[:, blk] and f[blk] are views, so _refine's updates land in ang, f
        converged[blk] = _refine(cb, ang[:, blk], f[blk], _R_START)
    failed = (~converged).nonzero()[0]
    if failed.size:
        raise OptimizerDidNotConverge(
            f"{failed.size} state(s) did not converge within {_MAX_ITER} iterations",
            failed.tolist(),
        )
    return c, f, 0.5 * ang[0], ang[1]


_LN2 = np.log(2.0)
_LN4 = 2.0 * _LN2


def _eof_near_zero(c):
    """E(C) for C < 1/2, in bits, as -[y ln y + (1 - y) log1p(-y)] / ln 2
    of y = (1 - sqrt(1 - C^2))/2, taken as C^2 / (2 (1 + sqrt(1 - C^2))):
    nothing cancels, so it keeps its relative accuracy as C -> 0, where
    1 - x of the h(x) form rounds to 0 below C = 1e-8. y = 0 gives +0.0:
    y ln y and log1p(-y) are -0.0 there."""
    cc = c * c
    y = cc / (2.0 * (1.0 + np.sqrt(1.0 - cc)))
    return -(y * np.log(np.maximum(y, 1e-300)) + (1.0 - y) * np.log1p(-y)) / _LN2


def _eof_far(c):
    """E(C) for C >= 1/2, in bits, as h(x) of x = (1 + sqrt(1 - C^2))/2."""
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    return _binary_entropy_pair(np.array([x, 1.0 - x]))


def _by_side(x, far, near_form, far_form):
    """near_form(x) where far is False and far_form(x) where it is True,
    elementwise; a scalar, or a batch on one side, needs no mask."""
    n_far = np.count_nonzero(far)
    if n_far == 0:
        return near_form(x)
    if n_far == x.size:
        return far_form(x)
    out = np.empty_like(x)
    out[~far] = near_form(x[~far])
    out[far] = far_form(x[far])
    return out


def eof_from_concurrence(c):
    """Entanglement of formation E(C) = h((1 + sqrt(1 - C^2)) / 2) in bits
    (Wootters, PRL 80, 2245 (1998)), with C clipped to [0, 1],
    elementwise: a float for a scalar C, an array for an array. Below
    C = 1/2 it takes _eof_near_zero, which keeps the relative accuracy
    that 1 - x loses as C -> 0; from 1/2 on, the h(x) form (_eof_far), on
    which the horn junctions _E_AW and _E_WP were bisected."""
    # not np.clip, which takes twice as long on one value; this turns
    # -0.0 into +0.0, which c * c does as well
    c = np.minimum(np.maximum(np.asarray(c, dtype=float), 0.0), 1.0)
    return _float_or_array(_by_side(c, c >= 0.5, _eof_near_zero, _eof_far))


def _spectral_entropy(ev):
    """-sum ev log2 ev over eigh's four eigenvalues of rho above EIG_CLIP,
    on the leading axis of ev: the cut drops eigh's ~1e-16 round-off on a
    rank-deficient rho. The sum runs in their order, so a row's value does
    not depend on the others. A term at or below EIG_CLIP is 0 or -0; the
    four terms of a unit-trace spectrum are never all -0, so the sum is
    that of 0 + t0 + t1 + t2 + t3 to the bit."""
    t = ev * np.log2(np.where(ev > EIG_CLIP, ev, 1.0))
    s = t[0] + t[1]
    s += t[2]
    s += t[3]
    return np.negative(s, out=s)


def _record_measures(c, lam, v):
    """S(rho_A), mutual information, concurrence and linear entropy of a
    stack of states with halved Fano coefficients c (see _fano) and
    eigendecompositions rho = V diag(lam) V^dagger, one array each.

    S(rho_A), S(rho_B) and Tr rho^2 = 1/4 + sum c^2 are closed forms in c,
    with A and B stacked and the 15 squares summed in one running order;
    the marginal entropies count every positive eigenvalue, as a Schmidt
    weight of 5e-13 is real. I and the classical correlation read this one
    S(rho_A). The eigendecomposition serves the rest: S(rho) from lam (see
    _spectral_entropy), and the concurrence, which takes Wootters' sqrt(l)
    as the singular values of tau = X^T (sy x sy) X with rho = X X^dagger,
    X = V diag(sqrt(lam)). That is accurate to round-off on pure and
    rank-deficient states, where the square roots of eigenvalues of
    rho rho_tilde are off by up to ~1e-8. This is the package's one
    implementation of the four; tests/conftest.py holds their references.
    """
    n = c.shape[-1]
    q = c.reshape(16, n)[_PURITY_ORDER]
    q *= q
    sq = q[:6].reshape(2, 3, n)  # (r/2)^2 and (s/2)^2
    w = sq[:, 0] + sq[:, 1]
    w += sq[:, 2]
    np.sqrt(w, out=w)
    s_a, s_b = _binary_entropy_pair(0.5 + w * _PM[:, :, None])  # 1/2 +- w
    mi = s_a + s_b - _spectral_entropy(lam.T)
    x = v * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    s = np.linalg.svd(np.swapaxes(x, 1, 2) @ SYSY @ x, compute_uv=False)
    conc = np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])
    purity = np.add.accumulate(q, axis=0)[-1]  # row by row, as written out
    sl = np.minimum(np.maximum((4.0 / 3.0) * (0.75 - purity), 0.0), 1.0)
    return s_a, mi, conc, sl


def discord_batch(rhos):
    """Full numerically optimized correlation records for a stack of states.

    rhos is an (N, 4, 4) stack or a sequence of N 4x4 matrices, N >= 0, of
    density matrices: Hermitian, of unit trace and positive within
    HERM_TOL, TRACE_TOL and PSD_TOL, the rules of validate_states. The
    positivity is read off the one stacked eigh that _record_measures uses.
    Input that fails, or whose positivity that eigh cannot decide, goes to
    validate_states, which raises StateError (not an array of numbers, a
    wrong shape, a NaN or Inf entry), NotHermitian, TraceNotOne or
    NotPositive for the first bad state and names its index.
    J = S(rho_A) - S(A|Pi) takes S(A|Pi) from one _classical_correlation
    call and S(rho_A) from _record_measures. The discord is I - J as
    computed, unclipped: a zero-discord state reads Q of round-off size,
    of either sign.
    """
    try:
        rhos = np.asarray(rhos, dtype=complex)
    except (TypeError, ValueError):  # not an array of numbers: StateError
        validate_states(rhos)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        rhos = validate_states(rhos)
    ok, herm, _ = _hermitian_unit_trace(rhos)
    if np.count_nonzero(ok) < len(ok):
        validate_states(rhos)
    lam, v = np.linalg.eigh(rhos)
    # eigh reads the lower triangle of rho, validate_states the matrix
    # (rho + rho^dagger)/2; their difference has zero diagonal and entries of
    # at most herm/2, so their eigenvalues differ by at most 1.5 herm
    if np.count_nonzero(lam[:, 0] < 1.5 * herm - PSD_TOL):
        validate_states(rhos)
    c, conds, thetas, phis = _classical_correlation(rhos)
    s_a, mis, concs, sls = _record_measures(c, lam, v)
    ccs = s_a - conds
    fields = [
        mis,
        ccs,
        mis - ccs,
        concs,
        eof_from_concurrence(concs),
        sls,
        thetas,
        phis,
    ]
    return list(map(CorrelationRecord, *(x.tolist() for x in fields)))


def discord_numeric(rho):
    """Full numerically optimized correlation record for one state: a batch
    of one for discord_batch."""
    return discord_batch([rho])[0]


def _float_or_array(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if x.ndim else float(x)


def alpha_discord(a):
    """Closed-form discord of the alpha family and its zeta, elementwise:
    floats for a scalar a, arrays for an array."""
    a = np.asarray(a, dtype=float)
    zeta = np.maximum(np.abs(a), np.abs(2.0 * a - 1.0))
    xl = _xlog2(np.array([1.0 - a, a, 1.0 - zeta, 1.0 + zeta]))
    val = xl[0] + xl[1] + (1.0 + a) - xl[2] / 2.0 - xl[3] / 2.0
    return _float_or_array(np.maximum(val, 0.0)), _float_or_array(zeta)


def _beta_q_near_half(c):
    """1 - h((1 + c)/2) for c <= 1/2, in bits, as c atanh(c) + log1p(-c^2)/2
    in nats: it keeps its relative accuracy as c -> 0, where it is c^2/2."""
    return (c * np.arctanh(c) + 0.5 * np.log1p(-c * c)) / _LN2


def _beta_q_near_one(c):
    """1 - h((1 + c)/2) for c > 1/2, in bits, as [(1 + c) log1p(c)
    + (1 - c) ln(1 - c)]/2 in nats, with 1 - c exact; the second term is 0
    at c = 1."""
    u = 1.0 - c
    return ((1.0 + c) * np.log1p(c) + u * np.log(np.maximum(u, 1e-300))) / _LN4


def _beta_q(c):
    """Beta-family discord 1 - h(beta) at concurrence c, an array in [0, 1]:
    beta = (1 + c)/2, computed from c itself.

    1 + xlog(beta) + xlog(1 - beta) cancels as c -> 0: its relative error
    grows like 1e-16 / c^2, and below c = 2^-53 beta rounds to 1/2 and the
    value to 0. Each side of c = 1/2 has a form without that cancellation,
    exact at c = 0 and c = 1.
    """
    return _by_side(c, c > 0.5, _beta_q_near_half, _beta_q_near_one)


def beta_discord(b):
    """Closed-form discord of the beta family, 1 - h(beta), elementwise:
    _beta_q at its concurrence |2 beta - 1|, exact for beta >= 1/4."""
    return _float_or_array(_beta_q(np.abs(2.0 * np.asarray(b, dtype=float) - 1.0)))


def werner_discord(xi):
    """Closed-form discord of the Werner family, elementwise.

    Werner states are Bell-diagonal with c1 = c2 = c3 = -xi, so
    Q = I - [1 - h((1 + |xi|)/2)] (Luo, PRA 77, 042303 (2008)). Both
    marginals are maximally mixed, so I = 2 - S(rho), with the spectrum
    (1 + 3 xi)/4 once and (1 - xi)/4 three times.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.abs(xi)
    xl = _xlog2(
        np.array(
            [0.25 * (1.0 + 3.0 * xi), 0.25 * (1.0 - xi), 0.5 * (1.0 + x), 0.5 * (1.0 - x)]
        )
    )
    val = 1.0 + xl[0] + 3.0 * xl[1] - xl[2] - xl[3]
    return _float_or_array(np.maximum(val, 0.0))


def two_param_q(a, b):
    """The q branch of the two-parameter family discord, elementwise.

    With xlog(x) = x log2 x, u = 1 - a - b, v = 1 - a + b and
    s = sqrt(a^2 + b^2), q = 1 + a + xlog(a) + [xlog(u) + xlog(v)
    - xlog(1 + b) - xlog(1 - b) - xlog(1 + s) - xlog(1 - s)] / 2. The
    logarithms are collected term by term, so nothing cancels near the edge
    |b| = 1 - a, and q is finite on the whole family, edge and corners
    (q = 1 at (1, 0), 0 at (0, +-1)) included.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    s = np.sqrt(a * a + b * b)
    om = 1.0 - a
    # the seven arguments stacked for one _xlog2 call, written in place so
    # that a and b may differ in shape (a sweep passes b = 0); [k, ...] is a
    # view even for 0-d a and b, where [k] would be a numpy scalar
    x = np.empty((7,) + s.shape)
    x[0, ...] = a
    np.subtract(om, b, out=x[1, ...])
    np.add(om, b, out=x[2, ...])
    np.add(1.0, b, out=x[3, ...])
    np.subtract(1.0, b, out=x[4, ...])
    np.add(1.0, s, out=x[5, ...])
    np.subtract(1.0, s, out=x[6, ...])
    xl = _xlog2(x)
    q = 1.0 + a + xl[0] + 0.5 * (xl[1] + xl[2] - xl[3] - xl[4] - xl[5] - xl[6])
    return _float_or_array(q)


def discord_analytic(fam):
    """Closed-form discord for the alpha, beta, and two-parameter families."""
    if not isinstance(fam, Family):
        raise UnsupportedFamily("expected a Family value")
    if fam.kind == "alpha":
        val, zeta = alpha_discord(fam.p1)
        branch = "2a-1" if abs(2 * fam.p1 - 1) >= abs(fam.p1) else "a"
        return AnalyticDiscordTrace(value=val, branch=f"zeta={branch}", zeta=zeta)
    if fam.kind == "beta":
        return AnalyticDiscordTrace(value=beta_discord(fam.p1), branch="1-h(beta)")
    if fam.kind == "twoparam":
        a, b = fam.p1, fam.p2
        q = float(two_param_q(a, b))
        if abs(a - q) <= 1e-12 and 0 < a < 1:
            branch = "a = q (pimple)"
        elif a <= q:  # also the pure corners (1, 0) and (0, +-1), where a = q
            branch = "a"
        else:
            branch = "q"
        return AnalyticDiscordTrace(value=float(min(a, q)), branch=branch, q=q)
    raise UnsupportedFamily(
        f"no closed-form discord implemented for family {fam.kind!r}"
    )
