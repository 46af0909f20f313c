import csv
import io

import numpy as np
import pytest
from scipy.optimize import bisect

from qdiscord import bounds, measures
from qdiscord.io import CSV_HEADER
from qdiscord.measures import UnsupportedFamily
from qdiscord.states import HERM_TOL, PSD_TOL, Family, NotHermitian


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x)."""
    if x < -1e-12 or x > 1 + 1e-12:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(float(x), 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * np.log2(x)
    if x < 1.0:
        out -= (1 - x) * np.log2(1 - x)
    return float(out)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def bell_diagonal_cc_oracle(rho):
    """Independent classical-correlation oracle for Bell-diagonal states:
    1 - h((1+c)/2) with c the largest |Tr rho (sigma_i x sigma_i)|."""
    c = max(
        abs(np.trace(rho @ np.kron(s, s)).real) for s in PAULI.values()
    )
    return 1.0 - binary_entropy((1 + c) / 2)


def random_unitary(rng):
    """Haar-ish 2x2 unitary from a QR decomposition of a Ginibre matrix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(seed):
    """Haar-like random pure two-qubit state vector (normalized Gaussian)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def concurrence_analytic(fam):
    """Closed-form concurrence for the alpha, beta, and two-parameter families."""
    if not isinstance(fam, Family):
        raise UnsupportedFamily("expected a Family value")
    if fam.kind == "alpha":
        return float(max(0.0, 2 * fam.p1 - 1))
    if fam.kind == "beta":
        return float(abs(2 * fam.p1 - 1))
    if fam.kind == "twoparam":
        a, b = fam.p1, fam.p2
        inner = (1 - a) ** 2 - b * b
        return float(max(0.0, abs(a) - np.sqrt(max(inner, 0.0))))
    raise UnsupportedFamily(
        f"no closed-form concurrence implemented for family {fam.kind!r}"
    )


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

    Round-off negatives down to -PSD_TOL are clipped to zero so the values
    can feed entropies directly.
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


def measurement_pair(theta, phi):
    """Orthogonal rank-1 projector pair on one qubit for angles (theta, phi)."""
    ph = np.exp(1j * phi)
    v1 = np.array([np.cos(theta), ph * np.sin(theta)], dtype=complex)
    v2 = np.array([-np.sin(theta), ph * np.cos(theta)], dtype=complex)
    return np.outer(v1, v1.conj()), np.outer(v2, v2.conj())


def apply_measurement(rho, theta, phi):
    """Project subsystem B onto the (theta, phi) basis.

    Returns [(p_1, rho_1), (p_2, rho_2)]; an outcome with probability at
    most P_FLOOR carries None in place of a normalized state.
    """
    rho = np.asarray(rho, dtype=complex)
    outcomes = []
    for b in measurement_pair(theta, phi):
        pk = np.kron(np.eye(2, dtype=complex), b)
        m = pk @ rho @ pk
        p = float(np.trace(m).real)
        outcomes.append((p, m / p if p > measures.P_FLOOR else None))
    return outcomes


def composed_conditional_information(rho, theta, phi):
    """Oracle for measures.conditional_information, composed of the
    projectors, the partial trace and the von Neumann entropy above:
    S(rho_A) - sum_k p_k S(rho_k), with S(rho_k) taken on A's marginal of
    the 4 x 4 post-measurement state rho_k."""
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    acc = 0.0
    for p, rho_k in apply_measurement(rho, theta, phi):
        if rho_k is not None:
            acc += p * von_neumann_entropy(partial_trace(rho_k, "A"))
    return s_a - acc


def mutual_information(rho):
    """Oracle for the mutual_info field of discord_batch's records:
    I(rho) = S(rho_A) + S(rho_B) - S(rho) in bits, one state at a time."""
    return (
        von_neumann_entropy(partial_trace(rho, "A"))
        + von_neumann_entropy(partial_trace(rho, "B"))
        - von_neumann_entropy(rho)
    )


def concurrence(rho):
    """Oracle for the concurrence field of discord_batch's records: Wootters'
    max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)}, one state at a time.

    sqrt(l1) >= ... >= sqrt(l4), the square roots of the eigenvalues of
    rho * rho_tilde with rho_tilde = (sy x sy) conj(rho) (sy x sy), are the
    singular values of sqrt(rho) (sy x sy) sqrt(rho)^*: the product of that
    matrix with its adjoint is sqrt(rho) rho_tilde sqrt(rho). The singular
    values carry the small sqrt(l) of a rank-deficient state to round-off of
    ~1e-16, where the square roots of eigenvalues of rho * rho_tilde would
    carry ~1e-8.
    """
    lam, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    root = (v * np.sqrt(np.maximum(lam, 0.0))) @ v.conj().T
    s = np.linalg.svd(root @ measures.SYSY @ root.conj(), compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


def purity(rho):
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ rho)))


def linear_entropy(rho):
    """Oracle for the linear_entropy field of discord_batch's records:
    S_L = (4/3)(1 - Tr rho^2), normalized to [0, 1] for two qubits."""
    s = (4.0 / 3.0) * (1.0 - purity(rho))
    return float(min(max(s, 0.0), 1.0))


class NoSignChange(ValueError):
    pass


def find_crossover(c1, c2, xtol=1e-6):
    """Intersection of two BoundaryCurves: bisection on the interpolated
    difference."""
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


def alpha_werner_gap(c):
    """Alpha minus Werner branch of the horn ceiling at concurrence c; its
    root is the alpha-Werner junction."""
    return bounds._alpha_q(c) - bounds._werner_q(c)


def werner_pure_gap(c):
    """Werner minus pure branch (Q = E) of the horn ceiling at concurrence c;
    its root is the Werner-pure junction."""
    return bounds._werner_q(c) - measures.eof_from_concurrence(c)


def written_out_random_state(seed):
    """rho = T T^dag / Tr{T T^dag} spelled out for one seed, the reference
    for the stacked random_states: two (4, 4) draws for the real and the
    imaginary part of T, one matrix product and one trace."""
    g = np.random.default_rng(seed)
    t = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    m = t @ t.conj().T
    return m / np.trace(m).real


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def two_param_q_four_term(a, b):
    """Oracle for the q branch of the two-parameter family discord: the
    four-logarithm form, elementwise. It cancels within ~1e-11 of the edge
    |b| = 1 - a and is singular on it; non-finite values map to +inf, where
    min{a, q} still reads a."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    s = np.sqrt(a * a + b * b)
    om = 1 - a
    d = om * om - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = -(b / 2) * np.log2((1 + b) * (om - b) / ((1 - b) * (om + b)))
        t2 = np.where(a == 0, 0.0, (a / 2) * np.log2(4 * a * a / d))
        t3 = -(s / 2) * np.log2((1 + s) / (1 - s))
        t4 = 0.5 * np.log2(4 * d / ((1 - b * b) * (1 - a * a - b * b)))
        q = t1 + t2 + t3 + t4
    return np.where(np.isfinite(q), q, np.inf)


def two_param_q_edge_limit(a):
    """Oracle for q on the edge |b| = 1 - a, 0 < a < 1: the closed-form limit
    of the four-logarithm form, whose divergent parts cancel there."""
    a = np.asarray(a, dtype=float)
    b0 = -(1.0 - a)
    s = np.sqrt(a * a + b0 * b0)
    return (
        -(b0 / 2) * np.log2((1 + b0) / (1 - b0))
        - b0 * np.log2(1 - a - b0)
        + (a / 2) * np.log2(4 * a * a)
        - (s / 2) * np.log2((1 + s) / (1 - s))
        + 1.0
        - 0.5 * np.log2((1 - b0 * b0) * (1 - a * a - b0 * b0))
    )


def marginal_entropy_a(c):
    """S(rho_A) from the halved Bloch vector r/2 = c[:3, 0] of A, elementwise
    over c's trailing shape: the arithmetic of the S(rho_A) that
    discord_batch's records read, the same sqrt order and 1/2 +- |r|/2, so
    J = S(rho_A) - S(A|Pi_n) here equals a record's classical_corr bit for
    bit."""
    r = c[:3, 0]
    w = np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    return measures._binary_entropy_pair(np.array([0.5 + w, 0.5 - w]))


def dense_classical_correlation(rhos, grid_theta=120, grid_phi=240, starts=8):
    """Oracle for the discord engine's classical correlation (the
    classical_corr field of discord_batch's records): its search with a
    denser grid and more refined starts, one state at a time. Each state's
    start set is the grid_theta x grid_phi grid plus the four state
    directions; the `starts` best are refined from a first trust radius of
    half the grid spacing, at most _R_START, and the best refined start is
    the optimum. Returns the values as an array."""
    m = measures
    grid = m._direction_grid(grid_theta, grid_phi)
    spacing = max(np.pi / (grid_theta - 1), 2 * np.pi / grid_phi)
    r0 = min(spacing / 2, m._R_START)
    out = []
    for rho in rhos:
        c = m._fano(np.asarray(rho, dtype=complex)[None])
        cand = np.concatenate([grid, m._state_directions(c)[:, 0]], axis=1)
        scan = m._conditional_entropy(c[..., None], cand[:, None])
        best = scan.argpartition(starts - 1, axis=1)[0, :starts]
        ang = m._angles(cand[:, best])
        f = np.empty(starts)
        assert m._refine(np.repeat(c, starts, axis=2), ang, f, r0).any()
        out.append(marginal_entropy_a(c)[0] - f.min())
    return np.array(out)


def reference_csv_text(obj):
    """Oracle for io.csv_text: csv.writer (QUOTE_MINIMAL, CRLF) on rows of
    fields, each formatted on its own: None empty, a float to 17
    significant digits, anything else by str."""

    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    rows = []
    if isinstance(obj, bounds.SampleBatch):
        for i, (seed, rec) in enumerate(zip(obj.seeds, obj.records)):
            fam = obj.families[i] if obj.families else None
            rows.append([
                i,
                obj.provenance,
                fam.kind if fam else "",
                fam.p1 if fam else None,
                fam.p2 if fam else None,
                seed,
                rec.linear_entropy,
                rec.mutual_info,
                rec.classical_corr,
                rec.discord,
                rec.concurrence,
                rec.eof,
                rec.theta_opt,
                rec.phi_opt,
            ])
    else:
        # curve points: x and y in the columns of the plane's measures
        xcol = "eof" if obj.plane == "eof-q" else "S_L"
        for i, (p, x, y) in enumerate(zip(obj.params, obj.xs, obj.ys)):
            row = dict.fromkeys(CSV_HEADER, None)
            row.update(
                state_id=i,
                provenance=f"curve:{obj.plane}",
                family=obj.family_tag,
                param1=float(p),
                discord=float(y),
            )
            row[xcol] = float(x)
            rows.append([row[k] for k in CSV_HEADER])
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(CSV_HEADER)
    for row in rows:
        w.writerow([fmt(v) for v in row])
    return buf.getvalue()


def all_candidates_ceiling(sl):
    """Oracle for bounds.entropy_upper, bit for bit: the two-parameter
    envelope as it was evaluated before it was split into bands, with every
    candidate at every S_L <= 8/9, and the Werner curve above 8/9.

    The candidates are the window ends, the edge points, the interior peak
    of q on the upper arc, solved wherever its sign test finds a root from
    the start the peak band tabulates (bounds._peak_a, its end values
    outside the band), and on [_S_K, 8/9] the a = q kink on the lower arc
    at the abscissa the kink band tabulates (bounds._kink_a); the largest
    is kept. It uses the bounds module's contour helpers, solver and both
    tables, so wherever the band of an S_L holds that S_L's winning
    candidate, the two read the same bits. The tabulated kink is held to a
    kink bisected over the doubles by TestKinkTable, which also checks that
    below _S_K that kink does not beat the ceiling; the peak solve is held
    to the peak converged over the doubles by TestPeakTable.
    """
    b = bounds
    x = np.asarray(sl, dtype=float).reshape(-1)
    c = 1.5 * x
    rad = 4.0 - 3.0 * c
    root = np.sqrt(np.maximum(rad, 0.0))
    a_lo = np.maximum(0.0, (1.0 - root) / 3.0)
    a_hi = np.minimum(1.0, (1.0 + root) / 3.0)
    top = 1 / 3

    def peak_step(a, rows):
        a = a - b._CURVATURE_OFFSETS
        s = b._contour_slope(a, b._contour_b(a, c[rows]))
        curv = (s[1] - s[0]) / b._CURVATURE_OFFSETS[0]
        err = np.where(curv < 0, -0.5 * s[1] ** 2 / curv, np.inf)
        return -s[1], -curv, err

    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.sqrt(1.0 - c)
        e_lo, e_hi = (1.0 - w) / 2.0, (1.0 + w) / 2.0
        pa = np.array([a_hi, a_lo, e_lo, e_hi])
        pb = np.array([np.zeros_like(x), np.fmax(w, 0.0), 1.0 - e_lo, 1.0 - e_hi])
        best = np.fmax.reduce(np.minimum(pa, measures.two_param_q(pa, pb)))

        ends = np.array([np.fmax(e_hi + b._PEAK_START * (a_hi - e_hi), top), a_hi])
        s = b._contour_slope(ends, b._contour_b(ends, c))
        sel = (s[0] > 0) & (s[1] < 0)
        if np.count_nonzero(sel):
            rows = sel.nonzero()[0]
            lo, hi = ends[0][rows], ends[1][rows]
            a = b._newton_root(peak_step, rows, lo, hi, b._peak_a(x[rows]))
            q = measures.two_param_q(a, b._contour_b(a, c[rows]))
            best[rows] = np.maximum(best[rows], np.minimum(a, q))

        rows = ((x >= b._S_K) & (x <= b.PIMPLE_SL)).nonzero()[0]
        a = b._kink_a(x[rows])
        kink = np.minimum(a, measures.two_param_q(a, b._contour_b(a, c[rows])))
        best[rows] = np.maximum(best[rows], kink)
    high = x > b.PIMPLE_SL
    best[high] = measures.werner_discord(np.sqrt(1.0 - x[high]))
    return best
