"""Projected Lyapunov/Stein solvers and the six system Gramians.

Controllability:

    E P_p A^T + A P_p E^T = -P_l R P_l^T,          P_p = P_r P_p P_r^T
    A P_i A^T - E P_i E^T = (I-P_l) R (I-P_l)^T,   P_r P_i P_r^T = 0

with R = B B^T.  Observability, writing S(P) = sum_j M_j P M_j for the
coupling of the quadratic forms (a linear output part adds C^T C terms):

    E^T Q_pp A + A^T Q_pp E = -P_r^T S(P_p) P_r,  Q_pp = P_l^T Q_pp P_l
    E^T Q_ip A + A^T Q_ip E = -P_r^T S(P_i) P_r,  Q_ip = P_l^T Q_ip P_l
    A^T Q_pi A - E^T Q_pi E = (I-P_r^T) S(P_p) (I-P_r),  P_l^T Q_pi P_l = 0
    A^T Q_ii A - E^T Q_ii E = (I-P_r^T) S(P_i) (I-P_r),  P_l^T Q_ii P_l = 0

and the combined Gramians Q_p = Q_pp + Q_ip (+ linear part) and
Q_i = Q_pi + Q_ii (+ linear part).

All solves run in the coordinates of the spectral separation: the
continuous equations reduce to an n_f x n_f Lyapunov equation with the
quasi-triangular J (solved by LAPACK trsyl back-substitution), and the
discrete equations reduce to nilpotent sums that terminate on their own.
Everything here is dense; the intended scale is n <~ 1500.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs, schur

from .errors import IndefiniteMatrix, UnstableProperPart
from .model import DescriptorSystem
from .spectral import WeierstrassDecomposition, nilpotent_powers

# Default relative eigenvalue cutoff in psd_factor: keep essentially
# everything, truncation decisions belong to the reduction step.
FACTOR_DROP_TOL = 1e-13
# Most negative eigenvalue tolerated (relative to the spectral radius)
# before a matrix is rejected as indefinite.
PSD_TOL = 1e-10

_TRSYL = get_lapack_funcs(("trsyl",), (np.empty((1, 1)),))[0]


def _is_quasi_upper_triangular(J: np.ndarray) -> bool:
    n = J.shape[0]
    if n < 3:
        return True
    if np.any(np.tril(J, -2)):
        return False
    sub = np.diag(J, -1) != 0.0
    return not np.any(sub[:-1] & sub[1:])


def _solve_small_lyapunov(J: np.ndarray, G: np.ndarray, transposed: bool) -> np.ndarray:
    """Solve J X + X J^T = -G (or J^T X + X J = -G for ``transposed``).

    Uses trsyl back-substitution directly when J is quasi-upper-triangular
    (it is, coming from the spectral separation), otherwise via a real
    Schur form of J.
    """
    if J.shape[0] == 0:
        return np.zeros((0, 0))
    if _is_quasi_upper_triangular(J):
        Tq, U = J, None
        rhs = -G
    else:
        Tq, U = schur(J, output="real")
        rhs = -(U.T @ G @ U)
    trana, tranb = ("T", "N") if transposed else ("N", "T")
    x, scale, info = _TRSYL(Tq, Tq, rhs, trana=trana, tranb=tranb)
    if info < 0:
        raise ValueError(f"trsyl failed with info={info}")
    X = x / scale
    if U is not None:
        X = U @ X @ U.T
    return 0.5 * (X + X.T)


def solve_sylvester_triangular(J: np.ndarray, Ahat: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve J X + X Ahat^T = -C for the cross terms of the error bound."""
    if J.shape[0] == 0 or Ahat.shape[0] == 0:
        return np.zeros((J.shape[0], Ahat.shape[0]))
    if _is_quasi_upper_triangular(J):
        TJ, UJ = J, None
        rhs = -C
    else:
        TJ, UJ = schur(J, output="real")
        rhs = -(UJ.T @ C)
    TA, UA = schur(Ahat, output="real")
    rhs = rhs @ UA
    x, scale, info = _TRSYL(TJ, TA, rhs, trana="N", tranb="T")
    if info < 0:
        raise ValueError(f"trsyl failed with info={info}")
    X = x / scale
    if UJ is not None:
        X = UJ @ X
    return X @ UA.T


def solve_proper_lyap(
    wcf: WeierstrassDecomposition, side: str, rhs: np.ndarray
) -> np.ndarray:
    """Projected continuous-time Lyapunov solve restricted to the finite subspace.

    side='controllability':  E X A^T + A X E^T = -P_l rhs P_l^T,  X = P_r X P_r^T
    side='observability':    E^T X A + A^T X E = -P_r^T rhs P_r,  X = P_l^T X P_l
    """
    if not wcf.stable:
        raise UnstableProperPart("finite spectrum reaches Re >= 0")
    nf = wcf.n_f
    n = wcf.n
    if nf == 0:
        return np.zeros((n, n))
    if side == "controllability":
        G = (wcf.Winv @ rhs @ wcf.Winv.T)[:nf, :nf]
        X1 = _solve_small_lyapunov(wcf.J, G, transposed=False)
        X = wcf.Tinv[:, :nf] @ X1 @ wcf.Tinv[:, :nf].T
    elif side == "observability":
        G = (wcf.Tinv.T @ rhs @ wcf.Tinv)[:nf, :nf]
        X1 = _solve_small_lyapunov(wcf.J, G, transposed=True)
        X = wcf.Winv[:nf, :].T @ X1 @ wcf.Winv[:nf, :]
    else:
        raise ValueError(f"unknown side {side!r}")
    return 0.5 * (X + X.T)


def solve_improper_stein(
    wcf: WeierstrassDecomposition, side: str, rhs: np.ndarray
) -> np.ndarray:
    """Projected discrete-time solve on the infinite subspace.

    The Neumann sum sum_k op(N)^k G op(N)^T^k terminates because N is
    (numerically) nilpotent, so the solution is an explicit sum; it exists
    for any rhs.

    side='controllability':  A X A^T - E X E^T = (I-P_l) rhs (I-P_l)^T,  P_r X P_r^T = 0
    side='observability':    A^T X A - E^T X E = (I-P_r^T) rhs (I-P_r),  P_l^T X P_l = 0
    """
    nf, ninf = wcf.n_f, wcf.n_inf
    n = wcf.n
    if ninf == 0:
        return np.zeros((n, n))
    if side == "controllability":
        G = (wcf.Winv @ rhs @ wcf.Winv.T)[nf:, nf:]
        N, V = wcf.N, wcf.Tinv[:, nf:]
    elif side == "observability":
        G = (wcf.Tinv.T @ rhs @ wcf.Tinv)[nf:, nf:]
        N, V = wcf.N.T, wcf.Winv[nf:, :].T
    else:
        raise ValueError(f"unknown side {side!r}")
    X2 = sum(Nk @ G @ Nk.T for Nk in nilpotent_powers(N, np.eye(ninf), wcf.nu))
    X = V @ X2 @ V.T
    return 0.5 * (X + X.T)


@dataclass(frozen=True)
class GramianSet:
    """The six Gramians plus the combined observability pair.

    ``q_p_lin`` and ``q_i_lin`` hold the contribution of a linear output
    part when one is present; they are already included in Q_p and Q_i.
    """

    P_p: np.ndarray
    P_i: np.ndarray
    Q_pp: np.ndarray
    Q_ip: np.ndarray
    Q_pi: np.ndarray
    Q_ii: np.ndarray
    Q_p: np.ndarray
    Q_i: np.ndarray
    q_p_lin: np.ndarray | None = None
    q_i_lin: np.ndarray | None = None


def controllability_gramians(
    sys: DescriptorSystem, wcf: WeierstrassDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    rhs = sys.B @ sys.B.T
    P_p = solve_proper_lyap(wcf, "controllability", rhs)
    P_i = solve_improper_stein(wcf, "controllability", rhs)
    return P_p, P_i


def observability_gramians(
    sys: DescriptorSystem,
    wcf: WeierstrassDecomposition,
    P_p: np.ndarray,
    P_i: np.ndarray,
) -> GramianSet:
    """Observability Gramians given the controllability pair.

    The right-hand sides couple through the quadratic forms: summed over
    outputs, rhs = sum_j M_j P M_j with P = P_p for the *-proper parts
    and P = P_i for the *-improper ones; a linear output C adds the
    classical C^T C terms on both sides.
    """
    forms = sys.output.quadratic_forms

    def coupled_rhs(P: np.ndarray) -> np.ndarray:
        S = np.zeros((sys.n, sys.n))
        for M in forms:
            MP = M @ P @ M
            S += 0.5 * (MP + MP.T)
        return S

    rhs_p = coupled_rhs(P_p)
    rhs_i = coupled_rhs(P_i)
    Q_pp = solve_proper_lyap(wcf, "observability", rhs_p)
    Q_ip = solve_proper_lyap(wcf, "observability", rhs_i)
    Q_pi = solve_improper_stein(wcf, "observability", rhs_p)
    Q_ii = solve_improper_stein(wcf, "observability", rhs_i)

    q_p_lin = q_i_lin = None
    if sys.output.C is not None:
        rhs_c = sys.output.C.T @ sys.output.C
        q_p_lin = solve_proper_lyap(wcf, "observability", rhs_c)
        q_i_lin = solve_improper_stein(wcf, "observability", rhs_c)
        Q_p = Q_pp + Q_ip + q_p_lin
        Q_i = Q_pi + Q_ii + q_i_lin
    else:
        Q_p = Q_pp + Q_ip
        Q_i = Q_pi + Q_ii

    return GramianSet(
        P_p=P_p, P_i=P_i,
        Q_pp=Q_pp, Q_ip=Q_ip, Q_pi=Q_pi, Q_ii=Q_ii,
        Q_p=Q_p, Q_i=Q_i,
        q_p_lin=q_p_lin, q_i_lin=q_i_lin,
    )


def compute_gramians(sys: DescriptorSystem, wcf: WeierstrassDecomposition) -> GramianSet:
    """Controllability first, then the observability set that depends on it."""
    P_p, P_i = controllability_gramians(sys, wcf)
    return observability_gramians(sys, wcf, P_p, P_i)


def ablate_mixed_gramians(grams: GramianSet) -> GramianSet:
    """Drop the mixed terms: Q_p := Q_pp and Q_i := Q_ii (for comparison runs)."""
    Q_p = grams.Q_pp + grams.q_p_lin if grams.q_p_lin is not None else grams.Q_pp
    Q_i = grams.Q_ii + grams.q_i_lin if grams.q_i_lin is not None else grams.Q_ii
    return replace(grams, Q_p=Q_p, Q_i=Q_i)


@dataclass(frozen=True)
class SemidefiniteFactor:
    """R with X ~= R R^T, the kept numerical rank, and the dropped eigenvalue mass."""

    R: np.ndarray
    rank: int
    dropped_mass: float


def psd_factor(
    X: np.ndarray, drop_tol: float = FACTOR_DROP_TOL, abs_floor: float = 0.0
) -> SemidefiniteFactor:
    """Eigenvalue-based PSD factorization with clamping of roundoff negatives.

    ``abs_floor`` is an absolute eigenvalue magnitude below which negative
    values never count as indefiniteness; callers that know the noise
    scale of X (for example, a Gramian that vanished to roundoff) set it
    so that an all-noise matrix factors as zero instead of raising.
    """
    Xs = 0.5 * (X + X.T)
    lam, V = np.linalg.eigh(Xs)
    lam_max = lam[-1] if lam.size else 0.0
    scale = max(abs(lam[0]) if lam.size else 0.0, lam_max)
    if lam.size and lam[0] < -max(PSD_TOL * scale, abs_floor):
        raise IndefiniteMatrix(
            f"min eigenvalue {lam[0]:.3e} below -{PSD_TOL:.0e} * ||X||_2 = {-PSD_TOL * scale:.3e}"
        )
    lam = np.clip(lam, 0.0, None)
    keep = lam >= drop_tol * lam_max if lam_max > 0 else np.zeros_like(lam, dtype=bool)
    dropped = float(np.sum(lam[~keep]))
    lam_k = lam[keep][::-1]
    V_k = V[:, keep][:, ::-1]
    R = V_k * np.sqrt(lam_k)
    return SemidefiniteFactor(R=R, rank=int(keep.sum()), dropped_mass=dropped)


# ---------------------------------------------------------------------------
# residual / invariant checks (used by the CLI verify command and the tests)
# ---------------------------------------------------------------------------


def _rel(num: float, parts: list[float]) -> float:
    denom = max(max(parts), np.finfo(float).tiny)
    return num / denom


def equation_residuals(
    sys: DescriptorSystem, wcf: WeierstrassDecomposition, grams: GramianSet
) -> dict[str, float]:
    """Relative residuals of every defining equation and projection condition.

    Denominators carry the unprojected right-hand-side scale as a floor, so
    a Gramian that vanishes to roundoff (nothing reachable or observable on
    that subspace) reports residual ~0 instead of 0/0 noise.
    """
    from .spectral import projectors

    E, A, B = sys.E, sys.A, sys.B
    proj = projectors(wcf)
    P_r, P_l = proj.P_r, proj.P_l
    I = np.eye(sys.n)
    rhs_b = B @ B.T

    forms = sys.output.quadratic_forms

    def coupled(P):
        S = np.zeros_like(P)
        for M in forms:
            S += M @ P @ M
        return 0.5 * (S + S.T)

    nrm = np.linalg.norm

    def resid(lhs, rhs, floor):
        return _rel(nrm(lhs - rhs), [nrm(rhs), nrm(lhs), floor])

    scale_c = max(nrm(rhs_b), nrm(grams.P_p), nrm(grams.P_i))
    rhs_p, rhs_i = coupled(grams.P_p), coupled(grams.P_i)
    scale_o = max(nrm(rhs_p), nrm(rhs_i), nrm(grams.Q_p), nrm(grams.Q_i))

    out: dict[str, float] = {}
    out["P_p.lyap"] = resid(
        E @ grams.P_p @ A.T + A @ grams.P_p @ E.T, -P_l @ rhs_b @ P_l.T, scale_c
    )
    out["P_p.proj"] = _rel(nrm(grams.P_p - P_r @ grams.P_p @ P_r.T), [nrm(grams.P_p), scale_c])
    out["P_i.stein"] = resid(
        A @ grams.P_i @ A.T - E @ grams.P_i @ E.T, (I - P_l) @ rhs_b @ (I - P_l).T, scale_c
    )
    out["P_i.proj"] = _rel(nrm(P_r @ grams.P_i @ P_r.T), [nrm(grams.P_i), scale_c])

    out["Q_pp.lyap"] = resid(
        E.T @ grams.Q_pp @ A + A.T @ grams.Q_pp @ E, -P_r.T @ rhs_p @ P_r, scale_o
    )
    out["Q_ip.lyap"] = resid(
        E.T @ grams.Q_ip @ A + A.T @ grams.Q_ip @ E, -P_r.T @ rhs_i @ P_r, scale_o
    )
    out["Q_pi.stein"] = resid(
        A.T @ grams.Q_pi @ A - E.T @ grams.Q_pi @ E, (I - P_r.T) @ rhs_p @ (I - P_r), scale_o
    )
    out["Q_ii.stein"] = resid(
        A.T @ grams.Q_ii @ A - E.T @ grams.Q_ii @ E, (I - P_r.T) @ rhs_i @ (I - P_r), scale_o
    )
    out["Q_p.proj"] = _rel(nrm(grams.Q_p - P_l.T @ grams.Q_p @ P_l), [nrm(grams.Q_p), scale_o])
    out["Q_i.proj"] = _rel(nrm(P_l.T @ grams.Q_i @ P_l), [nrm(grams.Q_i), scale_o])
    for name, scale in (
        ("P_p", scale_c), ("P_i", scale_c),
        ("Q_pp", scale_o), ("Q_ip", scale_o), ("Q_pi", scale_o), ("Q_ii", scale_o),
    ):
        X = getattr(grams, name)
        out[f"{name}.sym"] = _rel(nrm(X - X.T), [nrm(X), scale])
        lam_min = float(np.linalg.eigvalsh(0.5 * (X + X.T))[0]) if X.any() else 0.0
        out[f"{name}.neg"] = _rel(max(0.0, -lam_min), [nrm(X, 2), scale])
    return out
