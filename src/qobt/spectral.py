"""Finite/infinite spectral separation of the pencil (E, A).

``separate`` produces nonsingular W, T with

    E = W diag(I, N) T,      A = W diag(J, I) T,

where J carries the finite eigenvalues (quasi-upper-triangular, stable
for stable systems) and N is nilpotent of index nu.  The construction is
a real QZ decomposition with eigenvalue reordering (finite block first)
followed by the coupled generalized Sylvester equations that annihilate
the off-diagonal coupling blocks, solved on the two Schur pairs by
LAPACK's tgsyl back-substitution.

The kernels of the solution formulas,

    F_J(t) = T^-1 diag(exp(J t), 0) W^-1,
    F_N(k) = T^-1 diag(0, -N^k) W^-1,

and the spectral projectors P_r, P_l onto the deflating subspaces of the
finite eigenvalues are evaluated from the stored factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, expm, get_lapack_funcs, ordqz, solve_triangular

from .errors import SingularPencil
from .model import DescriptorSystem

_TGSYL = get_lapack_funcs(("tgsyl",), (np.empty((1, 1)),))[0]

# Relative reconstruction residual the decomposition must meet.
WCF_RESIDUAL_TOL = 1e-10
# cond(W) or cond(T) beyond this is reported as a warning.
CONDITION_WARN = 1e12
# Baseline per-power norm drop that marks the nilpotency index; widened
# automatically when the classification left visible junk behind.
NILPOTENCY_DROP = 1e-10


@dataclass(frozen=True)
class WeierstrassDecomposition:
    """Spectral separation of a regular pencil, with cached inverses and blocks."""

    W: np.ndarray
    T: np.ndarray
    Winv: np.ndarray
    Tinv: np.ndarray
    J: np.ndarray          # n_f x n_f, finite spectrum
    N: np.ndarray          # n_inf x n_inf, nilpotent
    nu: int
    n_f: int
    n_inf: int
    finite_eigenvalues: np.ndarray
    B1: np.ndarray         # n_f x m
    B2: np.ndarray         # n_inf x m
    M11: tuple[np.ndarray, ...]
    M12: tuple[np.ndarray, ...]
    M22: tuple[np.ndarray, ...]
    resid_E: float
    resid_A: float
    cond_W: float
    cond_T: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return self.n_f + self.n_inf

    @property
    def stable(self) -> bool:
        return self.n_f == 0 or float(np.max(self.finite_eigenvalues.real)) < 0.0


@dataclass(frozen=True)
class SpectralProjectors:
    P_r: np.ndarray
    P_l: np.ndarray


def _nilpotency_index(N: np.ndarray, drop_tol: float | None = None) -> int:
    """Smallest k at which ||N^k|| collapses, capped at the block size.

    The collapse threshold self-calibrates to the junk the classification
    left on the diagonal (zero for exactly structured pencils, up to
    ~eps^(1/4) for defective infinite chains).
    """
    n = N.shape[0]
    if n == 0:
        return 1
    scale = np.linalg.norm(N)
    if scale == 0.0:
        return 1
    Nb = N / scale
    eps = np.finfo(float).eps
    if drop_tol is None:
        junk = float(np.abs(np.diag(Nb)).max())
        drop_tol = min(max(1e3 * junk, NILPOTENCY_DROP), 3e-2)
    power = np.eye(n)
    prev = 1.0
    for k in range(1, n + 1):
        power = power @ Nb
        cur = float(np.linalg.norm(power))
        if cur <= drop_tol * prev or cur <= 1e2 * n * eps:
            return k
        prev = cur
    return n


def nilpotent_powers(
    N: np.ndarray, X: np.ndarray, nu: int, growth: float = 1.0
) -> list[np.ndarray]:
    """The terms [X, N X, N^2 X, ...] of a terminating nilpotent sum.

    Every power below ``nu`` is kept.  N is nilpotent only up to the junk
    the classification left behind, so the list then continues while
    growth^k ||N^k X|| > 1e-2 eps ||X||; an exactly nilpotent N stops at
    ``nu`` on its own.  ``growth`` weighs the k-th term by the size of
    what later multiplies it (for example the k-th input derivative).
    At most size + 16 terms are returned.
    """
    floor = 1e-2 * np.finfo(float).eps * np.linalg.norm(X)
    terms = [X]
    for k in range(1, N.shape[0] + 16):
        term = N @ terms[-1]
        if k >= nu and growth**k * np.linalg.norm(term) <= floor:
            break
        terms.append(term)
    return terms


def assemble_decomposition(
    W: np.ndarray,
    T: np.ndarray,
    J: np.ndarray,
    N: np.ndarray,
    sys: DescriptorSystem,
    Winv: np.ndarray | None = None,
    Tinv: np.ndarray | None = None,
    warnings: tuple[str, ...] = (),
    finite_eigenvalues: np.ndarray | None = None,
) -> WeierstrassDecomposition:
    """Build the full record from explicit factors (used by generators and tests)."""
    n_f = J.shape[0]
    n_inf = N.shape[0]
    Winv = np.linalg.inv(W) if Winv is None else Winv
    Tinv = np.linalg.inv(T) if Tinv is None else Tinv
    nu = _nilpotency_index(N)
    if finite_eigenvalues is None:
        finite_eigenvalues = np.linalg.eigvals(J) if n_f else np.zeros(0, dtype=complex)
    Bw = Winv @ sys.B
    Mb = [Tinv.T @ M @ Tinv for M in sys.output.quadratic_forms]
    E_rec = W @ block_diag(np.eye(n_f), N) @ T
    A_rec = W @ block_diag(J, np.eye(n_inf)) @ T
    resid_E = np.linalg.norm(E_rec - sys.E) / (np.linalg.norm(sys.E) + 1.0)
    resid_A = np.linalg.norm(A_rec - sys.A) / (np.linalg.norm(sys.A) + 1.0)
    cond_W = float(np.linalg.cond(W))
    cond_T = float(np.linalg.cond(T))
    warn = list(warnings)
    if max(cond_W, cond_T) > CONDITION_WARN:
        warn.append(
            f"ill-conditioned transforms: cond(W)={cond_W:.2e}, cond(T)={cond_T:.2e}"
        )
    return WeierstrassDecomposition(
        W=W,
        T=T,
        Winv=Winv,
        Tinv=Tinv,
        J=J,
        N=N,
        nu=nu,
        n_f=n_f,
        n_inf=n_inf,
        finite_eigenvalues=finite_eigenvalues,
        B1=Bw[:n_f],
        B2=Bw[n_f:],
        M11=tuple(M[:n_f, :n_f] for M in Mb),
        M12=tuple(M[:n_f, n_f:] for M in Mb),
        M22=tuple(M[n_f:, n_f:] for M in Mb),
        resid_E=resid_E,
        resid_A=resid_A,
        cond_W=cond_W,
        cond_T=cond_T,
        warnings=tuple(warn),
    )


def separate(sys: DescriptorSystem, tol_infinite: float | None = None) -> WeierstrassDecomposition:
    """Separate finite and infinite eigenvalues of (E, A).

    A generalized eigenvalue (alpha, beta) counts as infinite when
    |beta| <= tol * (||E||/||A||) * |alpha|, i.e. when its magnitude
    exceeds (||A||/||E||) / tol; the ratio form is scale-free and, unlike
    a bare |beta| cutoff, also catches defective infinite pairs that the
    QZ reports inside 2x2 blocks with large alpha.  Exact structure does
    not survive floating point and defective chains surface anywhere up to
    |beta/alpha| ~ eps^(1/4), so by default a ladder of ratios from n*eps
    upward is tried and the first split whose reconstruction validates
    (small residual, bounded transform conditioning) wins.
    """
    n = sys.n
    eps = np.finfo(float).eps

    # unsorted pass: classification decisions are made on these eigenvalues,
    # and each sorted pass below reproduces them bitwise, so the selected
    # count stays consistent no matter how much reordering shifts the values
    alpha0, beta0 = _eigenvalues(sys)
    a0, b0 = np.abs(alpha0), np.abs(beta0)
    a_scale = max(a0.max(initial=0.0), 1e-300)
    b_scale = max(b0.max(initial=0.0), 1e-300)
    degenerate = (b0 <= 1e3 * n * eps * b_scale) & (a0 <= 1e3 * n * eps * a_scale)
    if np.any(degenerate):
        raise SingularPencil("generalized eigenvalue with alpha ~ 0 and beta ~ 0")

    norm_ratio = np.linalg.norm(sys.E) / max(np.linalg.norm(sys.A), 1e-300)
    if tol_infinite is not None:
        candidates = [tol_infinite]
    else:
        candidates = [
            n * eps,
            np.sqrt(n) * eps**0.75,
            eps**0.5,
            10 * eps**0.375,
            100 * eps**0.25,
        ]
    best: WeierstrassDecomposition | None = None
    seen_counts: set[int] = set()
    failure = "no classification threshold produced a separation"
    for tol in candidates:
        thr = tol * norm_ratio
        n_f = int(np.count_nonzero(b0 > thr * a0))
        if n_f in seen_counts:
            continue
        seen_counts.add(n_f)
        try:
            wcf = _separate_at(sys, thr, n_f)
        except (ValueError, np.linalg.LinAlgError) as exc:
            # the reordering can refuse near-identical junk eigenvalues;
            # a coarser threshold keeps such a cluster together
            failure = str(exc)
            continue
        ok = (
            max(wcf.resid_E, wcf.resid_A) <= WCF_RESIDUAL_TOL
            and max(wcf.cond_W, wcf.cond_T) <= CONDITION_WARN
        )
        if ok:
            return wcf
        if best is None or max(wcf.resid_E, wcf.resid_A) < max(best.resid_E, best.resid_A):
            best = wcf
    if best is None:
        raise SingularPencil(failure)
    return best


def _eigenvalues(sys: DescriptorSystem):
    """Generalized eigenvalues in homogeneous form via an unsorted QZ pass."""
    _, _, alpha, beta, _, _ = ordqz(
        sys.A, sys.E, sort=lambda a, b: np.zeros(np.shape(a), dtype=bool), output="real"
    )
    return alpha, beta


def _separate_at(sys: DescriptorSystem, thr: float, n_f: int) -> WeierstrassDecomposition:
    E, A = sys.E, sys.A
    n = sys.n

    AA, EE, alpha, beta, Q, Z = ordqz(
        A, E, sort=lambda a, b: np.abs(b) > thr * np.abs(a), output="real"
    )
    beta = np.abs(np.asarray(beta, dtype=float))
    fin = np.zeros(n, dtype=bool)
    fin[:n_f] = True
    lam = np.asarray(alpha, dtype=complex)[fin] / np.maximum(beta[fin], 1e-300) if n_f else np.zeros(0, complex)
    warnings: list[str] = []

    if n_f == n:
        # nonsingular E: W = Q EE, T = Z^T, J = EE^-1 AA
        W = Q @ EE
        T = Z.T.copy()
        Winv = solve_triangular(EE, Q.T)
        Tinv = Z.copy()
        J = solve_triangular(EE, AA)
        N = np.zeros((0, 0))
    elif n_f == 0:
        # the all-infinite block can carry 2x2 bumps from defective pairs,
        # so AA is only quasi-triangular: use a general solve
        W = Q @ AA
        T = Z.T.copy()
        Winv = np.linalg.solve(AA, Q.T)
        Tinv = Z.copy()
        J = np.zeros((0, 0))
        N = _clean_nilpotent(np.linalg.solve(AA, EE), _zero_floor(AA, EE))
    else:
        A11, A12, A22 = AA[:n_f, :n_f], AA[:n_f, n_f:], AA[n_f:, n_f:]
        E11, E12, E22 = EE[:n_f, :n_f], EE[:n_f, n_f:], EE[n_f:, n_f:]
        N = _clean_nilpotent(np.linalg.solve(A22, E22), _zero_floor(A22, EE))
        J = solve_triangular(E11, A11)
        # decoupling: A11 R + L A22 = -A12 and E11 R + L E22 = -E12, the
        # coupled generalized Sylvester system on the two Schur pairs
        R_t, L_t, scale, _, info = _TGSYL(A11, A22, -A12, E11, E22, -E12)
        if info < 0:
            raise SingularPencil(f"tgsyl failed with info={info}")
        R = R_t / scale
        L = -L_t / scale

        # W = Q [[I, -L],[0, I]] diag(E11, A22), T = [[I, -R],[0, I]] Z^T
        Q1, Q2 = Q[:, :n_f], Q[:, n_f:]
        W = np.hstack([Q1 @ E11, (Q2 - Q1 @ L) @ A22])
        Zt = Z.T
        T = np.vstack([Zt[:n_f] - R @ Zt[n_f:], Zt[n_f:]])
        Winv = np.vstack(
            [solve_triangular(E11, Q1.T + L @ Q2.T), np.linalg.solve(A22, Q2.T)]
        )
        Tinv = np.hstack([Z[:, :n_f], Z[:, :n_f] @ R + Z[:, n_f:]])

    wcf = assemble_decomposition(
        W, T, J, N, sys, Winv=Winv, Tinv=Tinv, warnings=tuple(warnings), finite_eigenvalues=lam
    )
    if max(wcf.resid_E, wcf.resid_A) > WCF_RESIDUAL_TOL * 10:
        object.__setattr__(
            wcf,
            "warnings",
            wcf.warnings
            + (f"large reconstruction residuals: E {wcf.resid_E:.2e}, A {wcf.resid_A:.2e}",),
        )
    return wcf


def _zero_floor(A22: np.ndarray, EE: np.ndarray) -> float:
    """Norm below which the nilpotent block is indistinguishable from zero."""
    k = A22.shape[0]
    if k == 0:
        return 0.0
    inv_norm = np.linalg.norm(np.linalg.solve(A22, np.eye(k)))
    return 1e2 * k * np.finfo(float).eps * inv_norm * np.linalg.norm(EE)


def _clean_nilpotent(N: np.ndarray, zero_floor: float = 0.0) -> np.ndarray:
    """Zero only the roundoff-level part of N.

    Defective infinite eigenvalues leave O(sqrt(eps)) junk on the diagonal;
    forcing that to zero would perturb the factorization by the same amount
    and poison every residual downstream, so larger junk is kept (the block
    is then nilpotent only up to that level, which the index scan and the
    terminating sums tolerate).  A block whose whole mass is below the
    pencil's roundoff floor is the zero map and is returned as exactly that.
    """
    N = np.asarray(N).copy()
    if N.size == 0:
        return N
    if np.linalg.norm(N) <= zero_floor:
        return np.zeros_like(N)
    tol = 1e2 * N.shape[0] * np.finfo(float).eps * max(1.0, np.linalg.norm(N))
    d = np.diag(N).copy()
    d[np.abs(d) <= tol] = 0.0
    np.fill_diagonal(N, d)
    return N


def projectors(wcf: WeierstrassDecomposition) -> SpectralProjectors:
    """Oblique projectors onto the right/left deflating subspaces of the finite part."""
    nf = wcf.n_f
    P_r = wcf.Tinv[:, :nf] @ wcf.T[:nf, :]
    P_l = wcf.W[:, :nf] @ wcf.Winv[:nf, :]
    return SpectralProjectors(P_r=P_r, P_l=P_l)


def eval_FJ(wcf: WeierstrassDecomposition, t: float) -> np.ndarray:
    """Proper solution kernel T^-1 diag(exp(J t), 0) W^-1 at time t >= 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    nf = wcf.n_f
    if nf == 0:
        return np.zeros((wcf.n, wcf.n))
    return wcf.Tinv[:, :nf] @ expm(wcf.J * t) @ wcf.Winv[:nf, :]


def eval_FN(wcf: WeierstrassDecomposition, k: int) -> np.ndarray:
    """Improper solution kernel T^-1 diag(0, -N^k) W^-1; zero for k >= nu."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    nf, ninf = wcf.n_f, wcf.n_inf
    if ninf == 0 or k >= wcf.nu:
        return np.zeros((wcf.n, wcf.n))
    return wcf.Tinv[:, nf:] @ (-np.linalg.matrix_power(wcf.N, k)) @ wcf.Winv[nf:, :]
