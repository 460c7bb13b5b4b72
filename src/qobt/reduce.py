"""Balance the Gramian pairs and truncate: structure-preserving reduction.

The proper pair (P_p, Q_p) and the improper pair (P_i, Q_i) are balanced
separately through the singular value decompositions

    S_p^T E R_p = U_p Sigma V_p^T,      S_i^T A R_i = U_i Theta V_i^T,

where P = R R^T and Q = S S^T are semidefinite factorizations.  Sigma
holds the proper Hankel values (truncated against a tolerance or a target
order), Theta the improper ones (only exact zeros are dropped, so the
improper part keeps its minimal realization).  The projection matrices

    W_r = [S_p U_p1 Sigma_1^-1/2,  S_i U_i1 Theta_1^-1/2]
    T_r = [R_p V_p1 Sigma_1^-1/2,  R_i V_i1 Theta_1^-1/2]

project onto an r x r pencil whose off-blocks vanish only up to the
subspace noise of the truncated directions.  That small pencil is
separated once more and returned in the canonical block form
E_hat = diag(I, E2) with nilpotent E2 and A_hat = diag(A1, I) with
stable A1, the transforms folded into W_r and T_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .errors import NothingObservable
from .gramians import GramianSet, psd_factor
from .model import DescriptorSystem, OutputSpec, SystemManifest, load_system, save_system
from .spectral import WeierstrassDecomposition, assemble_decomposition, separate

# Relative gap below which adjacent Hankel values count as tied and are
# kept together (avoids splitting a repeated singular value).
TIE_TOL = 1e-12
# Default relative threshold for "zero" improper Hankel values.
THETA_ZERO_TOL = 1e-12
# Balancing factors keep all positive eigenvalue mass: order selection
# happens on the Hankel values, and the reported spectrum should reach
# the roundoff floor rather than stop at a factoring cutoff.
BALANCE_FACTOR_DROP = 1e-30


@dataclass(frozen=True)
class HankelSpectrum:
    sigma: np.ndarray
    theta: np.ndarray


@dataclass(frozen=True)
class _BalancedSVD:
    Rp: np.ndarray
    Sp: np.ndarray
    Ri: np.ndarray
    Si: np.ndarray
    Up: np.ndarray
    sigma: np.ndarray
    Vp: np.ndarray
    Ui: np.ndarray
    theta: np.ndarray
    Vi: np.ndarray


def _balanced_svds(sys: DescriptorSystem, grams: GramianSet) -> _BalancedSVD:
    floor = 1e3 * np.finfo(float).eps * max(
        np.linalg.norm(grams.P_p), np.linalg.norm(grams.Q_p),
        np.linalg.norm(grams.P_i), np.linalg.norm(grams.Q_i), 1e-300,
    )
    # proper pair: keep every positive direction so the sigma spectrum is
    # reported down to the roundoff floor; improper pair: prune at the
    # factoring tolerance, because only the exactly-nonzero theta count
    # matters and noise directions would masquerade as constraints
    Rp = psd_factor(grams.P_p, drop_tol=BALANCE_FACTOR_DROP, abs_floor=floor).R
    Sp = psd_factor(grams.Q_p, drop_tol=BALANCE_FACTOR_DROP, abs_floor=floor).R
    Ri = psd_factor(grams.P_i, abs_floor=floor).R
    Si = psd_factor(grams.Q_i, abs_floor=floor).R
    if Rp.shape[1] and Sp.shape[1]:
        Up, sigma, Vpt = np.linalg.svd(Sp.T @ sys.E @ Rp, full_matrices=False)
        Vp = Vpt.T
    else:
        Up = np.zeros((Sp.shape[1], 0))
        sigma = np.zeros(0)
        Vp = np.zeros((Rp.shape[1], 0))
    if Ri.shape[1] and Si.shape[1]:
        Ui, theta, Vit = np.linalg.svd(Si.T @ sys.A @ Ri, full_matrices=False)
        Vi = Vit.T
    else:
        Ui = np.zeros((Si.shape[1], 0))
        theta = np.zeros(0)
        Vi = np.zeros((Ri.shape[1], 0))
    return _BalancedSVD(Rp, Sp, Ri, Si, Up, sigma, Vp, Ui, theta, Vi)


def hankel_values(sys: DescriptorSystem, wcf: WeierstrassDecomposition, grams: GramianSet) -> HankelSpectrum:
    """Proper and improper Hankel values (descending, zeros included)."""
    svds = _balanced_svds(sys, grams)
    return HankelSpectrum(sigma=svds.sigma, theta=svds.theta)


@dataclass(frozen=True)
class ReducedModel:
    """Block-structured reduced system with its truncation record."""

    system: DescriptorSystem
    r_p: int
    r_i: int
    W_r: np.ndarray
    T_r: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray
    sigma_kept: np.ndarray
    sigma_dropped: np.ndarray
    theta_kept: np.ndarray
    theta_dropped: np.ndarray
    warnings: tuple[str, ...]

    @property
    def r(self) -> int:
        return self.r_p + self.r_i

    @property
    def proper_block(self) -> np.ndarray:
        return self.system.A[: self.r_p, : self.r_p]

    @property
    def nilpotent_block(self) -> np.ndarray:
        return self.system.E[self.r_p :, self.r_p :]

    def to_decomposition(self) -> WeierstrassDecomposition:
        """The reduced model is already decoupled; its separation is trivial."""
        I = np.eye(self.r)
        return assemble_decomposition(
            W=I, T=I, J=self.proper_block, N=self.nilpotent_block,
            sys=self.system, Winv=I, Tinv=I,
        )


def _select_proper(sigma: np.ndarray, tol_sigma_rel: float | None, order: int | None) -> int:
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    positive = int(np.count_nonzero(sigma > sigma[0] * 1e-15))
    if order is not None:
        r_p = min(order, positive)
    else:
        r_p = int(np.count_nonzero(sigma >= sigma[0] * tol_sigma_rel))
        r_p = min(r_p, positive)
    # keep tied values together
    while 0 < r_p < positive and sigma[r_p - 1] - sigma[r_p] <= TIE_TOL * sigma[r_p - 1]:
        r_p += 1
    return r_p


def balance_and_truncate(
    sys: DescriptorSystem,
    wcf: WeierstrassDecomposition,
    grams: GramianSet,
    tol_sigma_rel: float | None = 1e-8,
    order: int | None = None,
    tol_theta_zero: float = THETA_ZERO_TOL,
) -> ReducedModel:
    """Reduce by balanced truncation; the improper part keeps all nonzero Theta values.

    Either ``tol_sigma_rel`` (keep sigma_k >= sigma_1 * tol) or ``order``
    (keep the r largest) selects the proper order.
    """
    if order is not None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        tol_sigma_rel = None
    elif tol_sigma_rel is None:
        raise ValueError("need either tol_sigma_rel or order")
    elif not 0.0 <= tol_sigma_rel < np.inf:
        raise ValueError(f"tol_sigma_rel must be finite and >= 0, got {tol_sigma_rel}")
    svds = _balanced_svds(sys, grams)
    sigma, theta = svds.sigma, svds.theta

    r_p = _select_proper(sigma, tol_sigma_rel, order)
    theta_max = theta[0] if theta.size else 0.0
    r_i = int(np.count_nonzero(theta > theta_max * tol_theta_zero)) if theta_max > 0 else 0
    if r_p == 0 and r_i == 0:
        raise NothingObservable("all proper and improper Hankel values vanish")

    parts_w, parts_t = [], []
    if r_p:
        scale = 1.0 / np.sqrt(sigma[:r_p])
        parts_w.append(svds.Sp @ svds.Up[:, :r_p] * scale)
        parts_t.append(svds.Rp @ svds.Vp[:, :r_p] * scale)
    if r_i:
        scale = 1.0 / np.sqrt(theta[:r_i])
        parts_w.append(svds.Si @ svds.Ui[:, :r_i] * scale)
        parts_t.append(svds.Ri @ svds.Vi[:, :r_i] * scale)
    W_r = np.hstack(parts_w)
    T_r = np.hstack(parts_t)

    Eh = W_r.T @ sys.E @ T_r
    Ah = W_r.T @ sys.A @ T_r
    Bh = W_r.T @ sys.B
    forms = tuple(0.5 * ((M := T_r.T @ Mj @ T_r) + M.T) for Mj in sys.output.quadratic_forms)
    Ch = sys.output.C @ T_r if sys.output.C is not None else None

    # The projected pencil is block-diagonal only up to the subspace noise
    # of the truncated directions.  It is small, so decouple it exactly and
    # fold the transforms into the projection matrices; the input-output
    # map changes only at the separation residual.
    raw = DescriptorSystem(E=Eh, A=Ah, B=Bh, output=OutputSpec(quadratic_forms=forms, C=Ch))
    sub = separate(raw)
    warnings: list[str] = []
    if (sub.n_f, sub.n_inf) != (r_p, r_i):
        warnings.append(
            f"re-decoupling changed the split ({r_p},{r_i}) -> ({sub.n_f},{sub.n_inf})"
        )
        r_p, r_i = sub.n_f, sub.n_inf
    if not sub.stable:
        warnings.append("reduced proper block acquired a nonnegative eigenvalue")

    return ReducedModel(
        system=_canonical_system(raw, sub),
        r_p=r_p,
        r_i=r_i,
        W_r=W_r @ sub.Winv.T,
        T_r=T_r @ sub.Tinv,
        sigma=sigma,
        theta=theta,
        sigma_kept=sigma[:r_p].copy(),
        sigma_dropped=sigma[r_p:].copy(),
        theta_kept=theta[:r_i].copy(),
        theta_dropped=theta[r_i:].copy(),
        warnings=tuple(warnings),
    )


def _canonical_system(sys: DescriptorSystem, wcf: WeierstrassDecomposition) -> DescriptorSystem:
    """``sys`` in the coordinates of its separation ``wcf``.

    E = diag(I, N), A = diag(J, I), B = [B1; B2], M_j -> sym(T^-T M_j T^-1)
    and C -> C T^-1: the same input-output map, block-decoupled exactly.
    """
    E = block_diag(np.eye(wcf.n_f), wcf.N)
    A = block_diag(wcf.J, np.eye(wcf.n_inf))
    B = np.vstack([wcf.B1, wcf.B2])
    forms = tuple(
        0.5 * ((Mb := wcf.Tinv.T @ M @ wcf.Tinv) + Mb.T)
        for M in sys.output.quadratic_forms
    )
    C = sys.output.C @ wcf.Tinv if sys.output.C is not None else None
    return DescriptorSystem(E=E, A=A, B=B, output=OutputSpec(quadratic_forms=forms, C=C))


def identity_reduction(sys: DescriptorSystem, wcf: WeierstrassDecomposition) -> ReducedModel:
    """The full model rewritten in decoupled coordinates (no truncation at all).

    Useful as the exact-reduction reference: every Hankel value is kept,
    so error measures and bounds against it must vanish.
    """
    empty = np.zeros(0)
    return ReducedModel(
        system=_canonical_system(sys, wcf),
        r_p=wcf.n_f,
        r_i=wcf.n_inf,
        W_r=wcf.Winv.T,
        T_r=wcf.Tinv,
        sigma=empty,
        theta=empty,
        sigma_kept=empty,
        sigma_dropped=empty,
        theta_kept=empty,
        theta_dropped=empty,
        warnings=(),
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _join(values: np.ndarray) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def _split(text: str) -> np.ndarray:
    text = text.strip()
    return np.array([float(v) for v in text.split(",")]) if text else np.zeros(0)


def save_reduced(rom: ReducedModel, directory) -> SystemManifest:
    extras = {
        "reduced": "1",
        "r_p": str(rom.r_p),
        "r_i": str(rom.r_i),
        "sigma_kept": _join(rom.sigma_kept),
        "sigma_dropped": _join(rom.sigma_dropped),
        "theta_kept": _join(rom.theta_kept),
        "theta_dropped": _join(rom.theta_dropped),
    }
    return save_system(
        rom.system,
        directory,
        extras=extras,
        extra_matrices={"W_r": rom.W_r, "T_r": rom.T_r},
    )


def load_reduced(manifest_path) -> ReducedModel:
    from .model import _read_mm, parse_manifest

    man = parse_manifest(manifest_path)
    if man.extras.get("reduced") != "1":
        raise ValueError(f"{man.path} does not describe a reduced model")
    rom_sys, _ = load_system(man.path)
    sigma_kept = _split(man.extras.get("sigma_kept", ""))
    sigma_dropped = _split(man.extras.get("sigma_dropped", ""))
    theta_kept = _split(man.extras.get("theta_kept", ""))
    theta_dropped = _split(man.extras.get("theta_dropped", ""))
    return ReducedModel(
        system=rom_sys,
        r_p=int(man.extras["r_p"]),
        r_i=int(man.extras["r_i"]),
        W_r=_read_mm(man.directory / man.files["W_r"]),
        T_r=_read_mm(man.directory / man.files["T_r"]),
        sigma=np.concatenate([sigma_kept, sigma_dropped]),
        theta=np.concatenate([theta_kept, theta_dropped]),
        sigma_kept=sigma_kept,
        sigma_dropped=sigma_dropped,
        theta_kept=theta_kept,
        theta_dropped=theta_dropped,
        warnings=(),
    )
