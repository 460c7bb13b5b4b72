"""A-priori sup-norm output error bound for a reduction.

For each quadratic output with form M (reduced form M_hat) the bound adds

    sqrt(T_pp) * ||u (x) u||_L2  +  2 sqrt(T_ip) * sqrt(nu) * ||u||_C^{nu-1} * ||u||_L2

where

    T_pp = tr(P_p M P_p M) - 2 tr(Pt_p^T M Pt_p M_hat) + tr(Ph_p M_hat Ph_p M_hat)
    T_ip = tr(P_i M P_p M) - 2 tr(Pt_i^T M Pt_p M_hat) + tr(Ph_i M_hat Ph_p M_hat)

with the cross Gramians Pt_p (projected Sylvester equation) and Pt_i
(terminating nilpotent sum) and the reduced Gramians Ph_p, Ph_i.  The
improper-improper component contributes nothing because the improper part
is never truncated.  A linear output part C adds the classical terms for
the proper response plus a matching sup-type term for the improper one.

Each bracketed combination is the squared L2 distance of two solution
kernels, hence nonnegative; evaluating it as written loses all digits to
cancellation once the kernels are close.  The implementation therefore
assembles the augmented two-system Gramian

    P_aug = [[P, Pt], [Pt^T, Ph]]  =  R R^T

and evaluates T = || R^T diag(M, -M_hat) R ||_F^2 (and the mixed analogue),
which is exact in the same algebra but keeps the result a sum of squares.
The factorization keeps every positive eigenvalue of P_aug: dropping the
small ones can only shrink T, i.e. silently weaken the bound below the
true error, whereas the roundoff directions that stay behind at most
inflate it by the evaluation's resolution floor, roughly
sqrt(n * eps) * ||P_aug|| * ||M||.  An exact reduction therefore reports a
tiny positive bound at that floor rather than an exact zero.  The raw
trace terms are still reported for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnstableProperPart
from .gramians import (
    GramianSet,
    controllability_gramians,
    psd_factor,
    solve_sylvester_triangular,
    _solve_small_lyapunov,
)
from .model import DescriptorSystem
from .reduce import ReducedModel
from .simulate import Signal, SignalNorms, signal_norms
from .spectral import WeierstrassDecomposition, nilpotent_powers


@dataclass(frozen=True)
class CrossGramians:
    """Cross and reduced controllability Gramians entering the trace formulas."""

    Ptilde_p: np.ndarray   # n x r
    Ptilde_i: np.ndarray   # n x r
    Phat_p: np.ndarray     # r x r, zero outside the leading r_p block
    Phat_i: np.ndarray     # r x r, zero outside the trailing r_i block


def cross_gramians(
    sys: DescriptorSystem, wcf: WeierstrassDecomposition, rom: ReducedModel
) -> CrossGramians:
    """Solve the two-system projected equations coupling the model and its reduction."""
    r_p, r = rom.r_p, rom.r
    rom_wcf = rom.to_decomposition()
    if not rom_wcf.stable:
        raise UnstableProperPart("reduced proper block is not stable")

    n = sys.n
    nf = wcf.n_f

    Ptilde_p = np.zeros((n, r))
    if nf and r_p:
        X = solve_sylvester_triangular(wcf.J, rom_wcf.J, wcf.B1 @ rom_wcf.B1.T)
        Ptilde_p[:, :r_p] = wcf.Tinv[:, :nf] @ X

    # N^k B2 and E2^k B2_hat, each run until its own terms vanish
    NkB2 = nilpotent_powers(wcf.N, wcf.B2, wcf.nu)
    EkB2 = nilpotent_powers(rom_wcf.N, rom_wcf.B2, rom_wcf.nu)

    Ptilde_i = np.zeros((n, r))
    Ptilde_i[:, r_p:] = wcf.Tinv[:, nf:] @ sum(a @ b.T for a, b in zip(NkB2, EkB2))

    Phat_p = np.zeros((r, r))
    if r_p:
        B1h = rom_wcf.B1
        Phat_p[:r_p, :r_p] = _solve_small_lyapunov(rom_wcf.J, B1h @ B1h.T, transposed=False)

    Phat_i = np.zeros((r, r))
    Phat_i[r_p:, r_p:] = sum(b @ b.T for b in EkB2)

    return CrossGramians(Ptilde_p=Ptilde_p, Ptilde_i=Ptilde_i, Phat_p=Phat_p, Phat_i=Phat_i)


@dataclass(frozen=True)
class OutputBoundTerms:
    trace_pp: tuple[float, float, float]   # full, cross, reduced trace terms
    trace_ip: tuple[float, float, float]
    T_pp: float                            # stable nonnegative combinations
    T_ip: float


@dataclass(frozen=True)
class ErrorBoundReport:
    per_output: tuple[OutputBoundTerms, ...]
    linear_T_p: float | None
    linear_T_i: float | None
    norms: SignalNorms
    nu: int
    bound_pp: float
    bound_ip: float
    bound_linear: float
    bound_total: float
    convention: str

    def lines(self) -> list[str]:
        out = [
            f"nu = {self.nu}",
            f"horizon = {self.norms.horizon:.17g}",
            f"u.l2 = {self.norms.l2:.17g}",
            f"u.c_norm = {self.norms.c_norm:.17g}",
            f"u.otimes_l2 = {self.norms.u_otimes_u_l2:.17g}",
            f"u.tail_included = {int(self.norms.tail_included)}",
        ]
        for j, terms in enumerate(self.per_output, start=1):
            out.append(f"output{j}.T_pp = {terms.T_pp:.17g}")
            out.append(f"output{j}.T_ip = {terms.T_ip:.17g}")
            out.append(
                f"output{j}.trace_pp = "
                + ",".join(f"{v:.17g}" for v in terms.trace_pp)
            )
            out.append(
                f"output{j}.trace_ip = "
                + ",".join(f"{v:.17g}" for v in terms.trace_ip)
            )
        if self.linear_T_p is not None:
            out.append(f"linear.T_p = {self.linear_T_p:.17g}")
            out.append(f"linear.T_i = {self.linear_T_i:.17g}")
        out += [
            f"bound.proper_proper = {self.bound_pp:.17g}",
            f"bound.improper_proper = {self.bound_ip:.17g}",
            f"bound.linear = {self.bound_linear:.17g}",
            f"bound.total = {self.bound_total:.17g}",
            f"convention = {self.convention}",
        ]
        return out


_CONVENTION = (
    "sqrt(T_pp)*l2(u x u) + 2*sqrt(T_ip)*sqrt(nu)*c_norm*l2; "
    "kernel-distance form of the trace combinations"
)


def error_bound(
    sys: DescriptorSystem,
    wcf: WeierstrassDecomposition,
    rom: ReducedModel,
    signal: Signal,
    horizon: float,
    grams: GramianSet | None = None,
) -> ErrorBoundReport:
    """Evaluate the a-priori output error bound for ``rom`` against ``sys``."""
    norms = signal_norms(signal, horizon, wcf.nu)
    cross = cross_gramians(sys, wcf, rom)
    if grams is not None:
        P_p, P_i = grams.P_p, grams.P_i
    else:
        P_p, P_i = controllability_gramians(sys, wcf)

    n, r = sys.n, rom.r
    Pp_aug = np.zeros((n + r, n + r))
    Pp_aug[:n, :n] = P_p
    Pp_aug[:n, n:] = cross.Ptilde_p
    Pp_aug[n:, :n] = cross.Ptilde_p.T
    Pp_aug[n:, n:] = cross.Phat_p
    Pi_aug = np.zeros((n + r, n + r))
    Pi_aug[:n, :n] = P_i
    Pi_aug[:n, n:] = cross.Ptilde_i
    Pi_aug[n:, :n] = cross.Ptilde_i.T
    Pi_aug[n:, n:] = cross.Phat_i
    # keep all positive mass: dropped directions can hide true kernel
    # distance and push the bound below the actual error
    Rp = psd_factor(Pp_aug, drop_tol=0.0).R
    Ri = psd_factor(Pi_aug, drop_tol=0.0).R

    per_output = []
    sum_sqrt_pp = 0.0
    sum_sqrt_ip = 0.0
    for M, Mh in zip(sys.output.quadratic_forms, rom.system.output.quadratic_forms):
        # S = R^T diag(M, -M_hat) R without forming the big block matrix
        SMp = _sandwich(Rp, M, Mh, Rp, n)
        T_pp = float(np.sum(SMp * SMp))
        SMip = _sandwich(Rp, M, Mh, Ri, n)
        T_ip = float(np.sum(SMip * SMip))
        trace_pp = (
            float(np.trace(P_p @ M @ P_p @ M)),
            float(np.trace(cross.Ptilde_p.T @ M @ cross.Ptilde_p @ Mh)),
            float(np.trace(cross.Phat_p @ Mh @ cross.Phat_p @ Mh)),
        )
        trace_ip = (
            float(np.trace(P_i @ M @ P_p @ M)),
            float(np.trace(cross.Ptilde_i.T @ M @ cross.Ptilde_p @ Mh)),
            float(np.trace(cross.Phat_i @ Mh @ cross.Phat_p @ Mh)),
        )
        per_output.append(
            OutputBoundTerms(trace_pp=trace_pp, trace_ip=trace_ip, T_pp=T_pp, T_ip=T_ip)
        )
        sum_sqrt_pp += np.sqrt(max(T_pp, 0.0))
        sum_sqrt_ip += np.sqrt(max(T_ip, 0.0))

    bound_pp = sum_sqrt_pp * norms.u_otimes_u_l2
    bound_ip = 2.0 * sum_sqrt_ip * np.sqrt(wcf.nu) * norms.c_norm * norms.l2

    linear_T_p = linear_T_i = None
    bound_linear = 0.0
    if sys.output.C is not None:
        C = sys.output.C
        Ch = rom.system.output.C
        CC = C @ Rp[:n] - Ch @ Rp[n:]
        linear_T_p = float(np.sum(CC * CC))
        CCi = C @ Ri[:n] - Ch @ Ri[n:]
        linear_T_i = float(np.sum(CCi * CCi))
        bound_linear = np.sqrt(linear_T_p) * norms.l2 + np.sqrt(linear_T_i) * np.sqrt(
            wcf.nu
        ) * norms.c_norm

    bound_total = bound_pp + bound_ip + bound_linear
    return ErrorBoundReport(
        per_output=tuple(per_output),
        linear_T_p=linear_T_p,
        linear_T_i=linear_T_i,
        norms=norms,
        nu=wcf.nu,
        bound_pp=float(bound_pp),
        bound_ip=float(bound_ip),
        bound_linear=float(bound_linear),
        bound_total=float(bound_total),
        convention=_CONVENTION,
    )


def _sandwich(Ra: np.ndarray, M: np.ndarray, Mh: np.ndarray, Rb: np.ndarray, n: int) -> np.ndarray:
    """Ra^T diag(M, -Mh) Rb with the block product written out."""
    return Ra[:n].T @ (M @ Rb[:n]) - Ra[n:].T @ (Mh @ Rb[n:])
