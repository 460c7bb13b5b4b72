import numpy as np
import pytest
from scipy.integrate import dblquad

import qobt
from conftest import kernel_pp, quad_gramian
from qobt.bound import cross_gramians, error_bound
from qobt.gramians import compute_gramians
from qobt.reduce import balance_and_truncate, identity_reduction
from qobt.simulate import parse_signal, simulate, output_error
from qobt.spectral import eval_FJ, projectors, separate


def _bound_scale(grams, sys, norms):
    m_norm = max(np.linalg.norm(M, 2) for M in sys.output.quadratic_forms)
    tr = np.trace(grams.P_p) + np.trace(grams.P_i)
    return tr * m_norm * (norms.u_otimes_u_l2 + norms.c_norm * norms.l2) + 1e-30


def test_identity_reduction_bound_vanishes(illustrative):
    sys, wcf, grams = illustrative
    rom = identity_reduction(sys, wcf)
    sig = parse_signal("0.2*exp(-t)")
    rep = error_bound(sys, wcf, rom, sig, horizon=10.0, grams=grams)
    # collapses to the evaluation's roundoff floor, not an exact zero
    assert rep.bound_total <= 1e-7 * _bound_scale(grams, sys, rep.norms)
    # the cross Gramian solves the two-system equation: residual check
    cross = cross_gramians(sys, wcf, rom)
    proj = projectors(wcf)
    lhs = (
        sys.A @ cross.Ptilde_p @ rom.system.E.T
        + sys.E @ cross.Ptilde_p @ rom.system.A.T
    )
    Pl_hat = np.zeros((rom.r, rom.r))
    Pl_hat[: rom.r_p, : rom.r_p] = np.eye(rom.r_p)
    rhs = -proj.P_l @ sys.B @ rom.system.B.T @ Pl_hat.T
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_cross_gramian_sylvester_residual(illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-8)
    cross = cross_gramians(sys, wcf, rom)
    proj = projectors(wcf)
    Pl_hat = np.zeros((rom.r, rom.r))
    Pl_hat[: rom.r_p, : rom.r_p] = np.eye(rom.r_p)
    lhs = (
        sys.A @ cross.Ptilde_p @ rom.system.E.T
        + sys.E @ cross.Ptilde_p @ rom.system.A.T
    )
    rhs = -proj.P_l @ sys.B @ rom.system.B.T @ Pl_hat.T
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)
    # projection condition
    assert np.linalg.norm(proj.P_r @ cross.Ptilde_p @ Pl_hat.T - cross.Ptilde_p) <= 1e-10


def test_cross_gramian_quadrature_oracle():
    sys, truth = qobt.gen_random_wcf(4, 2, 2, seed=3)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-3)
    cross = cross_gramians(sys, wcf, rom)

    A1 = rom.proper_block
    B1h = rom.system.B[: rom.r_p]
    from scipy.linalg import expm

    X_o = quad_gramian(
        lambda t: eval_FJ(wcf, t) @ sys.B @ (expm(A1 * t) @ B1h).T, tol=1e-12
    )
    assert np.linalg.norm(cross.Ptilde_p[:, : rom.r_p] - X_o) <= 1e-7 * max(
        np.linalg.norm(X_o), 1e-6
    )


def test_trace_terms_match_kernel_quadrature():
    # T_pp equals the squared L2 distance of the two kernels (single output)
    sys, truth = qobt.gen_random_wcf(3, 2, 2, seed=11)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-2)
    sig = parse_signal("exp(-t)")
    rep = error_bound(sys, wcf, rom, sig, horizon=10.0, grams=grams)

    rom_wcf = rom.to_decomposition()
    Mh = rom.system.output.quadratic_forms[0]

    def kernel_diff_sq(t1, t2):
        h = kernel_pp(sys, wcf, t1, t2)[0, 0]
        h_hat = (
            rom.system.B.T @ eval_FJ(rom_wcf, t1).T @ Mh @ eval_FJ(rom_wcf, t2) @ rom.system.B
        )[0, 0]
        return (h - h_hat) ** 2

    val, err = dblquad(kernel_diff_sq, 0, 30.0, 0, 30.0, epsabs=1e-11, epsrel=1e-8)
    T_pp = rep.per_output[0].T_pp
    assert T_pp == pytest.approx(val, rel=1e-6, abs=1e-10)
    # the first raw trace term is the squared norm of the full kernel
    full, _ = dblquad(
        lambda t1, t2: kernel_pp(sys, wcf, t1, t2)[0, 0] ** 2,
        0, 30.0, 0, 30.0, epsabs=1e-11, epsrel=1e-8,
    )
    assert rep.per_output[0].trace_pp[0] == pytest.approx(full, rel=1e-6)


@pytest.mark.parametrize("seed,shape", [(0, (3, 2, 2)), (5, (4, 3, 3)), (9, (5, 0, 1))])
def test_bound_soundness(seed, shape):
    sys, _ = qobt.gen_random_wcf(*shape, seed=seed)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-3)
    sig = parse_signal("sin(t)*exp(-t/2)")
    grid = np.linspace(0.0, 20.0, 2001)
    full = simulate(sys, wcf, sig, grid)
    red = simulate(rom.system, rom.to_decomposition(), sig, grid)
    err = output_error(full, red)
    rep = error_bound(sys, wcf, rom, sig, horizon=20.0, grams=grams)
    slack = 1e-9 * max(np.abs(full.y).max(), 1e-30)
    assert err.linf <= rep.bound_total + slack


def test_bound_decreases_with_order():
    sys, _ = qobt.gen_random_wcf(6, 2, 2, seed=2)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    sig = parse_signal("exp(-t)")
    bounds = []
    for r in (1, 3, 5):
        rom = balance_and_truncate(sys, wcf, grams, order=r)
        rep = error_bound(sys, wcf, rom, sig, horizon=15.0, grams=grams)
        bounds.append(rep.bound_total)
    assert bounds[0] >= bounds[1] >= bounds[2]
    # keep-everything reduction: the bound collapses
    rom_min = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=0.0)
    rep_min = error_bound(sys, wcf, rom_min, sig, horizon=15.0, grams=grams)
    assert rep_min.bound_total <= max(1e-4 * bounds[0], 1e-10)


def test_multi_output_bound_soundness():
    sys, _ = qobt.gen_random_wcf(4, 2, 2, seed=13, p=2, with_C=True)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-3)
    sig = parse_signal("sin(t)*exp(-t/2)")
    grid = np.linspace(0.0, 20.0, 2001)
    full = simulate(sys, wcf, sig, grid)
    red = simulate(rom.system, rom.to_decomposition(), sig, grid)
    err = output_error(full, red)
    rep = error_bound(sys, wcf, rom, sig, horizon=20.0, grams=grams)
    assert rep.linear_T_p is not None
    slack = 1e-9 * max(np.abs(full.y).max(), 1e-30)
    assert err.linf <= rep.bound_total + slack


def test_report_serialization(illustrative):
    sys, wcf, grams = illustrative
    rom = identity_reduction(sys, wcf)
    rep = error_bound(sys, wcf, rom, parse_signal("0.2*exp(-t)"), 10.0, grams=grams)
    lines = rep.lines()
    assert any(line.startswith("bound.total = ") for line in lines)
    assert any(line.startswith("output1.T_pp = ") for line in lines)
