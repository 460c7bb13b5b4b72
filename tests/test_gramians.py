import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qobt
from conftest import oracle_controllability, oracle_observability, quad_gramian, rel_err
from qobt.errors import IndefiniteMatrix, UnstableProperPart
from qobt.gramians import (
    ablate_mixed_gramians,
    compute_gramians,
    equation_residuals,
    psd_factor,
    solve_improper_stein,
    solve_proper_lyap,
)
from qobt.model import DescriptorSystem, OutputSpec
from qobt.spectral import nilpotent_powers, separate


def test_illustrative_blocks(illustrative):
    from qobt.bench import illustrative_reference_gramians

    _, _, grams = illustrative
    ref = illustrative_reference_gramians()
    # the system is already in canonical coordinates, so the Gramians carry
    # the reference blocks directly
    assert np.abs(grams.P_p[:2, :2] - ref["P1"]).max() <= 1e-10
    assert np.abs(grams.P_i[2:, 2:] - ref["P2"]).max() <= 1e-10
    assert np.abs(grams.Q_pp[:2, :2] - ref["Q11"]).max() <= 1e-10
    assert np.abs(grams.Q_ip[:2, :2] - ref["Q21"]).max() <= 1e-10
    assert np.abs(grams.Q_pi[2:, 2:] - ref["Q12"]).max() <= 1e-10
    assert np.abs(grams.Q_ii[2:, 2:] - ref["Q22"]).max() <= 1e-10


def test_zero_rhs_gives_zero(illustrative):
    _, wcf, _ = illustrative
    Z = np.zeros((4, 4))
    assert np.array_equal(solve_proper_lyap(wcf, "controllability", Z), Z)
    assert np.array_equal(solve_improper_stein(wcf, "observability", Z), Z)


def test_proper_lyap_quadrature_oracle():
    # stable dense ODE: solution equals the integral of the propagated rhs
    rng = np.random.default_rng(5)
    n = 5
    A = -np.eye(n) * 2 + 0.4 * rng.standard_normal((n, n))
    assert np.max(np.linalg.eigvals(A).real) < 0
    G0 = rng.standard_normal((n, 2))
    rhs = G0 @ G0.T
    sys = DescriptorSystem(
        E=np.eye(n), A=A, B=G0, output=OutputSpec(quadratic_forms=(np.eye(n),))
    )
    wcf = separate(sys)
    X = solve_proper_lyap(wcf, "controllability", rhs)
    from scipy.linalg import expm

    X_o = quad_gramian(lambda t: expm(A * t) @ rhs @ expm(A.T * t))
    assert rel_err(X, X_o, 1e-12) <= 1e-8


def test_stein_sum_oracle():
    sys, truth = qobt.gen_random_wcf(2, 3, 3, seed=9)
    rng = np.random.default_rng(1)
    G0 = rng.standard_normal((sys.n, sys.n))
    rhs = G0 @ G0.T
    X = solve_improper_stein(truth, "controllability", rhs)
    from qobt.spectral import eval_FN

    X_o = sum(eval_FN(truth, k) @ rhs @ eval_FN(truth, k).T for k in range(truth.nu))
    assert rel_err(X, X_o, 1e-12) <= 1e-10


def test_nilpotent_powers_exact_chain_stops_at_nu():
    N = np.diag([0.7, 1.3, 0.9], k=1)  # one Jordan chain of index 4
    powers = nilpotent_powers(N, np.eye(4), nu=4)
    assert len(powers) == 4
    for k, Nk in enumerate(powers):
        np.testing.assert_allclose(Nk, np.linalg.matrix_power(N, k), rtol=1e-15, atol=0)


def test_nilpotent_powers_runs_past_nu_on_junk():
    # a 1e-9 diagonal keeps N^nu nonzero: the list continues until the
    # terms vanish, and the Stein sum then solves X - N X N^T = G
    N = np.diag([0.7, 1.3, 0.9], k=1) + 1e-9 * np.eye(4)
    G = np.diag([1.0, 2.0, 3.0, 4.0])
    powers = nilpotent_powers(N, np.eye(4), nu=4)
    assert len(powers) > 4
    X = sum(Nk @ G @ Nk.T for Nk in powers)
    assert np.linalg.norm(X - N @ X @ N.T - G) <= 1e-13 * np.linalg.norm(G)


def test_unstable_proper_part_rejected():
    sys = DescriptorSystem(
        E=np.eye(2), A=np.diag([1.0, -1.0]), B=np.ones((2, 1)),
        output=OutputSpec(quadratic_forms=(np.eye(2),)),
    )
    wcf = separate(sys)
    with pytest.raises(UnstableProperPart):
        solve_proper_lyap(wcf, "controllability", np.eye(2))


def test_zero_input_and_zero_output(illustrative):
    sys, wcf, _ = illustrative
    sys0 = DescriptorSystem(
        E=sys.E, A=sys.A, B=np.zeros((4, 1)), output=sys.output
    )
    P_p, P_i = qobt.controllability_gramians(sys0, wcf)
    assert np.allclose(P_p, 0) and np.allclose(P_i, 0)
    sysM0 = DescriptorSystem(
        E=sys.E, A=sys.A, B=sys.B,
        output=OutputSpec(quadratic_forms=(np.zeros((4, 4)),)),
    )
    grams = compute_gramians(sysM0, wcf)
    for X in (grams.Q_pp, grams.Q_ip, grams.Q_pi, grams.Q_ii):
        assert np.allclose(X, 0)


@pytest.mark.parametrize("seed", range(6))
def test_residuals_and_oracles_random(seed):
    shapes = [(3, 2, 2), (4, 3, 3), (2, 4, 2), (5, 2, 1), (3, 3, 3), (6, 0, 1)]
    n_f, n_inf, nu = shapes[seed % len(shapes)]
    sys, truth = qobt.gen_random_wcf(n_f, n_inf, nu, seed=seed)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    res = equation_residuals(sys, wcf, grams)
    assert max(res.values()) <= 1e-9, res

    P_po, P_io = oracle_controllability(sys, truth)
    Q_ppo, Q_ipo, Q_pio, Q_iio = oracle_observability(sys, truth, P_po, P_io)
    floor = 1e-8 * max(np.linalg.norm(X) for X in (P_po, P_io, Q_ppo, Q_ipo, Q_pio, Q_iio))
    assert rel_err(grams.P_p, P_po, floor) <= 1e-7
    assert rel_err(grams.P_i, P_io, floor) <= 1e-7
    assert rel_err(grams.Q_pp, Q_ppo, floor) <= 1e-7
    assert rel_err(grams.Q_ip, Q_ipo, floor) <= 1e-7
    assert rel_err(grams.Q_pi, Q_pio, floor) <= 1e-7
    assert rel_err(grams.Q_ii, Q_iio, floor) <= 1e-7


def test_nested_quadrature_oracle_ode():
    # E = I, single quadratic form: Q_p from the double integral
    rng = np.random.default_rng(17)
    n = 4
    A = -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
    M0 = rng.standard_normal((n, n))
    M = 0.5 * (M0 + M0.T)
    sys = DescriptorSystem(
        E=np.eye(n), A=A, B=rng.standard_normal((n, 1)),
        output=OutputSpec(quadratic_forms=(M,)),
    )
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    from scipy.linalg import expm

    P_o = quad_gramian(lambda t: expm(A * t) @ sys.B @ sys.B.T @ expm(A.T * t))
    Q_o = quad_gramian(lambda t: expm(A.T * t) @ M @ P_o @ M @ expm(A * t))
    assert rel_err(grams.Q_p, Q_o, 1e-12) <= 1e-7


def test_psd_factor_identity():
    f = psd_factor(np.eye(3))
    assert f.rank == 3
    assert np.allclose(f.R @ f.R.T, np.eye(3), atol=1e-14)
    assert f.dropped_mass == 0.0


def test_psd_factor_rank_one(illustrative):
    _, _, grams = illustrative
    f = psd_factor(grams.P_p)
    assert f.rank == 1
    direction = f.R[:, 0] / np.linalg.norm(f.R[:, 0])
    assert np.allclose(np.abs(direction), [np.sqrt(0.5), np.sqrt(0.5), 0, 0], atol=1e-12)


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_psd_factor_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    G = rng.standard_normal((n, n))
    X = G @ G.T
    f = psd_factor(X)
    assert np.linalg.norm(f.R @ f.R.T - X) <= max(1e-12, f.dropped_mass) * np.linalg.norm(X) + 1e-13


def test_psd_factor_indefinite():
    with pytest.raises(IndefiniteMatrix):
        psd_factor(np.diag([1.0, -0.5]))


def test_trace_identities(illustrative):
    _, _, grams = illustrative
    lam = np.linalg.eigvalsh(grams.P_p)
    assert abs(np.trace(grams.P_p) - lam.sum()) <= 1e-12 * max(lam.sum(), 1)
    assert np.trace(grams.Q_p) == pytest.approx(
        np.trace(grams.Q_pp) + np.trace(grams.Q_ip), rel=1e-14
    )
    assert np.trace(grams.Q_i) == pytest.approx(
        np.trace(grams.Q_pi) + np.trace(grams.Q_ii), rel=1e-14
    )


def test_ablation(illustrative):
    _, _, grams = illustrative
    ab = ablate_mixed_gramians(grams)
    assert np.array_equal(ab.Q_p, grams.Q_pp)
    assert np.array_equal(ab.Q_i, grams.Q_ii)
    assert np.array_equal(ab.P_p, grams.P_p)
    assert np.linalg.matrix_rank(ab.Q_i) == 1


def test_multi_output_consistency():
    sys, _ = qobt.gen_random_wcf(4, 3, 2, seed=7, p=2)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    # per-output Gramians computed independently sum to the joint ones
    parts = []
    for j in range(2):
        sj = DescriptorSystem(
            E=sys.E, A=sys.A, B=sys.B,
            output=OutputSpec(quadratic_forms=(sys.output.quadratic_forms[j],)),
        )
        parts.append(compute_gramians(sj, wcf))
    assert np.abs(grams.Q_p - (parts[0].Q_p + parts[1].Q_p)).max() <= 1e-10
    assert np.abs(grams.Q_i - (parts[0].Q_i + parts[1].Q_i)).max() <= 1e-10


def test_zero_linear_part_changes_nothing():
    sys, _ = qobt.gen_random_wcf(3, 2, 2, seed=4)
    wcf = separate(sys)
    with_c = DescriptorSystem(
        E=sys.E, A=sys.A, B=sys.B,
        output=OutputSpec(
            quadratic_forms=sys.output.quadratic_forms, C=np.zeros((1, sys.n))
        ),
    )
    a = compute_gramians(sys, wcf)
    b = compute_gramians(with_c, wcf)
    assert np.array_equal(a.Q_p, b.Q_p)
    assert np.array_equal(a.Q_i, b.Q_i)


def test_linear_part_enters_combined():
    sys, _ = qobt.gen_random_wcf(3, 2, 2, seed=4, with_C=True)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    assert grams.q_p_lin is not None
    assert np.allclose(grams.Q_p, grams.Q_pp + grams.Q_ip + grams.q_p_lin)
    assert np.allclose(grams.Q_i, grams.Q_pi + grams.Q_ii + grams.q_i_lin)
    res = equation_residuals(sys, wcf, grams)
    # the combined Q_p projection condition still holds with the linear part
    assert res["Q_p.proj"] <= 1e-9


def test_linear_only_output_path():
    # no quadratic forms at all: the classical linear-output reduction
    # falls out as the degenerate case
    rng = np.random.default_rng(0)
    sys0, _ = qobt.gen_random_wcf(3, 2, 2, seed=5)
    lin = DescriptorSystem(
        E=sys0.E, A=sys0.A, B=sys0.B,
        output=OutputSpec(quadratic_forms=(), C=rng.standard_normal((2, sys0.n))),
    )
    assert lin.p == 2
    wcf = separate(lin)
    grams = compute_gramians(lin, wcf)
    assert np.allclose(grams.Q_p, grams.q_p_lin)
    assert np.allclose(grams.Q_pp, 0.0)


def test_psd_factor_zero_matrix():
    f = psd_factor(np.zeros((3, 3)))
    assert f.rank == 0
    assert f.R.shape == (3, 0)
    assert f.dropped_mass == 0.0


def test_solver_rejects_unknown_side(illustrative):
    _, wcf, _ = illustrative
    with pytest.raises(ValueError):
        solve_proper_lyap(wcf, "sideways", np.eye(4))
    with pytest.raises(ValueError):
        solve_improper_stein(wcf, "sideways", np.eye(4))
