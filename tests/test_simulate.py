import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qobt
from qobt.errors import GridMismatch, InconsistentInitialState, SignalParseError
from qobt.simulate import (
    Signal,
    SignalTerm,
    output_error,
    parse_signal,
    signal_norms,
    simulate,
)
from qobt.spectral import eval_FJ, separate

# analytic output of the canonical 4x4 example under u = 0.2 exp(-t):
# proper states 0.2 t exp(-t) (resonant forcing), improper [0, -0.2 exp(-t)]
def illustrative_output(t):
    return 0.04 * np.exp(-2 * t) * (t * t - 2 * t + 2)


@pytest.mark.parametrize(
    "text,terms",
    [
        ("0.2*exp(-t)", [(0.2, 0, 0, 0.0, 1.0)]),
        ("sin(t)^3*exp(-t/2)", [(1.0, 3, 0, 1.0, 0.5)]),
        ("sin(2*t)^2*exp(-t/2)", [(1.0, 2, 0, 2.0, 0.5)]),
        ("2", [(2.0, 0, 0, 0.0, 0.0)]),
        ("cos(0.5*t)", [(1.0, 0, 1, 0.5, 0.0)]),
        ("exp(-0.25*t)*sin(t)", [(1.0, 1, 0, 1.0, 0.25)]),
        ("1 - exp(-t)", [(1.0, 0, 0, 0.0, 0.0), (-1.0, 0, 0, 0.0, 1.0)]),
    ],
)
def test_parse_signal(text, terms):
    sig = parse_signal(text)
    assert sig.m == 1
    got = sorted(
        (t.coeff, t.sin_pow, t.cos_pow, t.omega, t.gamma) for t in sig.channels[0]
    )
    assert got == sorted(terms)


def test_parse_multichannel():
    sig = parse_signal("0.2*exp(-t); sin(t)")
    assert sig.m == 2


@pytest.mark.parametrize("bad", ["sin(t)*cos(2*t)", "tan(t)", "exp(-t^2)", "sin(t"])
def test_parse_rejects(bad):
    with pytest.raises(SignalParseError):
        parse_signal(bad)


@given(
    a=st.integers(0, 3),
    b=st.integers(0, 3),
    omega=st.floats(0.1, 4.0),
    gamma=st.floats(0.0, 2.0),
    t0=st.floats(0.05, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_derivative_matches_finite_difference(a, b, omega, gamma, t0):
    sig = Signal(channels=((SignalTerm(0.7, a, b, omega, gamma),),))
    d = sig.derivative(1)
    h = 1e-5
    fd = (sig.value(np.array([t0 + h])) - sig.value(np.array([t0 - h]))) / (2 * h)
    an = d.value(np.array([t0]))
    scale = max(abs(an[0, 0]), 1.0)
    assert abs(fd[0, 0] - an[0, 0]) <= 1e-6 * scale


def test_illustrative_closed_form(illustrative):
    sys, wcf, _ = illustrative
    sig = parse_signal("0.2*exp(-t)")
    grid = np.linspace(0.0, 10.0, 1001)
    traj = simulate(sys, wcf, sig, grid)
    assert np.abs(traj.y[:, 0] - illustrative_output(grid)).max() <= 1e-14


def test_zero_input_zero_output(illustrative):
    sys, wcf, _ = illustrative
    sig = parse_signal("0")
    traj = simulate(sys, wcf, sig, np.linspace(0, 5, 101))
    assert np.array_equal(traj.y, np.zeros_like(traj.y))


def test_dae_residual_on_grid():
    # index-3 chain: E x' - A x - B u -> 0 along the grid (x' by differences)
    sys = qobt.gen_msd(5)
    wcf = separate(sys)
    sig = parse_signal("sin(2*t)^2*exp(-t/2)")
    grid = np.linspace(0.0, 10.0, 2001)
    traj = simulate(sys, wcf, sig, grid, store_states=True)
    x = traj.x
    h = grid[1] - grid[0]
    xdot = (x[:, 2:] - x[:, :-2]) / (2 * h)
    u = sig.value(grid)
    resid = sys.E @ xdot - sys.A @ x[:, 1:-1] - sys.B @ u[1:-1].T
    scale = max(np.abs(sys.A @ x[:, 1:-1]).max(), 1.0)
    # central differences are second order, so the residual is O(h^2)
    assert np.abs(resid).max() <= max(1e-6 * scale, 10 * h**2 * scale)


def test_superposition_against_kernel_convolution():
    # x(t) = int F_J(t-s) B u(s) ds + sum F_N(k) B u^(k)(t), checked by quadrature
    sys, truth = qobt.gen_random_wcf(3, 2, 2, seed=21)
    sig = parse_signal("sin(t)*exp(-t/2)")
    grid = np.linspace(0.0, 4.0, 9)
    traj = simulate(sys, truth, sig, grid, store_states=True)
    from scipy.integrate import quad_vec

    for i in (3, 8):
        t = grid[i]
        xp, _ = quad_vec(
            lambda s: eval_FJ(truth, t - s) @ sys.B @ sig.value(s),
            0.0, t, epsabs=1e-10, epsrel=1e-10,
        )
        xi = sum(
            qobt.eval_FN(truth, k) @ sys.B @ sig.derivative(k).value(t)
            for k in range(truth.nu)
        )
        assert np.linalg.norm(traj.x[:, i] - (xp + xi)) <= 1e-6 * max(
            np.linalg.norm(xp + xi), 1.0
        )


def test_inconsistent_initial_state(illustrative):
    sys, wcf, _ = illustrative
    sig = parse_signal("0.2*exp(-t)")
    grid = np.linspace(0.0, 1.0, 11)
    # consistent value passes
    x2 = -(wcf.B2 * 0.2 + wcf.N @ wcf.B2 * (-0.2))
    x0 = wcf.Tinv[:, 2:] @ x2[:, 0]
    simulate(sys, wcf, sig, grid, x0=x0)
    with pytest.raises(InconsistentInitialState):
        simulate(sys, wcf, sig, grid, x0=np.ones(4))


def test_output_error_metrics(illustrative):
    sys, wcf, _ = illustrative
    sig = parse_signal("0.2*exp(-t)")
    grid = np.linspace(0.0, 2.0, 21)
    a = simulate(sys, wcf, sig, grid)
    assert output_error(a, a).linf == 0.0
    b = simulate(sys, wcf, sig, np.linspace(0.0, 2.0, 41))
    with pytest.raises(GridMismatch):
        output_error(a, b)


def test_signal_norms_exponential():
    sig = parse_signal("exp(-t)")
    norms = signal_norms(sig, horizon=40.0, nu=1)
    assert norms.l2 == pytest.approx(np.sqrt(0.5), rel=1e-10)
    assert norms.c_norm == pytest.approx(1.0, rel=1e-9)
    assert norms.u_otimes_u_l2 == pytest.approx(0.5, rel=1e-10)
    assert norms.tail_included


def test_signal_norms_scaled():
    sig = parse_signal("0.2*exp(-t)")
    norms = signal_norms(sig, horizon=30.0, nu=2)
    assert norms.l2 == pytest.approx(0.2 / np.sqrt(2.0), rel=1e-10)
    assert norms.sup_derivatives[0] == pytest.approx(0.2, rel=1e-9)


def test_signal_norms_sin_cubed():
    # integral of sin^6 exp(-t) over [0, inf) is 144/629 (partial fractions
    # of the cosine expansion), frozen from a symbolic evaluation
    sig = parse_signal("sin(t)^3*exp(-t/2)")
    norms = signal_norms(sig, horizon=30.0, nu=2)
    assert norms.l2**2 == pytest.approx(144.0 / 629.0, abs=1e-10)


def test_signal_norms_sin2t_squared():
    # integral of sin(2t)^4 exp(-t) over [0, inf) is 384/1105
    sig = parse_signal("sin(2*t)^2*exp(-t/2)")
    norms = signal_norms(sig, horizon=30.0, nu=3)
    assert norms.l2**2 == pytest.approx(384.0 / 1105.0, abs=1e-10)


def test_simulate_channel_count_mismatch(illustrative):
    sys, wcf, _ = illustrative
    with pytest.raises(SignalParseError):
        simulate(sys, wcf, parse_signal("exp(-t); exp(-t)"), np.linspace(0, 1, 11))


def test_simulate_requires_uniform_grid(illustrative):
    sys, wcf, _ = illustrative
    grid = np.array([0.0, 0.1, 0.3, 0.35])
    with pytest.raises(ValueError):
        simulate(sys, wcf, parse_signal("exp(-t)"), grid)
