import numpy as np
import pytest
from scipy.integrate import quad_vec

import qobt
from qobt.spectral import WeierstrassDecomposition, eval_FJ, eval_FN


@pytest.fixture(scope="session")
def illustrative():
    sys = qobt.gen_illustrative()
    wcf = qobt.separate(sys)
    grams = qobt.compute_gramians(sys, wcf)
    return sys, wcf, grams


@pytest.fixture(scope="session")
def stokes_small():
    sys = qobt.gen_stokes(4)
    wcf = qobt.separate(sys)
    return sys, wcf


def quad_gramian(integrand, upper=np.inf, tol=1e-12):
    """Adaptive quadrature of a matrix-valued integrand (test oracle)."""
    val, _ = quad_vec(integrand, 0.0, upper, epsabs=tol, epsrel=1e-11)
    return val


def oracle_controllability(sys, wcf: WeierstrassDecomposition):
    """P_p and P_i straight from their defining integral/sum."""
    B = sys.B
    P_p = quad_gramian(lambda t: eval_FJ(wcf, t) @ B @ B.T @ eval_FJ(wcf, t).T)
    P_i = sum(eval_FN(wcf, k) @ B @ B.T @ eval_FN(wcf, k).T for k in range(wcf.nu))
    return P_p, P_i


def oracle_observability(sys, wcf: WeierstrassDecomposition, P_p, P_i):
    """The four coupled Gramians from their kernel integrals/sums."""
    forms = sys.output.quadratic_forms

    def coupled(P):
        return sum(M @ P @ M for M in forms)

    rp, ri = coupled(P_p), coupled(P_i)
    Q_pp = quad_gramian(lambda t: eval_FJ(wcf, t).T @ rp @ eval_FJ(wcf, t))
    Q_ip = quad_gramian(lambda t: eval_FJ(wcf, t).T @ ri @ eval_FJ(wcf, t))
    Q_pi = sum(eval_FN(wcf, k).T @ rp @ eval_FN(wcf, k) for k in range(wcf.nu))
    Q_ii = sum(eval_FN(wcf, k).T @ ri @ eval_FN(wcf, k) for k in range(wcf.nu))
    return Q_pp, Q_ip, Q_pi, Q_ii


def kernel_pp(sys, wcf: WeierstrassDecomposition, t1: float, t2: float) -> np.ndarray:
    """Proper-proper output kernel B^T F_J(t1)^T M F_J(t2) B."""
    F1 = eval_FJ(wcf, t1)
    F2 = eval_FJ(wcf, t2)
    return sys.B.T @ F1.T @ sys.output.quadratic_forms[0] @ F2 @ sys.B


def rel_err(X, X_ref, floor):
    """Relative error with an absolute floor for near-zero references."""
    return np.linalg.norm(X - X_ref) / max(np.linalg.norm(X_ref), floor)
