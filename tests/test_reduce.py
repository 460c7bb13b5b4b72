import numpy as np
import pytest

import qobt
from qobt.errors import NothingObservable
from qobt.gramians import ablate_mixed_gramians, compute_gramians
from qobt.model import DescriptorSystem, OutputSpec
from qobt.reduce import (
    balance_and_truncate,
    hankel_values,
    identity_reduction,
    load_reduced,
    save_reduced,
)
from qobt.spectral import separate


def test_illustrative_hankel_counts(illustrative):
    sys, wcf, grams = illustrative
    hsv = hankel_values(sys, wcf, grams)
    assert (hsv.sigma > hsv.sigma[0] * 1e-8).sum() == 1
    assert hsv.sigma[1:].max(initial=0.0) <= hsv.sigma[0] * 1e-10
    assert (hsv.theta > hsv.theta[0] * 1e-12).sum() == 2


def test_nothing_observable(illustrative):
    sys, wcf, _ = illustrative
    sys0 = DescriptorSystem(
        E=sys.E, A=sys.A, B=sys.B,
        output=OutputSpec(quadratic_forms=(np.zeros((4, 4)),)),
    )
    grams0 = compute_gramians(sys0, wcf)
    hsv = hankel_values(sys0, wcf, grams0)
    assert hsv.sigma.max(initial=0.0) == 0.0 or hsv.sigma.size == 0
    with pytest.raises(NothingObservable):
        balance_and_truncate(sys0, wcf, grams0, tol_sigma_rel=1e-8)


def test_illustrative_reduction(illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-8)
    assert (rom.r_p, rom.r_i, rom.r) == (1, 2, 3)
    # exact block structure of the re-decoupled pencil
    E, A = rom.system.E, rom.system.A
    assert np.array_equal(E[:1, :1], np.eye(1))
    assert np.array_equal(E[:1, 1:], np.zeros((1, 2)))
    assert np.array_equal(A[1:, 1:], np.eye(2))
    assert np.array_equal(A[:1, 1:], np.zeros((1, 2)))
    # nilpotent improper block, stable proper block
    E2 = rom.nilpotent_block
    assert np.linalg.norm(np.linalg.matrix_power(E2, 2)) <= 1e-10
    assert np.max(np.linalg.eigvals(rom.proper_block).real) < 0
    # the reduced pencil is regular
    assert abs(np.linalg.det(1.3 * E - A)) > 1e-12


def test_petrov_galerkin_consistency(illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-8)
    # before cleanup these products reproduce the reduced matrices; after
    # cleanup the proper-proper corner must still be the identity
    Eh = rom.W_r.T @ sys.E @ rom.T_r
    assert np.abs(Eh[: rom.r_p, : rom.r_p] - np.eye(rom.r_p)).max() <= 1e-10
    Ah = rom.W_r.T @ sys.A @ rom.T_r
    assert np.abs(Ah[rom.r_p :, rom.r_p :] - np.eye(rom.r_i)).max() <= 1e-10
    assert np.abs(rom.W_r.T @ sys.B - rom.system.B).max() <= 1e-12


def test_order_criterion(illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, order=1)
    assert rom.r_p == 1


def test_keep_everything_matches_fom(illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=0.0)
    assert rom.r_p == 1  # minimal realization order of the proper part
    sig = qobt.parse_signal("0.2*exp(-t)")
    grid = np.linspace(0.0, 10.0, 501)
    full = qobt.simulate(sys, wcf, sig, grid)
    red = qobt.simulate(rom.system, rom.to_decomposition(), sig, grid)
    err = qobt.output_error(full, red)
    assert err.linf <= 1e-10 * np.abs(full.y).max()


def test_improper_part_never_over_truncated(illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-2)
    # sigma tolerance must not shrink the improper part below its minimal order
    assert rom.r_i == (rom.theta > rom.theta[0] * 1e-12).sum()


@pytest.mark.parametrize("seed", range(4))
def test_sigma_equivalence_invariance(seed):
    sys, _ = qobt.gen_random_wcf(4, 3, 2, seed=seed)
    wcf = separate(sys)
    grams = compute_gramians(sys, wcf)
    base = hankel_values(sys, wcf, grams).sigma

    rng = np.random.default_rng(seed + 1000)
    n = sys.n
    S = np.linalg.qr(rng.standard_normal((n, n)))[0] * np.exp(rng.uniform(-0.5, 0.5, n))
    Z = np.linalg.qr(rng.standard_normal((n, n)))[0] * np.exp(rng.uniform(-0.5, 0.5, n))
    sys2 = DescriptorSystem(
        E=S @ sys.E @ Z, A=S @ sys.A @ Z, B=S @ sys.B,
        output=OutputSpec(
            quadratic_forms=tuple(Z.T @ M @ Z for M in sys.output.quadratic_forms)
        ),
    )
    wcf2 = separate(sys2)
    other = hankel_values(sys2, wcf2, compute_gramians(sys2, wcf2)).sigma
    # invariance to 1e-9 relative, measured against the spectrum scale:
    # the attainable per-value accuracy of a tiny sigma_k degrades like
    # sigma_1/sigma_k * eps, so sigma_1 is the meaningful yardstick
    k = min(base.size, other.size)
    assert np.abs(base[:k] - other[:k]).max() <= 1e-9 * base[0]
    # the dominant values also match per-value
    large = base[:k] >= base[0] * 1e-2
    rel = np.abs(base[:k][large] - other[:k][large]) / base[:k][large]
    assert rel.max() <= 1e-9


def test_ablation_noop_when_uncoupled():
    # build a system whose quadratic form has no mixed block in the
    # decomposed coordinates: the mixed Gramians vanish
    sys0, truth = qobt.gen_random_wcf(3, 2, 2, seed=2)
    rng = np.random.default_rng(0)
    M11 = rng.standard_normal((3, 3))
    M22 = rng.standard_normal((2, 2))
    Mb = np.zeros((5, 5))
    Mb[:3, :3] = 0.5 * (M11 + M11.T)
    Mb[3:, 3:] = 0.5 * (M22 + M22.T)
    M = truth.T.T @ Mb @ truth.T
    sys = DescriptorSystem(
        E=sys0.E, A=sys0.A, B=sys0.B,
        output=OutputSpec(quadratic_forms=(0.5 * (M + M.T),)),
    )
    grams = compute_gramians(sys, truth)
    scale = max(np.linalg.norm(grams.Q_p), np.linalg.norm(grams.Q_i))
    assert np.linalg.norm(grams.Q_ip) <= 1e-10 * scale
    assert np.linalg.norm(grams.Q_pi) <= 1e-10 * scale
    ab = ablate_mixed_gramians(grams)
    assert np.linalg.norm(ab.Q_p - grams.Q_p) <= 1e-10 * scale
    assert np.linalg.norm(ab.Q_i - grams.Q_i) <= 1e-10 * scale


def test_identity_reduction_blocks(illustrative):
    sys, wcf, _ = illustrative
    rom = identity_reduction(sys, wcf)
    assert rom.r == sys.n
    assert np.abs(rom.W_r.T @ sys.E @ rom.T_r - rom.system.E).max() <= 1e-12
    assert np.abs(rom.W_r.T @ sys.A @ rom.T_r - rom.system.A).max() <= 1e-12


def test_reduced_roundtrip(tmp_path, illustrative):
    sys, wcf, grams = illustrative
    rom = balance_and_truncate(sys, wcf, grams, tol_sigma_rel=1e-8)
    man = save_reduced(rom, tmp_path / "rom")
    rom2 = load_reduced(man.path)
    assert (rom2.r_p, rom2.r_i) == (rom.r_p, rom.r_i)
    assert np.array_equal(rom.system.E, rom2.system.E)
    assert np.array_equal(rom.W_r, rom2.W_r)
    assert np.array_equal(rom.sigma_kept, rom2.sigma_kept)
    assert np.array_equal(rom.theta_dropped, rom2.theta_dropped)


def test_selection_requires_criterion(illustrative):
    sys, wcf, grams = illustrative
    for tol, order in ((None, None), (1e-8, -1), (float("nan"), None), (-1e-8, None)):
        with pytest.raises(ValueError):
            balance_and_truncate(sys, wcf, grams, tol_sigma_rel=tol, order=order)


def test_load_reduced_rejects_plain_system(tmp_path):
    from qobt.model import save_system

    man = save_system(qobt.gen_illustrative(), tmp_path / "sys")
    with pytest.raises(ValueError):
        load_reduced(man.path)


def test_linear_only_reduction_sound(tmp_path):
    rng = np.random.default_rng(0)
    sys0, _ = qobt.gen_random_wcf(3, 2, 2, seed=5)
    lin = DescriptorSystem(
        E=sys0.E, A=sys0.A, B=sys0.B,
        output=OutputSpec(quadratic_forms=(), C=rng.standard_normal((2, sys0.n))),
    )
    wcf = separate(lin)
    grams = compute_gramians(lin, wcf)
    rom = balance_and_truncate(lin, wcf, grams, tol_sigma_rel=1e-10)
    sig = qobt.parse_signal("sin(t)*exp(-t/2)")
    grid = np.linspace(0.0, 15.0, 1501)
    full = qobt.simulate(lin, wcf, sig, grid)
    red = qobt.simulate(rom.system, rom.to_decomposition(), sig, grid)
    err = qobt.output_error(full, red)
    rep = qobt.error_bound(lin, wcf, rom, sig, 15.0, grams=grams)
    assert err.linf <= rep.bound_total + 1e-12


def test_balancing_identity(illustrative):
    # Sigma_1 = U_1^T (S^T E R) V_1 for the kept directions
    from qobt.reduce import _balanced_svds

    sys, _, grams = illustrative
    svds = _balanced_svds(sys, grams)
    core = svds.Up.T @ (svds.Sp.T @ sys.E @ svds.Rp) @ svds.Vp
    assert np.abs(core - np.diag(svds.sigma)).max() <= 1e-10 * svds.sigma[0]
    core_i = svds.Ui.T @ (svds.Si.T @ sys.A @ svds.Ri) @ svds.Vi
    k = svds.theta.size
    assert np.abs(core_i - np.diag(svds.theta)[:k, :k]).max() <= 1e-10 * svds.theta[0]
