"""Benchmark system generators.

* ``gen_illustrative`` -- the 4x4 system already in canonical form whose
  Gramians are known in closed form (rank-1 proper part, rank-2 improper
  part, nonzero mixed coupling).
* ``gen_stokes`` -- finite-difference MAC discretization of a Stokes flow
  on the unit square: index-2 saddle-point structure with k*(k-1) interior
  velocities per component and k^2 pressure cells.
* ``gen_msd`` -- damped mass-spring chain with a rigid coupling between
  the first and last mass: index-3 constrained mechanical structure.
* ``gen_random_wcf`` -- randomized systems assembled from a known spectral
  separation, returned together with the generating decomposition (the
  ground truth for recovery and quadrature oracles).

All generators are deterministic in their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .errors import InvalidGrid, InvalidParams
from .model import DescriptorSystem, OutputSpec
from .spectral import WeierstrassDecomposition, assemble_decomposition


@dataclass(frozen=True)
class MsdParams:
    """Uniform chain parameters: masses, couplings, dampers, ground springs/dampers."""

    mass: float = 1.0
    spring: float = 1.5
    damper: float = 0.7
    ground_spring: float = 2.0
    ground_damper: float = 0.9


@dataclass(frozen=True)
class BenchmarkConfig:
    which: str = "illustrative"
    stokes_k: int = 15
    msd_g: int = 600
    msd: MsdParams = field(default_factory=MsdParams)
    n_f: int = 4
    n_inf: int = 2
    nu: int = 2
    seed: int = 0
    m: int = 1
    p: int = 1
    with_C: bool = False

    def generate(self) -> DescriptorSystem:
        if self.which == "illustrative":
            return gen_illustrative()
        if self.which == "stokes":
            return gen_stokes(self.stokes_k)
        if self.which == "msd":
            return gen_msd(self.msd_g, self.msd)
        if self.which == "random_wcf":
            sys, _ = gen_random_wcf(
                self.n_f, self.n_inf, self.nu, self.seed,
                m=self.m, p=self.p, with_C=self.with_C,
            )
            return sys
        raise InvalidParams(f"unknown benchmark {self.which!r}")


def gen_illustrative() -> DescriptorSystem:
    """4x4 canonical-form example with analytically known Gramians."""
    E = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    A = np.diag([-1.0, -1.0, 1.0, 1.0])
    B = np.ones((4, 1))
    M = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
    ])
    return DescriptorSystem(E=E, A=A, B=B, output=OutputSpec(quadratic_forms=(M,)))


def illustrative_decomposition(sys: DescriptorSystem | None = None) -> WeierstrassDecomposition:
    """Exact separation of the illustrative system (it is already decoupled)."""
    if sys is None:
        sys = gen_illustrative()
    I4 = np.eye(4)
    J = np.diag([-1.0, -1.0])
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    return assemble_decomposition(W=I4, T=I4, J=J, N=N, sys=sys, Winv=I4, Tinv=I4)


def illustrative_reference_gramians() -> dict[str, np.ndarray]:
    """Closed-form canonical blocks of the six Gramians of the illustrative system.

    Derivable by hand from the defining integrals and nilpotent sums:
    the proper forcing is e^-t through B1 = [1,1]^T, so
    P1 = ones(2)/2; the chain N = [[0,1],[0,0]] gives P2 = [[2,1],[1,1]];
    the observability blocks follow from the coupled right-hand sides.
    """
    return {
        "P1": np.array([[0.5, 0.5], [0.5, 0.5]]),
        "P2": np.array([[2.0, 1.0], [1.0, 1.0]]),
        "Q11": np.array([[0.25, 0.0], [0.0, 0.0]]),
        "Q21": np.array([[1.0, 0.5], [0.5, 0.5]]),
        "Q12": np.array([[0.5, 0.5], [0.5, 1.0]]),
        "Q22": np.array([[0.0, 0.0], [0.0, 4.0]]),
    }


# ---------------------------------------------------------------------------
# Stokes, staggered-grid finite differences
# ---------------------------------------------------------------------------


def _laplacian_u(k: int) -> np.ndarray:
    """5-point Laplacian for the horizontal velocity on interior vertical edges.

    Unknowns u(i, j), i = 1..k-1 (edge abscissa), j = 0..k-1 (cell row);
    Dirichlet zero on the left/right walls, no-slip on top/bottom enforced
    through ghost reflection (u_ghost = -u), which adds 1/h^2 to the
    diagonal of wall-adjacent rows.
    """
    h2 = float(k * k)  # 1/h^2 with h = 1/k
    nx, ny = k - 1, k
    n = nx * ny

    def idx(i, j):
        return (i - 1) * ny + j

    L = np.zeros((n, n))
    for i in range(1, k):
        for j in range(ny):
            r = idx(i, j)
            diag = -4.0
            if i > 1:
                L[r, idx(i - 1, j)] = 1.0
            if i < k - 1:
                L[r, idx(i + 1, j)] = 1.0
            if j > 0:
                L[r, idx(i, j - 1)] = 1.0
            else:
                diag -= 1.0  # ghost reflection at the bottom wall
            if j < ny - 1:
                L[r, idx(i, j + 1)] = 1.0
            else:
                diag -= 1.0  # ghost reflection at the top wall
            L[r, r] = diag
    return L * h2


def _gradient_u(k: int) -> np.ndarray:
    """- d/dx pressure at interior vertical edges: row u(i,j), columns cells."""
    h = 1.0 / k
    nx, ny = k - 1, k
    G = np.zeros((nx * ny, k * k))

    def cell(i, j):
        return i * k + j

    r = 0
    for i in range(1, k):
        for j in range(ny):
            G[r, cell(i, j)] = -1.0 / h
            G[r, cell(i - 1, j)] = 1.0 / h
            r += 1
    return G


def gen_stokes(k: int = 15) -> DescriptorSystem:
    """Index-2 Stokes flow on the unit square, k x k cells, no-slip walls.

    The raw discrete gradient annihilates constant pressure, which would
    make the pencil singular; the constant mode is deflated by a rank-one
    completion G <- G + s * w * mean^T with w orthogonal to range(G), so
    the pressure count stays k^2 and the pencil becomes regular of index 2.
    Forcing is a distributed column, a separable sine bump on the
    horizontal velocity (a point load is nearly balanced by pressure and
    excites almost nothing); the output is the squared state norm scaled
    by 0.01.
    """
    if k < 3:
        raise InvalidGrid(f"need k >= 3 grid cells per direction, got {k}")
    Lu = _laplacian_u(k)
    Gu = _gradient_u(k)
    n_edge = k * (k - 1)
    n_v = 2 * n_edge
    n_p = k * k

    A11 = np.zeros((n_v, n_v))
    A11[:n_edge, :n_edge] = Lu
    # the vertical component sees the transposed geometry; same operator
    A11[n_edge:, n_edge:] = Lu
    G = np.zeros((n_v, n_p))
    G[:n_edge] = Gu
    # vertical velocities couple to d/dy: reuse the u-gradient with the
    # cell indexing transposed
    perm = np.arange(n_p).reshape(k, k).T.ravel()
    G[n_edge:] = Gu[:, perm]

    # deflation of the constant-pressure mode (rank-one range completion)
    ones_p = np.ones(n_p) / np.sqrt(n_p)
    x = np.zeros(n_v)
    x[0] = 1.0
    coeff, *_ = np.linalg.lstsq(G, x, rcond=None)
    w = x - G @ coeff
    if np.linalg.norm(w) < 1e-8:
        x[:] = np.linspace(1.0, 2.0, n_v)
        coeff, *_ = np.linalg.lstsq(G, x, rcond=None)
        w = x - G @ coeff
    w /= np.linalg.norm(w)
    svals = np.linalg.svd(G, compute_uv=False)
    scale = svals[min(n_p - 2, len(svals) - 1)]
    G = G + scale * np.outer(w, ones_p)

    n = n_v + n_p
    E = np.zeros((n, n))
    E[:n_v, :n_v] = np.eye(n_v)
    A = np.zeros((n, n))
    A[:n_v, :n_v] = A11
    A[:n_v, n_v:] = G
    A[n_v:, :n_v] = G.T

    B = np.zeros((n, 1))
    r = 0
    for i in range(1, k):
        for j in range(k):
            B[r, 0] = np.sin(np.pi * i / k) * np.sin(np.pi * (j + 0.5) / k)
            r += 1
    B /= np.linalg.norm(B)
    M = 0.01 * np.eye(n)
    return DescriptorSystem(E=E, A=A, B=B, output=OutputSpec(quadratic_forms=(M,)))


# ---------------------------------------------------------------------------
# constrained mass-spring-damper chain
# ---------------------------------------------------------------------------


def _chain_matrix(g: int, coupling: np.ndarray, ground: np.ndarray) -> np.ndarray:
    """Tridiagonal stiffness/damping pattern of the chain."""
    X = np.zeros((g, g))
    for i in range(g):
        X[i, i] = ground[i]
        if i > 0:
            X[i, i] += coupling[i - 1]
            X[i, i - 1] = -coupling[i - 1]
        if i < g - 1:
            X[i, i] += coupling[i]
            X[i, i + 1] = -coupling[i]
    return X


def gen_msd(g: int = 600, params: MsdParams | None = None) -> DescriptorSystem:
    """Index-3 chain of g masses with a rigid constraint tying mass 1 to mass g.

    State: positions, velocities, one Lagrange multiplier (n = 2g + 1);
    the output is the squared state norm (identity quadratic form).
    """
    if g < 2:
        raise InvalidParams(f"need at least two masses, got g={g}")
    params = params or MsdParams()
    for name in ("mass", "spring", "damper", "ground_spring", "ground_damper"):
        if getattr(params, name) <= 0:
            raise InvalidParams(f"{name} must be positive")

    coupling_k = np.full(g - 1, params.spring)
    coupling_d = np.full(g - 1, params.damper)
    ground_k = np.full(g, params.ground_spring)
    ground_d = np.full(g, params.ground_damper)
    K = _chain_matrix(g, coupling_k, ground_k)
    D = _chain_matrix(g, coupling_d, ground_d)
    H = params.mass * np.eye(g)
    Gc = np.zeros((g, 1))
    Gc[0, 0] = 1.0
    Gc[-1, 0] = -1.0
    Bx = np.zeros((g, 1))
    Bx[0, 0] = 1.0

    n = 2 * g + 1
    E = np.zeros((n, n))
    E[:g, :g] = np.eye(g)
    E[g : 2 * g, g : 2 * g] = H
    A = np.zeros((n, n))
    A[:g, g : 2 * g] = np.eye(g)
    A[g : 2 * g, :g] = -K
    A[g : 2 * g, g : 2 * g] = -D
    A[g : 2 * g, 2 * g :] = Gc
    A[2 * g :, :g] = Gc.T
    B = np.zeros((n, 1))
    B[g : 2 * g] = Bx
    M = np.eye(n)
    return DescriptorSystem(E=E, A=A, B=B, output=OutputSpec(quadratic_forms=(M,)))


# ---------------------------------------------------------------------------
# randomized ground-truth systems
# ---------------------------------------------------------------------------


def gen_random_wcf(
    n_f: int,
    n_inf: int,
    nu: int,
    seed: int,
    m: int = 1,
    p: int = 1,
    with_C: bool = False,
) -> tuple[DescriptorSystem, WeierstrassDecomposition]:
    """Random system assembled from a known separation; returns it with the truth.

    J is stable with eigenvalues in [-5, -0.1]; N is a single nilpotent
    chain of index exactly nu padded with zeros; W and T are orthogonal
    times a mild diagonal, so transforms stay well conditioned.
    """
    if n_inf == 0:
        if nu != 1:
            raise InvalidParams("n_inf = 0 forces nu = 1")
    elif not 1 <= nu <= n_inf:
        raise InvalidParams(f"need 1 <= nu <= n_inf, got nu={nu}, n_inf={n_inf}")
    if n_f < 0 or n_inf < 0 or n_f + n_inf == 0:
        raise InvalidParams("system must have positive size")
    rng = np.random.default_rng(seed)
    n = n_f + n_inf

    eigs = rng.uniform(-5.0, -0.1, size=n_f)
    O_j = np.linalg.qr(rng.standard_normal((n_f, n_f)))[0] if n_f else np.zeros((0, 0))
    J = O_j @ (np.diag(eigs) + 0.3 * np.triu(rng.standard_normal((n_f, n_f)), 1)) @ O_j.T

    N = np.zeros((n_inf, n_inf))
    for i in range(nu - 1):
        N[i, i + 1] = rng.uniform(0.5, 1.5)

    def transform(size):
        O = np.linalg.qr(rng.standard_normal((size, size)))[0]
        d = np.exp(rng.uniform(-0.7, 0.7, size=size))
        return O * d  # orthogonal times mild diagonal scaling

    W = transform(n)
    T = transform(n)
    E = W @ block_diag(np.eye(n_f), N) @ T
    A = W @ block_diag(J, np.eye(n_inf)) @ T
    B = rng.standard_normal((n, m))
    forms = []
    for _ in range(p):
        M0 = rng.standard_normal((n, n))
        forms.append(0.5 * (M0 + M0.T))
    C = rng.standard_normal((p, n)) if with_C else None
    sys = DescriptorSystem(E=E, A=A, B=B, output=OutputSpec(quadratic_forms=tuple(forms), C=C))
    truth = assemble_decomposition(W=W, T=T, J=J, N=N, sys=sys)
    return sys, truth
