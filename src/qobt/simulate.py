"""Time-domain evaluation of full and reduced models for smooth inputs.

Inputs are sums of terms c * sin(w t)^a * cos(w t)^b * exp(-g t), a family
closed under differentiation, so the improper state

    x2(t) = - sum_{k<nu} N^k B2 u^(k)(t)

is evaluated in closed form with analytic derivatives, and consistency of
the initial state is automatic.  The proper state solves

    x1' = J x1 + B1 u,  x1(0) = 0,

by exact stepping: the signal satisfies a small linear ODE, so the
augmented system [x1; phi]' = [[J, B1*Cu],[0, S]] [x1; phi] is propagated
with one matrix exponential of the grid step.

The signal mini-language accepted by :func:`parse_signal` covers exactly
this family, e.g. ``0.2*exp(-t)``, ``sin(t)^3*exp(-t/2)``,
``sin(2*t)^2*exp(-t/2)``; channels of a vector input are separated by
``;``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np
import scipy.integrate
from scipy.linalg import expm

from .errors import (
    GridMismatch,
    InconsistentInitialState,
    SignalParseError,
    UnstableProperPart,
)
from .model import DescriptorSystem
from .spectral import WeierstrassDecomposition, nilpotent_powers


@dataclass(frozen=True)
class SignalTerm:
    """c * sin(omega t)^sin_pow * cos(omega t)^cos_pow * exp(-gamma t)."""

    coeff: float
    sin_pow: int
    cos_pow: int
    omega: float
    gamma: float

    def value(self, t: np.ndarray) -> np.ndarray:
        wt = self.omega * t
        out = np.full_like(t, self.coeff, dtype=float)
        if self.sin_pow:
            out = out * np.sin(wt) ** self.sin_pow
        if self.cos_pow:
            out = out * np.cos(wt) ** self.cos_pow
        if self.gamma:
            out = out * np.exp(-self.gamma * t)
        return out


def _normalize_terms(terms) -> tuple[SignalTerm, ...]:
    merged: dict[tuple[int, int, float, float], float] = {}
    for term in terms:
        c, a, b, w, g = term.coeff, term.sin_pow, term.cos_pow, term.omega, term.gamma
        if w < 0:  # sin(-wt) = -sin(wt), cos even
            c *= (-1.0) ** a
            w = -w
        if w == 0.0:
            if a > 0:
                continue  # sin(0)^a vanishes identically
            b = 0
        if a == 0 and b == 0:
            w = 0.0
        merged[(a, b, w, g)] = merged.get((a, b, w, g), 0.0) + c
    out = [
        SignalTerm(coeff=c, sin_pow=a, cos_pow=b, omega=w, gamma=g)
        for (a, b, w, g), c in merged.items()
        if c != 0.0
    ]
    out.sort(key=lambda s: (s.omega, s.gamma, s.sin_pow + s.cos_pow, s.sin_pow))
    return tuple(out)


@dataclass(frozen=True)
class Signal:
    """Smooth vector input with analytic derivatives of every order."""

    channels: tuple[tuple[SignalTerm, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "channels", tuple(_normalize_terms(ch) for ch in self.channels)
        )

    @property
    def m(self) -> int:
        return len(self.channels)

    def value(self, t) -> np.ndarray:
        """Evaluate at times t; returns shape (len(t), m) or (m,) for scalar t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t_arr.size, self.m))
        for j, terms in enumerate(self.channels):
            for term in terms:
                out[:, j] += term.value(t_arr)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def derivative(self, k: int = 1) -> "Signal":
        sig = self
        for _ in range(k):
            sig = _differentiate(sig)
        return sig

    def amplitude_bounds(self) -> np.ndarray:
        """Per-channel bound sum_j |c_j| valid for all t >= 0 (times the decay)."""
        return np.array([sum(abs(t.coeff) for t in ch) for ch in self.channels])

    @property
    def decay_rate(self) -> float | None:
        """gamma_min > 0 if every term decays at least that fast, else None."""
        gammas = [t.gamma for ch in self.channels for t in ch]
        if not gammas:
            return None
        g = min(gammas)
        return g if g > 0 else None

    @property
    def max_rate(self) -> float:
        """Growth rate of derivative magnitudes: |u^(k)| <~ amp * max_rate^k."""
        rates = [
            abs(t.omega) * (t.sin_pow + t.cos_pow) + abs(t.gamma)
            for ch in self.channels
            for t in ch
        ]
        return max(rates, default=0.0)


@functools.lru_cache(maxsize=256)
def _differentiate(sig: Signal) -> Signal:
    new_channels = []
    for terms in sig.channels:
        new_terms = []
        for s in terms:
            c, a, b, w, g = s.coeff, s.sin_pow, s.cos_pow, s.omega, s.gamma
            if a:
                new_terms.append(SignalTerm(c * a * w, a - 1, b + 1, w, g))
            if b:
                new_terms.append(SignalTerm(-c * b * w, a + 1, b - 1, w, g))
            if g:
                new_terms.append(SignalTerm(-c * g, a, b, w, g))
        new_channels.append(tuple(new_terms))
    return Signal(channels=tuple(new_channels))


# ---------------------------------------------------------------------------
# mini-language parser
# ---------------------------------------------------------------------------

_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TRIG_RE = re.compile(rf"^(sin|cos)\((.+)\)(?:\^([0-9]+))?$")
_EXP_RE = re.compile(rf"^exp\((.+)\)$")
_NUM_RE = re.compile(rf"^{_NUM}$")
_LIN_ARG_RE = re.compile(rf"^(-)?({_NUM})?\*?t(?:/({_NUM}))?$")


def _split_top(text: str, seps: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in seps and depth == 0 and i > start:
            # don't split inside exponents like 1e-3
            if ch in "+-" and text[i - 1] in "eE" and i >= 2 and (text[i - 2].isdigit() or text[i - 2] == "."):
                continue
            parts.append(text[start:i])
            start = i
    parts.append(text[start:])
    return [p for p in parts if p]


def _parse_linear_arg(arg: str, where: str) -> float:
    m = _LIN_ARG_RE.match(arg)
    if not m:
        raise SignalParseError(f"cannot parse {where} argument {arg!r}; expected [num*]t[/num]")
    sign = -1.0 if m.group(1) else 1.0
    coef = float(m.group(2)) if m.group(2) else 1.0
    div = float(m.group(3)) if m.group(3) else 1.0
    if div == 0:
        raise SignalParseError(f"division by zero in {where} argument {arg!r}")
    return sign * coef / div


def _parse_term(text: str) -> SignalTerm:
    coeff, sin_pow, cos_pow, gamma = 1.0, 0, 0, 0.0
    omega = None
    for factor in _split_top(text, "*"):
        factor = factor.strip().lstrip("*").strip()
        if not factor:
            continue
        if _NUM_RE.match(factor):
            coeff *= float(factor)
            continue
        if factor.startswith("-") and _NUM_RE.match(factor[1:]):
            coeff *= -float(factor[1:])
            continue
        m = _TRIG_RE.match(factor)
        if m:
            w = _parse_linear_arg(m.group(2).replace(" ", ""), m.group(1))
            power = int(m.group(3)) if m.group(3) else 1
            if omega is not None and abs(w) != abs(omega):
                raise SignalParseError(
                    f"mixed frequencies in one term ({omega} and {w}); "
                    "analytic derivatives need a single frequency per term"
                )
            if w < 0 and m.group(1) == "sin":
                coeff *= (-1.0) ** power
            omega = abs(w)
            if m.group(1) == "sin":
                sin_pow += power
            else:
                cos_pow += power
            continue
        m = _EXP_RE.match(factor)
        if m:
            gamma += -_parse_linear_arg(m.group(1).replace(" ", ""), "exp")
            continue
        raise SignalParseError(f"cannot parse factor {factor!r}")
    return SignalTerm(coeff=coeff, sin_pow=sin_pow, cos_pow=cos_pow,
                      omega=omega if omega is not None else 0.0, gamma=gamma)


def parse_signal(text: str) -> Signal:
    """Parse the restricted expression grammar into a :class:`Signal`."""
    channels = []
    for chan_text in text.split(";"):
        chan_text = chan_text.strip().replace(" ", "")
        if not chan_text:
            raise SignalParseError("empty signal channel")
        terms = []
        for piece in _split_top(chan_text, "+-"):
            sign = 1.0
            while piece and piece[0] in "+-":
                if piece[0] == "-":
                    sign = -sign
                piece = piece[1:]
            if not piece:
                raise SignalParseError(f"dangling sign in {chan_text!r}")
            term = _parse_term(piece)
            terms.append(SignalTerm(sign * term.coeff, term.sin_pow, term.cos_pow,
                                    term.omega, term.gamma))
        channels.append(tuple(terms))
    return Signal(channels=tuple(channels))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignalNorms:
    l2: float
    c_norm: float
    u_otimes_u_l2: float
    sup_derivatives: tuple[float, ...]
    horizon: float
    tail_included: bool


def _channel_l2_sq(terms: tuple[SignalTerm, ...], horizon: float) -> float:
    def f(t):
        return sum(term.value(np.asarray(t)) for term in terms) ** 2

    val, _ = scipy.integrate.quad(f, 0.0, horizon, limit=400, epsabs=1e-14, epsrel=1e-12)
    return float(val)


def _sup_norm(sig: Signal, horizon: float, samples: int = 4001) -> float:
    ts = np.linspace(0.0, horizon, samples)
    vals = np.linalg.norm(sig.value(ts), axis=1)
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, samples - 1)]
    fine = np.linspace(lo, hi, 2001)
    return float(max(vals[i], np.linalg.norm(sig.value(fine), axis=1).max()))


def signal_norms(signal: Signal, horizon: float, nu: int) -> SignalNorms:
    """L2 and sup-derivative norms on [0, horizon], with an analytic tail
    estimate added whenever the signal declares a positive decay rate."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gamma = signal.decay_rate
    l2_sq = sum(_channel_l2_sq(ch, horizon) for ch in signal.channels)
    tail = gamma is not None
    if tail:
        amps = signal.amplitude_bounds()
        l2_sq += float(np.sum(amps**2)) * np.exp(-2 * gamma * horizon) / (2 * gamma)
    sups = []
    for k in range(max(nu, 1)):
        d = signal.derivative(k)
        s = _sup_norm(d, horizon)
        if tail:
            amp_tail = float(np.linalg.norm(d.amplitude_bounds())) * np.exp(-gamma * horizon)
            s = max(s, amp_tail)
        sups.append(s)
    l2 = float(np.sqrt(l2_sq))
    return SignalNorms(
        l2=l2,
        c_norm=float(max(sups[: max(nu, 1)])),
        u_otimes_u_l2=l2 * l2,
        sup_derivatives=tuple(sups),
        horizon=horizon,
        tail_included=tail,
    )


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    y: np.ndarray                      # (len(t), p)
    x: np.ndarray | None = None        # (n, len(t)) when states are stored


def _grid_step(grid: np.ndarray) -> float:
    dt = np.diff(grid)
    if grid.size < 2 or dt.min() <= 0:
        raise ValueError("grid must be strictly increasing with at least two points")
    if dt.max() - dt.min() > 1e-9 * dt.max():
        raise ValueError("simulate requires a uniform grid")
    return float(dt.mean())


def _companion(signal: Signal):
    """Basis phi with phi' = S phi and u = Cu phi for the signal family."""
    keys: set[tuple[int, int, float, float]] = set()
    for ch in signal.channels:
        for s in ch:
            d = s.sin_pow + s.cos_pow
            for a in range(d + 1):
                keys.add((a, d - a, s.omega, s.gamma))
    order = sorted(keys, key=lambda k: (k[2], k[3], k[0] + k[1], k[0]))
    index = {k: i for i, k in enumerate(order)}
    size = len(order)
    # rows: phi_i' = a w phi(a-1,b+1) - b w phi(a+1,b-1) - g phi(a,b)
    S = np.zeros((size, size))
    for (a, b, w, g), i in index.items():
        if a:
            S[i, index[(a - 1, b + 1, w, g)]] += a * w
        if b:
            S[i, index[(a + 1, b - 1, w, g)]] += -b * w
        if g:
            S[i, i] += -g
    Cu = np.zeros((signal.m, size))
    for j, ch in enumerate(signal.channels):
        for s in ch:
            Cu[j, index[(s.sin_pow, s.cos_pow, s.omega, s.gamma)]] += s.coeff
    phi0 = np.array([1.0 if a == 0 else 0.0 for (a, b, w, g) in order])
    return S, Cu, phi0


def _integrate_proper(J, B1, signal, grid):
    nf = J.shape[0]
    X = np.zeros((nf, grid.size))
    if nf == 0:
        return X
    dt = _grid_step(grid)
    S, Cu, phi0 = _companion(signal)
    size = S.shape[0]
    Aaug = np.zeros((nf + size, nf + size))
    Aaug[:nf, :nf] = J
    Aaug[:nf, nf:] = B1 @ Cu
    Aaug[nf:, nf:] = S
    Phi = expm(Aaug * dt)
    z = np.concatenate([np.zeros(nf), phi0])
    for i in range(1, grid.size):
        z = Phi @ z
        X[:, i] = z[:nf]
    return X


def simulate(
    sys: DescriptorSystem,
    wcf: WeierstrassDecomposition,
    signal: Signal,
    grid: np.ndarray,
    store_states: bool = False,
    x0: np.ndarray | None = None,
) -> Trajectory:
    """Simulate the quadratic output along ``grid`` (uniform, starting anywhere).

    The improper state is never integrated: it is the closed-form
    nilpotent sum, which also pins the consistent initial state.  A
    caller-supplied ``x0`` is only checked against that value.
    """
    grid = np.asarray(grid, dtype=float)
    if signal.m != sys.m:
        raise SignalParseError(f"signal has {signal.m} channels, system expects {sys.m}")
    if not wcf.stable:
        raise UnstableProperPart("cannot simulate: finite spectrum not stable")
    nf = wcf.n_f

    # improper state from the derivative sum; the k-th derivative grows
    # like max_rate^k, which weighs where the sum may stop
    X2 = np.zeros((wcf.n_inf, grid.size))
    rate = max(signal.max_rate, 1.0)
    for k, NkB2 in enumerate(nilpotent_powers(wcf.N, wcf.B2, wcf.nu, growth=rate)):
        X2 -= NkB2 @ signal.derivative(k).value(grid).T

    if x0 is not None:
        x_cons = wcf.Tinv[:, nf:] @ X2[:, 0]
        scale = max(np.linalg.norm(x_cons), 1.0)
        if np.linalg.norm(np.asarray(x0) - x_cons) > 1e-8 * scale:
            raise InconsistentInitialState(
                "initial state must equal the consistent value "
                "(zero proper part plus the derivative sum)"
            )

    X1 = _integrate_proper(wcf.J, wcf.B1, signal, grid)
    x = wcf.Tinv[:, :nf] @ X1 + wcf.Tinv[:, nf:] @ X2
    p = sys.p
    y = np.zeros((grid.size, p))
    for j, M in enumerate(sys.output.quadratic_forms):
        y[:, j] = np.einsum("it,it->t", x, M @ x)
    if sys.output.C is not None:
        y += (sys.output.C @ x).T
    return Trajectory(t=grid, y=y, x=x if store_states else None)


@dataclass(frozen=True)
class OutputError:
    pointwise: np.ndarray
    linf: float
    l2: float


def output_error(full: Trajectory, reduced: Trajectory) -> OutputError:
    """Pointwise, sup, and trapezoid-L2 distance between two trajectories."""
    if full.t.shape != reduced.t.shape or not np.allclose(full.t, reduced.t, rtol=0, atol=1e-12):
        raise GridMismatch("trajectories were produced on different grids")
    diff = np.abs(full.y - reduced.y)
    pointwise = diff.max(axis=1)
    l2 = float(np.sqrt(np.trapezoid(pointwise**2, full.t)))
    return OutputError(pointwise=pointwise, linf=float(pointwise.max()), l2=l2)
