"""Descriptor systems with quadratic outputs: containers, validation, file I/O.

A system is

    E x'(t) = A x(t) + B u(t),
    y_j(t)  = (C x(t))_j + x(t)^T M_j x(t),      j = 1..p,

with E possibly singular, the pencil s*E - A regular, and every M_j
symmetric.  The single-output case is stored as p = 1 with no C so that
all downstream code has exactly one path.

On-disk format
--------------
A system is a directory holding one Matrix Market file per matrix plus a
plain-text manifest of ``key = value`` lines:

    kind = descriptor_system
    n = 4
    m = 1
    p = 1
    nu = 2              # optional index hint
    E = E.mtx
    A = A.mtx
    B = B.mtx
    C = C.mtx           # optional
    M1 = M1.mtx
    tag.name = illustrative     # optional metadata, repeatable prefix
    x.<key> = <value>           # optional extra records (reduced models)

Matrices are written in coordinate format when sparse enough, array
format otherwise, always with 17 significant digits so that float64
entries round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse
from scipy.linalg import get_lapack_funcs, lu_factor

from .errors import (
    AsymmetricQuadraticForm,
    DimensionMismatch,
    ManifestError,
    SingularPencil,
)

# Relative symmetry defect above which load_system refuses to repair an M_j.
SYMMETRY_LOAD_TOL = 1e-8
# Number of random shifts probed by the pencil-regularity check.
REGULARITY_PROBES = 5
# rcond below which a probe shift counts as numerically singular.
REGULARITY_RCOND_TOL = 1e-14

MANIFEST_NAME = "system.manifest"


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OutputSpec:
    """Output map: optional linear part C plus symmetric quadratic forms M_j."""

    quadratic_forms: tuple[np.ndarray, ...]
    C: np.ndarray | None = None

    def __post_init__(self):
        forms = tuple(_as_matrix(M, f"M{j + 1}") for j, M in enumerate(self.quadratic_forms))
        object.__setattr__(self, "quadratic_forms", forms)
        if self.C is not None:
            object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        if not forms and self.C is None:
            raise DimensionMismatch("output needs at least one quadratic form or a C matrix")
        n = forms[0].shape[0] if forms else self.C.shape[1]
        for j, M in enumerate(forms):
            if M.shape != (n, n):
                raise DimensionMismatch(f"M{j + 1} has shape {M.shape}, expected ({n}, {n})")
        if self.C is not None:
            if forms and self.C.shape != (len(forms), n):
                raise DimensionMismatch(
                    f"C has shape {self.C.shape}, expected ({len(forms)}, {n})"
                )

    @property
    def p(self) -> int:
        return len(self.quadratic_forms) if self.quadratic_forms else self.C.shape[0]

    @property
    def n(self) -> int:
        return self.quadratic_forms[0].shape[0] if self.quadratic_forms else self.C.shape[1]

    def symmetry_defects(self) -> tuple[float, ...]:
        """Relative Frobenius defect ||M - M^T|| / ||M|| per quadratic form."""
        out = []
        for M in self.quadratic_forms:
            nrm = np.linalg.norm(M)
            out.append(np.linalg.norm(M - M.T) / nrm if nrm > 0 else 0.0)
        return tuple(out)


@dataclass(frozen=True)
class DescriptorSystem:
    """Immutable container for (E, A, B) and the output specification."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    output: OutputSpec

    def __post_init__(self):
        E = _as_matrix(self.E, "E")
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        n = E.shape[0]
        if E.shape != (n, n) or A.shape != (n, n):
            raise DimensionMismatch(f"E and A must be square and equal-sized, got {E.shape}, {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if self.output.n != n:
            raise DimensionMismatch(f"output is sized for n={self.output.n}, system has n={n}")

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.output.p


@dataclass(frozen=True)
class ValidationReport:
    regular: bool
    probe_rconds: tuple[float, ...]
    probe_shifts: tuple[complex, ...]
    e_rank: int
    e_singular: bool
    symmetry_defects: tuple[float, ...]
    stable: bool | None
    messages: tuple[str, ...]


def _rcond(mat: np.ndarray) -> float:
    """1-norm reciprocal condition estimate via LU, LAPACK gecon."""
    anorm = np.linalg.norm(mat, 1)
    if anorm == 0.0:
        return 0.0
    try:
        lu, _ = lu_factor(mat)
    except np.linalg.LinAlgError:
        return 0.0
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rc, info = gecon(lu, anorm)
    return float(rc) if info == 0 else 0.0


def probe_shifts(sys: DescriptorSystem, count: int = REGULARITY_PROBES) -> tuple[complex, ...]:
    """Deterministic probe shifts on a circle of radius ||A||/||E||."""
    norm_a = np.linalg.norm(sys.A)
    norm_e = np.linalg.norm(sys.E)
    radius = norm_a / norm_e if norm_e > 0 else max(norm_a, 1.0)
    if radius == 0.0:
        radius = 1.0
    golden = 2.0 * np.pi * 0.38196601125010515
    return tuple(radius * np.exp(1j * (0.5 + k * golden)) for k in range(count))


def validate(sys: DescriptorSystem, check_stability: bool = False) -> ValidationReport:
    """Check regularity, symmetry, and singularity of E; never mutates the input.

    Regularity is probabilistic: the pencil is declared singular only if
    s*E - A is numerically singular at every probe shift.  The stability
    verdict requires a spectral separation and is skipped unless
    ``check_stability`` is set.
    """
    shifts = probe_shifts(sys)
    rconds = tuple(_rcond(s * sys.E - sys.A) for s in shifts)
    regular = any(rc > REGULARITY_RCOND_TOL for rc in rconds)

    e_rank = int(np.linalg.matrix_rank(sys.E))
    defects = sys.output.symmetry_defects()

    messages = []
    if not regular:
        messages.append("pencil numerically singular at every probe shift")
    for j, d in enumerate(defects):
        if d > SYMMETRY_LOAD_TOL:
            messages.append(f"M{j + 1} symmetry defect {d:.3e} exceeds {SYMMETRY_LOAD_TOL:.0e}")

    stable = None
    if check_stability:
        if not regular:
            raise SingularPencil("cannot assess stability of a singular pencil")
        from .spectral import separate

        wcf = separate(sys)
        stable = wcf.stable
        if not stable:
            messages.append("finite spectrum reaches the closed right half-plane")

    if not regular:
        raise SingularPencil("; ".join(messages) or "singular pencil")

    return ValidationReport(
        regular=regular,
        probe_rconds=rconds,
        probe_shifts=shifts,
        e_rank=e_rank,
        e_singular=e_rank < sys.n,
        symmetry_defects=defects,
        stable=stable,
        messages=tuple(messages),
    )


def symmetrize_output(output: OutputSpec, tol: float = SYMMETRY_LOAD_TOL) -> OutputSpec:
    """Replace each M_j by (M + M^T)/2; reject defects at or above ``tol`` relative."""
    fixed = []
    for j, M in enumerate(output.quadratic_forms):
        nrm = np.linalg.norm(M)
        defect = np.linalg.norm(M - M.T)
        if nrm > 0 and defect >= tol * nrm:
            raise AsymmetricQuadraticForm(
                f"M{j + 1} defect {defect:.3e} >= {tol:.0e} * ||M|| = {tol * nrm:.3e}"
            )
        fixed.append(0.5 * (M + M.T))
    return OutputSpec(quadratic_forms=tuple(fixed), C=output.C)


# ---------------------------------------------------------------------------
# manifest + Matrix Market I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemManifest:
    """Parsed manifest: file roles, declared sizes, tags, extra records."""

    path: Path
    n: int
    m: int
    p: int
    nu: int | None
    files: dict[str, str] = field(default_factory=dict)
    tags: dict[str, str] = field(default_factory=dict)
    extras: dict[str, str] = field(default_factory=dict)

    @property
    def directory(self) -> Path:
        return self.path.parent


def _write_mm(path: Path, mat: np.ndarray) -> None:
    # coordinate format for sparse matrices, array otherwise; 17 digits either way
    density = np.count_nonzero(mat) / max(mat.size, 1)
    if density < 0.5:
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(mat), precision=17)
    else:
        scipy.io.mmwrite(path, mat, precision=17)


def _read_mm(path: Path) -> np.ndarray:
    mat = scipy.io.mmread(path)
    if scipy.sparse.issparse(mat):
        mat = mat.toarray()
    return np.asarray(mat, dtype=float)


def write_manifest(path: Path, entries: list[tuple[str, str]]) -> None:
    lines = ["# qobt system manifest, format v1"]
    lines += [f"{k} = {v}" for k, v in entries]
    path.write_text("\n".join(lines) + "\n")


def parse_manifest(path: Path) -> SystemManifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    files: dict[str, str] = {}
    tags: dict[str, str] = {}
    extras: dict[str, str] = {}
    scalars: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("tag."):
            tags[key[4:]] = value
        elif key.startswith("x."):
            extras[key[2:]] = value
        elif key in ("n", "m", "p", "nu", "kind"):
            scalars[key] = value
        else:
            files[key] = value
    try:
        n = int(scalars["n"])
        m = int(scalars["m"])
        p = int(scalars["p"])
    except KeyError as exc:
        raise ManifestError(f"{path}: missing required key {exc}") from exc
    except ValueError as exc:
        raise ManifestError(f"{path}: non-integer size entry: {exc}") from exc
    nu = int(scalars["nu"]) if "nu" in scalars else None
    missing = [f for f in files.values() if not (path.parent / f).is_file()]
    if missing:
        raise ManifestError(f"{path}: referenced files not found: {missing}")
    return SystemManifest(path=path, n=n, m=m, p=p, nu=nu, files=files, tags=tags, extras=extras)


def save_system(
    sys: DescriptorSystem,
    directory,
    nu: int | None = None,
    tags: dict[str, str] | None = None,
    extras: dict[str, str] | None = None,
    extra_matrices: dict[str, np.ndarray] | None = None,
) -> SystemManifest:
    """Write matrices and manifest into ``directory``; round-trips exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries: list[tuple[str, str]] = [
        ("kind", "descriptor_system"),
        ("n", str(sys.n)),
        ("m", str(sys.m)),
        ("p", str(sys.p)),
    ]
    if nu is not None:
        entries.append(("nu", str(nu)))
    files: dict[str, str] = {}

    def put(role: str, mat: np.ndarray):
        fname = f"{role}.mtx"
        _write_mm(directory / fname, mat)
        files[role] = fname
        entries.append((role, fname))

    put("E", sys.E)
    put("A", sys.A)
    put("B", sys.B)
    if sys.output.C is not None:
        put("C", sys.output.C)
    for j, M in enumerate(sys.output.quadratic_forms, start=1):
        put(f"M{j}", M)
    for role, mat in (extra_matrices or {}).items():
        put(role, mat)
    for k, v in (tags or {}).items():
        entries.append((f"tag.{k}", v))
    for k, v in (extras or {}).items():
        entries.append((f"x.{k}", v))

    manifest_path = directory / MANIFEST_NAME
    write_manifest(manifest_path, entries)
    return SystemManifest(
        path=manifest_path,
        n=sys.n,
        m=sys.m,
        p=sys.p,
        nu=nu,
        files=files,
        tags=dict(tags or {}),
        extras=dict(extras or {}),
    )


def load_system(manifest_path) -> tuple[DescriptorSystem, SystemManifest]:
    """Load a system; symmetrizes quadratic forms with sub-tolerance defects."""
    man = parse_manifest(Path(manifest_path))
    base = man.directory

    def get(role: str) -> np.ndarray:
        if role not in man.files:
            raise ManifestError(f"{man.path}: missing matrix role {role!r}")
        return _read_mm(base / man.files[role])

    E, A, B = get("E"), get("A"), get("B")
    C = _read_mm(base / man.files["C"]) if "C" in man.files else None
    forms = []
    j = 1
    while f"M{j}" in man.files:
        forms.append(_read_mm(base / man.files[f"M{j}"]))
        j += 1
    if len(forms) != man.p and not (C is not None and not forms):
        raise ManifestError(f"{man.path}: p={man.p} but found {len(forms)} quadratic forms")

    output = symmetrize_output(OutputSpec(quadratic_forms=tuple(forms), C=C))
    sys = DescriptorSystem(E=E, A=A, B=B, output=output)
    if sys.n != man.n or sys.m != man.m:
        raise ManifestError(
            f"{man.path}: declared sizes (n={man.n}, m={man.m}) do not match "
            f"loaded matrices (n={sys.n}, m={sys.m})"
        )
    return sys, man
