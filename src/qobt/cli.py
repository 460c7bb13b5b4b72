"""Command-line front end.

Subcommands wire the library into file-based workflows:

    qobt generate  --which stokes --k 15 --out sys_dir
    qobt hsv       --manifest sys_dir/system.manifest --out hsv.csv
    qobt reduce    --manifest sys_dir/system.manifest --tol 1e-8 --out rom_dir
    qobt simulate  --manifest ... [--rom rom_dir/system.manifest] \
                   --signal "0.2*exp(-t)" --horizon 10 --step 0.01 --out traj.csv
    qobt bound     --manifest ... --rom ... --signal ... --horizon 10 --out report.txt
    qobt verify    --manifest ...

Exit codes: 0 success, 2 usage, 3 invalid input or validation failure,
4 solver/numerical failure (including failed verification), 5 I/O failure.
CSV files carry a versioned schema comment in the first line and print
floats with 17 significant digits, so identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

import numpy as np

from . import bench, bound, gramians, model, reduce, spectral
from .simulate import output_error, parse_signal, simulate
from .errors import (
    AsymmetricQuadraticForm,
    DimensionMismatch,
    GridMismatch,
    InconsistentInitialState,
    IndefiniteMatrix,
    InvalidGrid,
    InvalidParams,
    ManifestError,
    NothingObservable,
    QobtError,
    SignalParseError,
    SingularPencil,
    UnstableProperPart,
)

_USAGE_ERRORS = (ManifestError, SignalParseError, InvalidGrid, InvalidParams)
_VALIDATION_ERRORS = (
    DimensionMismatch,
    SingularPencil,
    AsymmetricQuadraticForm,
    InconsistentInitialState,
    GridMismatch,
)
_SOLVER_ERRORS = (UnstableProperPart, IndefiniteMatrix, NothingObservable)

CSV_HEADER = "# qobt-csv v1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_generate(args) -> int:
    cfg = bench.BenchmarkConfig(
        which=args.which,
        stokes_k=args.k,
        msd_g=args.g,
        n_f=args.nf,
        n_inf=args.ninf,
        nu=args.nu,
        seed=args.seed,
    )
    system = cfg.generate()
    tags = {"generator": args.which}
    if args.which == "random_wcf":
        tags["seed"] = str(args.seed)
    man = model.save_system(system, args.out, tags=tags)
    print(f"wrote {man.path} (n={system.n}, m={system.m}, p={system.p})")
    return 0


def _load(args):
    system, man = model.load_system(args.manifest)
    return system, man


def cmd_hsv(args) -> int:
    system, _ = _load(args)
    wcf = spectral.separate(system)
    grams = gramians.compute_gramians(system, wcf)
    spectrum = reduce.hankel_values(system, wcf, grams)
    _write_hsv(Path(args.out), spectrum.sigma, spectrum.theta)
    print(f"wrote {args.out}: {spectrum.sigma.size} proper, {spectrum.theta.size} improper values")
    return 0


def _write_hsv(path: Path, sigma: np.ndarray, theta: np.ndarray) -> None:
    lines = [f"{CSV_HEADER} hankel", "kind,index,value"]
    lines += [f"sigma,{i + 1},{_fmt(v)}" for i, v in enumerate(sigma)]
    lines += [f"theta,{i + 1},{_fmt(v)}" for i, v in enumerate(theta)]
    path.write_text("\n".join(lines) + "\n")


def cmd_reduce(args) -> int:
    if args.order is not None and args.order < 0:
        raise InvalidParams(f"--order must be >= 0, got {args.order}")
    for flag, value in (("--tol", args.tol), ("--theta-tol", args.theta_tol)):
        if not 0.0 <= value < np.inf:
            raise InvalidParams(f"{flag} must be finite and >= 0, got {value}")
    system, _ = _load(args)
    wcf = spectral.separate(system)
    grams = gramians.compute_gramians(system, wcf)
    if args.ablate_mixed:
        grams = gramians.ablate_mixed_gramians(grams)
    rom = reduce.balance_and_truncate(
        system,
        wcf,
        grams,
        tol_sigma_rel=args.tol,
        order=args.order,
        tol_theta_zero=args.theta_tol,
    )
    out = Path(args.out)
    man = reduce.save_reduced(rom, out)
    _write_hsv(out / "hsv.csv", rom.sigma, rom.theta)
    for w in rom.warnings:
        print(f"warning: {w}", file=_sys.stderr)
    print(
        f"wrote {man.path}: order {rom.r} = {rom.r_p} proper + {rom.r_i} improper "
        f"(dropped {rom.sigma_dropped.size} sigma, {rom.theta_dropped.size} theta)"
    )
    return 0


def _positive(flag: str, value: float) -> float:
    if not 0.0 < value < np.inf:
        raise InvalidGrid(f"{flag} must be finite and > 0, got {value}")
    return value


def _uniform_grid(horizon: float, step: float) -> np.ndarray:
    count = int(round(_positive("--horizon", horizon) / _positive("--step", step)))
    if count < 1:
        raise InvalidGrid(f"--horizon {horizon} is shorter than one --step {step}")
    return np.linspace(0.0, count * step, count + 1)


def cmd_simulate(args) -> int:
    grid = _uniform_grid(args.horizon, args.step)
    system, _ = _load(args)
    wcf = spectral.separate(system)
    signal = parse_signal(args.signal)
    traj = simulate(system, wcf, signal, grid)
    columns = ["t"] + [f"y{j + 1}" for j in range(system.p)]
    data = [grid] + [traj.y[:, j] for j in range(system.p)]
    if args.rom:
        rom = reduce.load_reduced(args.rom)
        rom_traj = simulate(rom.system, rom.to_decomposition(), signal, grid)
        err = output_error(traj, rom_traj)
        columns += [f"yhat{j + 1}" for j in range(system.p)] + ["abserr"]
        data += [rom_traj.y[:, j] for j in range(system.p)] + [err.pointwise]
        print(f"max |y - yhat| = {err.linf:.6e}")
    lines = [f"{CSV_HEADER} trajectory", ",".join(columns)]
    for i in range(grid.size):
        lines.append(",".join(_fmt(col[i]) for col in data))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({grid.size} samples)")
    return 0


def cmd_bound(args) -> int:
    _positive("--horizon", args.horizon)
    system, _ = _load(args)
    wcf = spectral.separate(system)
    rom = reduce.load_reduced(args.rom)
    signal = parse_signal(args.signal)
    report = bound.error_bound(system, wcf, rom, signal, args.horizon)
    text = "\n".join(report.lines()) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    print(f"bound.total = {report.bound_total:.6e}")
    return 0


def cmd_verify(args) -> int:
    system, man = _load(args)
    failures: list[str] = []

    def check(name: str, value: float, tol: float) -> None:
        status = "ok " if value <= tol else "FAIL"
        print(f"{status} {name:32s} {value:.3e} (tol {tol:.0e})")
        if value > tol:
            failures.append(name)

    report = model.validate(system)
    print(f"ok  pencil regular (best rcond {max(report.probe_rconds):.3e})")
    for j, d in enumerate(report.symmetry_defects):
        check(f"M{j + 1} symmetry defect", d, model.SYMMETRY_LOAD_TOL)

    wcf = spectral.separate(system)
    check("reconstruction residual E", wcf.resid_E, spectral.WCF_RESIDUAL_TOL)
    check("reconstruction residual A", wcf.resid_A, spectral.WCF_RESIDUAL_TOL)
    if not wcf.stable:
        print("FAIL finite spectrum stable")
        failures.append("stability")
    else:
        print("ok  finite spectrum stable")
    print(f"ok  dimensions: n_f={wcf.n_f}, n_inf={wcf.n_inf}, nu={wcf.nu}")

    proj = spectral.projectors(wcf)
    nrm = np.linalg.norm
    scale_r = max(nrm(proj.P_r), 1.0)
    check("P_r idempotent", nrm(proj.P_r @ proj.P_r - proj.P_r) / scale_r, 1e-9)
    check("P_l idempotent", nrm(proj.P_l @ proj.P_l - proj.P_l) / max(nrm(proj.P_l), 1.0), 1e-9)
    check(
        "P_l E = E P_r",
        nrm(proj.P_l @ system.E - system.E @ proj.P_r) / max(nrm(system.E), 1.0),
        1e-9,
    )
    check(
        "P_l A = A P_r",
        nrm(proj.P_l @ system.A - system.A @ proj.P_r) / max(nrm(system.A), 1.0),
        1e-9,
    )
    check("trace P_r = n_f", abs(np.trace(proj.P_r) - wcf.n_f) / max(wcf.n_f, 1), 1e-9)

    grams = gramians.compute_gramians(system, wcf)
    residuals = gramians.equation_residuals(system, wcf, grams)
    for name, value in residuals.items():
        check(f"gramian {name}", value, 1e-9)

    tr_qp = np.trace(grams.Q_pp) + np.trace(grams.Q_ip)
    if grams.q_p_lin is not None:
        tr_qp += np.trace(grams.q_p_lin)
    check(
        "trace Q_p additivity",
        abs(np.trace(grams.Q_p) - tr_qp) / max(abs(np.trace(grams.Q_p)), 1e-30),
        1e-12,
    )

    if man.tags.get("generator") == "illustrative":
        ref = bench.illustrative_reference_gramians()
        pairs = {
            "P1": grams.P_p[:2, :2],
            "P2": grams.P_i[2:, 2:],
            "Q11": grams.Q_pp[:2, :2],
            "Q21": grams.Q_ip[:2, :2],
            "Q12": grams.Q_pi[2:, 2:],
            "Q22": grams.Q_ii[2:, 2:],
        }
        for name, block in pairs.items():
            check(f"reference {name}", float(np.abs(block - ref[name]).max()), 1e-10)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 4
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qobt", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a benchmark system to disk")
    g.add_argument("--which", required=True,
                   choices=["illustrative", "stokes", "msd", "random_wcf"])
    g.add_argument("--out", required=True)
    g.add_argument("--k", type=int, default=15, help="stokes cells per direction")
    g.add_argument("--g", type=int, default=600, help="msd chain length")
    g.add_argument("--nf", type=int, default=4)
    g.add_argument("--ninf", type=int, default=2)
    g.add_argument("--nu", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    h = sub.add_parser("hsv", help="Hankel value spectrum as CSV")
    h.add_argument("--manifest", required=True)
    h.add_argument("--out", required=True)
    h.set_defaults(func=cmd_hsv)

    r = sub.add_parser("reduce", help="balance, truncate, write the reduced model")
    r.add_argument("--manifest", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--tol", type=float, default=1e-8,
                   help="keep sigma >= sigma_1 * tol (ignored with --order)")
    r.add_argument("--order", type=int, default=None)
    r.add_argument("--theta-tol", type=float, default=reduce.THETA_ZERO_TOL)
    r.add_argument("--ablate-mixed", action="store_true",
                   help="drop the mixed observability terms (comparison runs)")
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("simulate", help="time response as CSV")
    s.add_argument("--manifest", required=True)
    s.add_argument("--rom", default=None, help="reduced-model manifest to compare")
    s.add_argument("--signal", required=True)
    s.add_argument("--horizon", type=float, required=True)
    s.add_argument("--step", type=float, required=True, help="output grid spacing")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bound", help="a-priori output error bound report")
    b.add_argument("--manifest", required=True)
    b.add_argument("--rom", required=True)
    b.add_argument("--signal", required=True)
    b.add_argument("--horizon", type=float, required=True)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify", help="run the invariant suite against a system")
    v.add_argument("--manifest", required=True)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 5
    except QobtError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
