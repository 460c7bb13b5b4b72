#!/usr/bin/env python3
"""Constrained mass-spring chain: reduction, output error, and bound."""

import argparse
from pathlib import Path

import numpy as np

import qobt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g", type=int, default=600, help="number of masses")
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--horizon", type=float, default=10.0)
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--out", default="results/msd")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sys = qobt.gen_msd(args.g)
    print(f"generated: n = {sys.n}")
    wcf = qobt.separate(sys)
    print(f"separated: n_f = {wcf.n_f}, n_inf = {wcf.n_inf}, index = {wcf.nu}")
    grams = qobt.compute_gramians(sys, wcf)
    hsv = qobt.hankel_values(sys, wcf, grams)
    lines = ["# qobt-csv v1 hankel", "kind,index,value"]
    lines += [f"sigma,{i + 1},{v:.17g}" for i, v in enumerate(hsv.sigma[:60])]
    lines += [f"theta,{i + 1},{v:.17g}" for i, v in enumerate(hsv.theta)]
    (out / "hsv.csv").write_text("\n".join(lines) + "\n")

    rom = qobt.balance_and_truncate(sys, wcf, grams, tol_sigma_rel=args.tol)
    print(f"reduced order {rom.r} = {rom.r_p} proper + {rom.r_i} improper")

    sig = qobt.parse_signal("sin(2*t)^2*exp(-t/2)")
    grid = np.arange(0.0, args.horizon + args.step / 2, args.step)
    full = qobt.simulate(sys, wcf, sig, grid)
    red = qobt.simulate(rom.system, rom.to_decomposition(), sig, grid)
    err = qobt.output_error(full, red)
    rep = qobt.error_bound(sys, wcf, rom, sig, horizon=args.horizon, grams=grams)
    lines = ["# qobt-csv v1 trajectory", "t,y,yhat,abserr,bound"]
    for i, t in enumerate(grid):
        lines.append(
            f"{t:.17g},{full.y[i, 0]:.17g},{red.y[i, 0]:.17g},"
            f"{err.pointwise[i]:.17g},{rep.bound_total:.17g}"
        )
    (out / "error_vs_bound.csv").write_text("\n".join(lines) + "\n")
    print(f"max error {err.linf:.3e} <= bound {rep.bound_total:.3e}: {err.linf <= rep.bound_total}")


if __name__ == "__main__":
    main()
