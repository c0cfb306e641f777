#!/usr/bin/env python3
"""Regularization-convergence study: Cauchy differences ||u^eps - u^(eps/2)||.

Runs the solver on identical data across a halving eps ladder and writes the
difference table.  The column must decrease as eps drops; its decay rate is
the numerical shadow of the vanishing-regularization limit.

Usage: python scripts/eps_study.py [--preset P] [--t-end T] [--n N] [--out DIR]
"""

import argparse
import os

from flathump import coefficients as co
from flathump import diagnostics as dg
from flathump import pde, reporting


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="example-A", choices=co.preset_names())
    ap.add_argument("--t-end", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--length", type=float, default=10.0)
    ap.add_argument("--eps", default="1e-1,5e-2,2.5e-2,1.25e-2")
    ap.add_argument("--out", default="out/eps_study")
    args = ap.parse_args()

    c = co.preset(args.preset)
    grid = pde.Grid1D(args.n, args.length)
    u0 = pde.profile_bump(grid)
    v0 = pde.profile_constant(grid, 0.5)
    cfg = pde.SolverConfig(eps=1.0, t_end=args.t_end, dt_max=1e-2)
    eps_list = [float(tok) for tok in args.eps.split(",")]

    table = dg.eps_convergence_study(u0, v0, grid, c, cfg, eps_list)
    print(f"{'eps':>10} {'eps/2':>10} {'||du||_L2':>12} {'||dv||_L2':>12}")
    for row in table.rows:
        e, eh, du, dv = row.values
        print(f"{e:>10.4g} {eh:>10.4g} {du:>12.4e} {dv:>12.4e}")
    ratio = table.metadata["last_diff"] / table.metadata["first_diff"]
    print(f"strictly decreasing: {table.passed}; final/first = {ratio:.4f}")

    os.makedirs(args.out, exist_ok=True)
    reporting.write_study(os.path.join(args.out, "eps_study.csv"), table)
    print(f"table written to {args.out}/eps_study.csv")


if __name__ == "__main__":
    main()
