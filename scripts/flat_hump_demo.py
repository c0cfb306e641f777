#!/usr/bin/env python3
"""Build the canonical flat-hump stationary state and verify it end to end.

Constructs the profile for the closing worked example (gamma/beta = 3,
offset from the slope-matching interval), writes the CSV artifacts, and
relaxes the profile under the time-dependent solver to measure the drift.

Usage: python scripts/flat_hump_demo.py [--out DIR] [--grid-n N] [--t-check T]
"""

import argparse
import os
import time

from flathump import pde, reporting
from flathump import stationary as st


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/flat_hump_demo")
    ap.add_argument("--grid-n", type=int, default=2048)
    ap.add_argument("--t-check", type=float, default=0.25)
    args = ap.parse_args()

    p = st.canonical_params()
    c = p.coeffs
    r_star, (lo, hi) = st.lambda_interval_from_slopes(c, p.gb)
    print(f"slope-matching point r0 = {r_star:.12f}")
    print(f"admissible offsets: ({lo:.6f}, {hi:.6f}); using lambda = {p.lam:.6f}")

    holds, margin = st.hump_energy_margin(p)
    print(f"crossings: rho_saddle = {p.rho_saddle:.3e}, rho_center = {p.rho_center:.6f}, "
          f"v_sat = {p.v_sat:.6f}")
    print(f"energy margin: holds = {holds}, potential gap = {margin:.6f}")

    v0 = st.v0_for_edge_alignment(p, 1024, 16)
    profile = st.construct_flat_hump(p, v0, args.grid_n)
    print(f"profile: l = {profile.length:.6f}, x1 = {profile.x1:.6f}, "
          f"u_min = {profile.u.min():.6f}")
    print(f"residuals: flux {profile.residual_flux:.3e}, chemical {profile.residual_v:.3e}")

    os.makedirs(args.out, exist_ok=True)
    reporting.write_snapshot(os.path.join(args.out, "profile.csv"),
                             profile.grid.centers, profile.u, profile.v,
                             t=0.0, eps=0.0, preset=c.name, n_cells=args.grid_n)
    reporting.write_phase_portrait(os.path.join(args.out, "phase_portrait.csv"), p,
                                   profile.orbit)

    cfg = pde.SolverConfig(eps=0.0, t_end=args.t_check, dt_max=1e-2, cfl=0.45)
    t0 = time.time()
    drift = st.stationarity_drift(profile, cfg, t_check=args.t_check)
    print(f"solver drift after t = {args.t_check}: {drift:.3e} "
          f"({time.time() - t0:.1f}s, n = {args.grid_n})")
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
