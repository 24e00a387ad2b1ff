#!/usr/bin/env python3
"""Scan the theta-shifted operator family and report the measured bad set.

Prints the grid size and the threshold delta^-(1+eps), then the bad
fraction and measure; --out also writes one CSV row per grid point.  The
operator splits into dense blocks, one per component of the sites its
symbols link; they are built once, and each grid point shifts their
diagonals by theta and takes one batched SVD per block size, so every norm
is exact up to rounding.  Example:

    PYTHONPATH=src python scripts/run_theta_scan.py --points 201 --out scan.csv
"""

import argparse

import numpy as np

from nlsqp.characteristics import seed_symbols
from nlsqp.lattice import Box, linear_solution, make_spec
from nlsqp.linop import theta_spectrum_scan
from nlsqp.newton import q_solve


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--delta", type=float, default=1e-3)
    ap.add_argument("--j", default="1,2")
    ap.add_argument("--a", default="0.6,0.8")
    ap.add_argument("--p", type=int, default=1)
    ap.add_argument("--points", type=int, default=201)
    ap.add_argument("--eps", type=float, default=0.3)
    ap.add_argument("--n-radius", type=int, default=6)
    ap.add_argument("--j-radius", type=int, default=3)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    js = [int(x) for x in args.j.split(",")]
    amps = [float(x) for x in args.a.split(",")]
    spec = make_spec(d=1, b=len(js), p=args.p, delta=args.delta, j_list=js,
                     amplitudes=amps)
    omega1 = q_solve(linear_solution(spec)[0], spec)
    grid = np.linspace(-0.5, 0.5, args.points)
    scan = theta_spectrum_scan(seed_symbols(spec), omega1, spec,
                               Box(args.n_radius, args.j_radius), grid, eps=args.eps)
    print(f"grid points: {len(scan.points)}, threshold delta^-(1+eps) = "
          f"{scan.threshold:.3e}")
    print(f"bad fraction: {scan.bad_fraction:.4f}, bad measure: "
          f"{scan.bad_measure:.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("theta,theta_int,theta_frac,norm,ok,restricted\n")
            for p in scan.points:
                fh.write(f"{p.theta!r},{p.theta_int},{p.theta_frac!r},"
                         f"{p.norm!r},{int(p.ok)},{int(p.restricted)}\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
