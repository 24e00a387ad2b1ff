#!/usr/bin/env python3
"""Scaling study of the first iteration over a range of couplings.

Prints a table of ||du||, post-step residual, ||dw|| and the inverse norm
per delta, with the fitted log-log slopes at the bottom.  The inverse norm
is that of the seed operator over the whole default box, exact up to
rounding (`linop.box_inverse`).
"""

import argparse

import numpy as np

from nlsqp.lattice import default_box, linear_solution, make_spec
from nlsqp.linop import box_inverse
from nlsqp.newton import first_iteration
from nlsqp.verify import default_weight, weighted_norm


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--deltas", default="1e-2,1e-3,1e-4")
    ap.add_argument("--j", default="1,2", help="comma-separated 1d modes")
    ap.add_argument("--a", default="0.6,0.8", help="amplitudes in (0,1]")
    ap.add_argument("--p", type=int, default=1)
    args = ap.parse_args()

    deltas = [float(x) for x in args.deltas.split(",")]
    js = [int(x) for x in args.j.split(",")]
    amps = [float(x) for x in args.a.split(",")]

    rows = []
    for dl in deltas:
        spec = make_spec(d=1, b=len(js), p=args.p, delta=dl, j_list=js,
                         amplitudes=amps)
        box = default_box(spec)
        w = default_weight(spec)
        state1, mod = first_iteration(spec, box=box)
        u0, v0 = linear_solution(spec)
        du = weighted_norm(state1.u.sub(u0), w)
        inv, _ = box_inverse(u0, v0, spec.omega0(), spec, box, fit_decay=False)
        rows.append((dl, du, state1.residual_weighted,
                     float(np.linalg.norm(mod.delta_omega)), inv))

    print(f"{'delta':>10} {'||du||':>12} {'residual':>12} {'||dw||':>12} {'||inv||':>13}")
    for r in rows:
        print(f"{r[0]:>10.1e} {r[1]:>12.4e} {r[2]:>12.4e} {r[3]:>12.4e} {r[4]:>13.4e}")
    x = np.log([r[0] for r in rows])
    for name, col in (("||du||", 1), ("residual", 2), ("||dw||", 3), ("||inv||", 4)):
        slope = np.polyfit(x, np.log([r[col] for r in rows]), 1)[0]
        print(f"slope of {name}: {slope:+.3f}")


if __name__ == "__main__":
    main()
