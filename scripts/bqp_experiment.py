#!/usr/bin/env python3
"""Iteration-count protocol for the Boolean quadratic relaxation.

Generates one random instance, computes a tight reference solution, then
solves the same problem under every parameter choice (identity, a-priori
estimates, reference-based optima) and tabulates iterations to the MSE
threshold, the speedup over the identity run, and the predicted gain.
"""

import argparse
import csv
import sys

from proxsplit import (
    StopRule,
    acceleration_gain,
    bqp_estimate,
    bqp_protocol_params,
    build_prox_pair,
    gen_bqp,
    reference_solve,
    run_drs,
)
from proxsplit.tuning import SolutionPair


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=40, help="number of unknowns")
    ap.add_argument("--k", type=int, default=50, help="number of measurements")
    ap.add_argument("--sigma-a", type=float, default=0.05)
    ap.add_argument("--sigma-b", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mse-eps", type=float, default=1e-6)
    ap.add_argument("--max-iters", type=int, default=100_000)
    ap.add_argument("--out", help="optional CSV path for the result table")
    args = ap.parse_args(argv)

    inst = gen_bqp(args.n, args.k, args.sigma_a, args.sigma_b, args.seed)
    pair = build_prox_pair(inst)
    print(f"instance: n={args.n}, k={args.k}, seed={args.seed}")
    ref = reference_solve(pair, bqp_estimate(inst.a, inst.b, inst.n))
    print(f"reference: {ref.iterations} iterations, residual {ref.residual:.2e}, "
          f"converged={ref.converged}")

    sol = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
    params = bqp_protocol_params(inst.a, inst.b, inst.n, sol)
    rows = []
    base = None
    for name, param in params.items():
        stop = StopRule(max_iters=args.max_iters, opt_eps=None,
                        mse_eps=args.mse_eps, reference=ref.x_ref)
        _, trace = run_drs(pair, param, pair.zeros(), stop)
        if name == "identity":
            base = trace.iterations
        xi = acceleration_gain(param, sol).xi
        rows.append((name, param.to_config(), trace.iterations,
                     base / trace.iterations, xi, trace.converged))

    print(f"\n{'mode':<12}{'iterations':>12}{'speedup':>10}{'xi':>12}  parameter")
    for name, cfg, iters, speedup, xi, ok in rows:
        flag = "" if ok else "  (hit cap)"
        print(f"{name:<12}{iters:>12}{speedup:>10.1f}{xi:>12.4g}  {cfg}{flag}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mode", "iterations", "speedup", "xi", "converged"])
            for name, _, iters, speedup, xi, ok in rows:
                writer.writerow([name, iters, repr(speedup), repr(xi), ok])
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
