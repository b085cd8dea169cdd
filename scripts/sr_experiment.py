#!/usr/bin/env python3
"""Iteration-count protocol for lifted spectral super-resolution.

Generates a random separated spike train, computes a tight reference for
its Toeplitz-constrained semidefinite program, then compares the identity
parameter against the a-priori block-Hadamard estimates. Seeds whose
smallest spike amplitude is tiny produce near-degenerate instances with
long convergence tails; seed 2 is a representative healthy draw.
"""

import argparse
import csv
import sys

import numpy as np

from proxsplit import (
    StopRule,
    acceleration_gain,
    build_prox_pair,
    gen_sr,
    reference_solve,
    run_drs,
    sr_estimate,
    sr_protocol_params,
)
from proxsplit.tuning import SolutionPair


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50, help="number of samples")
    ap.add_argument("--k", type=int, default=10, help="number of spikes")
    ap.add_argument("--sigma", type=float, default=2.0, help="amplitude scale")
    ap.add_argument("--obs-frac", type=float, default=0.8)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--mse-eps", type=float, default=1e-6)
    ap.add_argument("--max-iters", type=int, default=150_000)
    ap.add_argument("--out", help="optional CSV path for the result table")
    args = ap.parse_args(argv)

    inst = gen_sr(args.n, args.k, args.sigma, args.obs_frac, args.seed)
    pair = build_prox_pair(inst)
    print(f"instance: n={args.n}, k={args.k}, seed={args.seed}, "
          f"min spike amplitude {np.abs(inst.c).min():.3f}")
    ref = reference_solve(pair, sr_estimate(inst.n, inst.k, inst.sigma, "joint"))
    print(f"reference: {ref.iterations} iterations, residual {ref.residual:.2e}, "
          f"converged={ref.converged}")

    sol = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
    params = sr_protocol_params(inst.n, inst.k, inst.sigma)
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
