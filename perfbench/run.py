#!/usr/bin/env python3
"""proxsplit benchmark: time to MSE <= 1e-6 on the acceptance protocols.

    python3 perfbench/run.py --workload bqp-protocol --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process runs one workload as a closed loop: set up once, then repeat the
workload's pass until ``--seconds`` have gone by, checking every output.
``--seed`` draws the order in which a protocol runs its rows; the instances
are the pinned protocol draws (``--instance-seed`` picks another one).

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` plain and traced passes alternate
and it holds the per-layer metrics. Lines before it report every pass, the
metrics by name with units, ``failed_share`` and the environment. A result
file, and with tracing all spans, go to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS and OpenMP must see these before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: set-up is timed once in this process and in SETUP_REPEATS - 1 fresh children
SETUP_REPEATS = 5
#: seconds per repetition of the calibration kernel at nominal speed: its
#: median over 40 s on a 2-vCPU Intel Xeon host (2.1 GHz, numpy 2.4.6,
#: OpenBLAS 0.3.31, one thread), where the benchmark was defined
CAL_NOMINAL_S = 850e-6
CHILD_TIMEOUT_S = 120

#: (name, unit, better) of the metrics printed with ``--trace 0``
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ref_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("iterations", "count", "lower"),
    ("ref_iterations", "count", "lower"),
    ("iters_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the metrics printed with ``--trace 1``
PER_LAYER = (
    ("linalg.eig_hermitian.us", "us", "lower"),
    ("linalg.eig_hermitian.calls", "count", "lower"),
    ("linalg.eig_hermitian.gflops_computed", "GFLOP/s", "higher"),
    ("linalg.psd_rank_frac", "ratio", "lower"),
    ("linalg.project_psd.self_us", "us", "lower"),
    ("linalg.project_toeplitz.calls", "count", "lower"),
    ("linalg.project_toeplitz.iter_share", "ratio", "lower"),
    ("prox.g.self_us", "us", "lower"),
    ("prox.f.self_us", "us", "lower"),
    ("prox.g.calls", "count", "lower"),
    ("prox.f.calls", "count", "lower"),
    ("params.us_per_iter", "us", "lower"),
    ("params.calls_per_iter", "count", "lower"),
    ("splitting.self_us_per_iter", "us", "lower"),
    ("splitting.iter_us.p50", "us", "lower"),
    ("splitting.iter_us.p90", "us", "lower"),
    ("splitting.trace_coverage", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("tuning.select_ms", "ms", "lower"),
    ("problems.gen_ms", "ms", "lower"),
    ("problems.build_pair_us", "us", "lower"),
    ("cli.sweep.parallel_efficiency", "ratio", "higher"),
    ("cli.sweep.max_cell_share", "ratio", "lower"),
    ("cli.sweep.overhead_share", "ratio", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("host.calibration_us", "us", "lower"),
)

#: traced time must match the solver's own iteration clock this closely
COVERAGE_RANGE = (0.95, 1.10)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("bqp-protocol", "sr-protocol", "bqp-sweep"))
    ap.add_argument("--seed", type=int, required=True, help="run seed (row order)")
    ap.add_argument("--seconds", type=float, required=True, help="run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seed", type=int, default=None,
                    help="problem draw; defaults to the pinned protocol seed (BQP 0, SR 2)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Import proxsplit from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "proxsplit" / "__init__.py").is_file():
        sys.exit(f"error: no proxsplit sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import proxsplit
    if Path(proxsplit.__file__).resolve().parent != src / "proxsplit":
        sys.exit(f"error: imported proxsplit from {proxsplit.__file__}, not {src}")


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(load_start):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
            "platform": platform.platform(), "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()), "git_commit": git_commit()}


def child_setup_s(args) -> float:
    """Set-up time of a fresh interpreter running the same workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.instance_seed is not None:
        cmd += ["--instance-seed", str(args.instance_seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(plain, setups, speed, calibrated):
    """End-to-end metrics; times are means over the passes.

    The host's speed drifts by up to 2x over seconds to minutes. A mean
    weighs the slow and fast spells of a run in, and the times named in
    ``calibrated`` are multiplied by ``speed`` (nominal over measured
    calibration time), which divides the drift of the whole run out: they
    read in seconds at the nominal speed of CAL_NOMINAL_S.
    """
    def mean_s(name):
        raw = statistics.fmean([getattr(p, name) for p in plain])
        return raw * speed if name in calibrated else raw

    iterations = median([p.iterations for p in plain])
    solve_s = mean_s("solve_s")
    return {
        "setup_s": median(setups),
        "wall_s": mean_s("wall_s"),
        "ref_s": mean_s("ref_s"),
        "solve_s": solve_s,
        "iterations": iterations,
        "ref_iterations": median([p.ref_iterations for p in plain]),
        "iters_per_s": iterations / solve_s if solve_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sweep_layer(plain, jobs):
    """``cli`` metrics from the plain passes' per-cell busy intervals."""
    eff, max_share, overhead = [], [], []
    for p in plain:
        if not p.cells:
            continue
        busy = sum(hi - lo for lo, hi in p.cells)
        phase = max(hi for _, hi in p.cells) - min(lo for lo, _ in p.cells)
        eff.append(busy / (jobs * phase))
        max_share.append(max(hi - lo for lo, hi in p.cells) / busy)
        overhead.append((p.wall_s - p.ref_s - phase) / p.wall_s)
    return {"cli.sweep.parallel_efficiency": median(eff),
            "cli.sweep.max_cell_share": median(max_share),
            "cli.sweep.overhead_share": median(overhead),
            "cli.artifact_bytes": median([p.artifact_bytes for p in plain])}


def per_layer(spans, plain, traced, windows, jobs):
    """Per-layer metrics from the spans recorded during the traced passes."""
    import numpy as np

    n_traced = len(traced)
    in_w = spans.within(windows)
    dur, self_t = spans.duration, spans.self_time

    def sel(name):
        return in_w & spans.named(name)

    runs = sel("splitting.run_drs")
    run_idx = set(np.flatnonzero(runs).tolist())
    iters = sum(len(ms) for idx, ms in spans.solves if idx in run_idx)
    iter_s = sum(sum(ms) for idx, ms in spans.solves if idx in run_idx) / 1e3
    eig = sel("linalg.eig_hermitian")
    eig_in = in_w[spans.eig_span]
    toep = sel("linalg.project_toeplitz")
    par = in_w & spans.prefixed("params.")
    has_parent = spans.parent >= 0
    under_run = has_parent & runs[np.where(has_parent, spans.parent, 0)]
    tun = spans.prefixed("tuning.")
    top_tun = in_w & tun & ~(has_parent & tun[np.where(has_parent, spans.parent, 0)])
    plain_iter_us = np.concatenate([np.asarray(ms) for p in plain for ms in p.iter_ms]) * 1e3
    m = {
        "linalg.eig_hermitian.us": median(list(dur[eig] * 1e6)),
        "linalg.eig_hermitian.calls": int(eig.sum()) / n_traced,
        "linalg.eig_hermitian.gflops_computed":
            spans.eig_flops[eig_in].sum() / dur[eig].sum() / 1e9 if eig.any() else 0.0,
        "linalg.psd_rank_frac":
            float(np.median(spans.eig_pos[eig_in] / spans.eig_dim[eig_in])) if eig.any() else 0.0,
        "linalg.project_psd.self_us": median(list(self_t[sel("linalg.project_psd")] * 1e6)),
        "linalg.project_toeplitz.calls": int(toep.sum()) / n_traced,
        "linalg.project_toeplitz.iter_share": dur[toep].sum() / iter_s,
        "prox.g.self_us": median(list(self_t[sel("prox.g")] * 1e6)),
        "prox.f.self_us": median(list(self_t[sel("prox.f")] * 1e6)),
        "prox.g.calls": int(sel("prox.g").sum()) / n_traced,
        "prox.f.calls": int(sel("prox.f").sum()) / n_traced,
        "params.us_per_iter": dur[par].sum() / iters * 1e6,
        "params.calls_per_iter": int(par.sum()) / iters,
        "splitting.self_us_per_iter": self_t[runs].sum() / iters * 1e6,
        "splitting.iter_us.p50": float(np.percentile(plain_iter_us, 50)),
        "splitting.iter_us.p90": float(np.percentile(plain_iter_us, 90)),
        "splitting.trace_coverage": (dur[in_w & under_run].sum() + self_t[runs].sum()) / iter_s,
        "trace.overhead_s": (statistics.fmean([p.solve_s for p in traced])
                             - statistics.fmean([p.solve_s for p in plain])),
        "tuning.select_ms": dur[top_tun].sum() / n_traced * 1e3,
        "problems.gen_ms": median(list(dur[spans.named("problems.gen")] * 1e3)),
        "problems.build_pair_us":
            median(list(dur[spans.named("problems.build_prox_pair")] * 1e6)),
    }
    m.update(sweep_layer(plain, jobs))
    # printed, not JSON metrics: the per-call Toeplitz time reads a constant 0
    # on the workloads without Toeplitz calls
    extra = {"linalg.project_toeplitz.us": float(median(list(dur[toep] * 1e6))),
             "splitting.iterations_traced": iters}
    return m, extra


def run(args) -> int:
    import tracer as tracing
    import workloads

    load_start = list(os.getloadavg())
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    cal = workloads.Calibration()
    wl = workloads.make(args.workload, args.instance_seed, args.seed, workdir, cal)
    tr = tracing.Tracer() if args.trace else None
    if tr:
        tr.install()
    wl.setup()
    own_setup = time.perf_counter() - T_START
    if tr:
        tr.uninstall()
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setups = [own_setup]
    if not args.trace:
        setups += [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]

    passes = []
    deadline = time.perf_counter() + args.seconds
    min_passes = 2 if args.trace else 1
    while len(passes) < min_passes or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tr.install()
        t0 = time.perf_counter()
        try:
            res = wl.run_pass()
        finally:
            if traced:
                tr.uninstall()
        passes.append((traced, t0, time.perf_counter(), res))

    attempted = sum(p.attempted for *_, p in passes)
    failed = sum(p.failed for *_, p in passes)
    errors = [e for *_, p in passes for e in p.errors]
    # each later pass is one more operation: it must repeat the first pass's counts
    first = passes[0][3]
    for *_, p in passes[1:]:
        drift = [k for k in first.unit_iters if p.unit_iters.get(k) != first.unit_iters[k]]
        if p.ref_iterations != first.ref_iterations:
            drift.append("reference")
        attempted += 1
        if drift:
            failed += 1
            errors.append(f"iteration counts differ from the first pass: {drift}")

    plain = [p for traced, _, _, p in passes if not traced]
    for i, (traced, _, _, p) in enumerate(passes):
        print(f"# pass {i} {'traced' if traced else 'plain'}: wall_s={p.wall_s:.4f} "
              f"ref_s={p.ref_s:.4f} solve_s={p.solve_s:.4f} iterations={p.iterations} "
              f"ref_iterations={p.ref_iterations} failed={p.failed}/{p.attempted} "
              f"units={json.dumps(p.unit_iters)}")
    for e in errors:
        print(f"# failed: {e}")

    cal_us = statistics.fmean(cal.samples) * 1e6
    speed = CAL_NOMINAL_S * 1e6 / cal_us
    print(f"# calibration: {len(cal.samples)} bursts, {cal_us:.1f} us per repetition, "
          f"speed factor {speed:.4f}, applied to {', '.join(wl.calibrated) or 'nothing'}")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "instance_seed": wl.instance_seed, "seconds": args.seconds,
              "passes": len(passes), "setups_s": setups,
              "calibration_us": cal_us, "speed_factor": speed,
              "raw_means_s": {k: statistics.fmean([getattr(p, k) for p in plain])
                              for k in ("wall_s", "ref_s", "solve_s")}}
    if args.trace:
        spans = tr.spans()
        traced_passes = [p for traced, _, _, p in passes if traced]
        windows = [(t0, t1) for traced, t0, t1, _ in passes if traced]
        values, extra = per_layer(spans, plain, traced_passes, windows,
                                  workloads.SWEEP_JOBS)
        values["host.calibration_us"] = cal_us
        specs = PER_LAYER
        lo, hi = COVERAGE_RANGE
        cov = values["splitting.trace_coverage"]
        result["trace_coverage_ok"] = bool(lo <= cov <= hi)
        if not lo <= cov <= hi:
            print(f"# warning: spans cover {cov:.3f} of the solver's iteration clock")
        OUT.mkdir(parents=True, exist_ok=True)
        spans.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        result["extra"] = extra
        for name, value in extra.items():
            print(f"# {name} = {value!r}")
    else:
        values = end_to_end(plain, setups, speed, wl.calibrated)
        specs = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in specs}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_share = {failed / attempted!r} ({failed}/{attempted})")

    env = environment(load_start)
    print("# env " + json.dumps(env, sort_keys=True))
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    result.update(env=env, errors=errors, failed_share=failed / attempted, **final)
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
