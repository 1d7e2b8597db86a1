"""Benchmark of the speclat CLI: end-to-end job metrics and traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 5     # every workload

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (job lists in ``gen.py``):

  exact-bn       exact b_N by charpoly + CRT, divisor checks, padic
  moment-series  folded big-int moment sweeps and Fraction series
  torus-float    float character values, spectra, Mahler limits, walks
  cli-cache      48 short jobs over all commands, run cold then warm
                 against an empty --cache-dir

Each workload runs in its own child process (``child.py``), which calls
``speclat.cli.main(argv)`` in process, one job at a time, with
OMP_NUM_THREADS=1.  Set-up is timed separately in fresh interpreters.
The number of passes is fixed from ``--seconds`` and the workload's
nominal pass time on a 2-core x86 box, so both sides of a comparison do
the same work.  Every reported time is scaled to the reference box's
nominal speed by calibration kernels run between jobs (``calib.py``); the
unscaled wall and set-up times are printed above the JSON line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
  wall_s       median time of one pass over the job list
  job_p50_s    median per-job latency
  job_tail_s   per-job latency at the highest percentile with at least
               ten samples beyond it (percentile and count printed above)
  setup_s      median, over seven fresh interpreters, of the time from
               process start to ``import speclat.cli`` and the configs
               loaded
  peak_rss_mb  peak resident memory of the workload process
The failure fraction (jobs exiting nonzero or failing the output check,
over jobs attempted) is printed above and carried by the ``failed`` and
``attempted`` fields.  With ``--trace 1`` half the passes run untraced and
half traced, and the last line reports the per-layer metrics of
``PER_LAYER`` plus ``trace.overhead_frac``.

``--write-reference`` rewrites ``reference.json``, the output digests for
the default seed (run it only on a commit whose outputs are trusted).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
from check import DEFAULT_SEED  # noqa: E402

NOMINAL_PASS_S = {"exact-bn": 1.8, "moment-series": 1.4, "torus-float": 1.55, "cli-cache": 0.45}
MIN_PASSES = 3
SETUP_PROBES = 6
DEADLINE_S = 170

# per-layer metrics (name, unit), each given per traced pass; the last,
# trace.overhead_frac, compares traced with untraced passes
PER_LAYER = [
    ("lattice.difference_lattice.calls", "count"),
    ("lattice.difference_lattice.self_s", "s"),
    ("laurent.diffraction_polynomial.calls", "count"),
    ("laurent.diffraction_polynomial.self_s", "s"),
    ("specpoly.spectral_polynomial.calls", "count"),
    ("specpoly.charpoly_exact.self_s", "s"),
    ("specpoly.convolution_matrix.self_s", "s"),
    ("specpoly.charpoly_exact.rows", "count"),
    ("specpoly.coeff_bits", "bits"),
    ("laurent.folded_power_sweep.self_s", "s"),
    ("laurent.folded_power_dense.self_s", "s"),
    ("laurent.cell_updates", "count"),
    ("moments.moment_sequence.self_s", "s"),
    ("moments.moment_sequence_N.self_s", "s"),
    ("moments.check_congruence.self_s", "s"),
    ("moments.series_coefficients.self_s", "s"),
    ("analysis.mahler_measure.limit.self_s", "s"),
    ("analysis.mahler_measure.moment-series.self_s", "s"),
    ("analysis.mahler_measure.torus-quadrature.self_s", "s"),
    ("analysis.hilbert_transform.moment-series.self_s", "s"),
    ("analysis.hilbert_transform.spectrum-average.self_s", "s"),
    ("specpoly.character_values.self_s", "s"),
    ("specpoly.character_values.points", "count"),
    ("analysis.spectrum.self_s", "s"),
    ("graph.build_graph.self_s", "s"),
    ("graph.based_walk_weight_sum.self_s", "s"),
    ("graph.sequences", "count"),
    ("arith.count_points.self_s", "s"),
    ("arith.count_points.tuples", "count"),
    ("cli.main.self_s", "s"),
    ("cli.config.self_s", "s"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.hit_ratio", "ratio"),
    ("cli.cache.load_s", "s"),
    ("cli.cache.store_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.record_bytes", "bytes"),
    *[(f"{layer}.errors", "count") for layer in
      ("lattice", "laurent", "specpoly", "moments", "graph", "arith", "analysis", "cli")],
    ("trace.overhead_frac", "ratio"),
]
SPAN_ALIASES = {"cli.cache.load_s": "cli.cache.load.self_s", "cli.cache.store_s": "cli.cache.store.self_s"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    # set-up is timed with compiled bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, deadline):
    """Start child.py; return (seconds to its 'ready' line, last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples above it (fewer only if there are fewer)."""
    s = sorted(samples)
    beyond = min(10, len(s) - 1)
    idx = len(s) - 1 - beyond
    return s[idx], 100.0 * (idx + 1) / len(s), beyond


def layer_metrics(raw):
    per_pass = []
    for layers, nbytes, speed in zip(raw["layers"], raw["record_bytes"], raw["traced_scale"]):
        row = {}
        for name, _ in PER_LAYER[:-1]:
            row[name] = layers.get(SPAN_ALIASES.get(name, name), 0)
            if name.endswith("_s"):
                row[name] *= speed
        lookups = row["cli.cache.hits"] + row["cli.cache.misses"]
        row["cli.cache.hit_ratio"] = row["cli.cache.hits"] / lookups if lookups else 0.0
        row["cli.record_bytes"] = nbytes
        per_pass.append(row)
    out = {name: statistics.median(r[name] for r in per_pass) for name, _ in PER_LAYER[:-1]}
    out["trace.overhead_frac"] = statistics.median(raw["traced_pass_s"]) / statistics.median(raw["pass_s"]) - 1
    return out


def run_workload(workload, seed, seconds, trace, write_reference=False):
    """Run one workload; returns (metrics {name: (value, unit)}, raw child result)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        manifest = gen.write_inputs(workdir, workload, seed)
        manifest["workdir"] = workdir
        manifest["cache_root"] = os.path.join(workdir, "cache")
        mpath = os.path.join(workdir, "manifest.json")
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)

        def timed_setup(args):
            """(set-up seconds, mean kernel seconds around it), and the last line."""
            before = calib.kernel_s("setup", workdir)
            setup, line = run_child(args, deadline)
            return (setup, (before + calib.kernel_s("setup", workdir)) / 2), line

        run_child([mpath, "--setup-only"], deadline)  # fills the bytecode cache
        setups = [timed_setup([mpath, "--setup-only"])[0] for _ in range(SETUP_PROBES)]

        nominal = NOMINAL_PASS_S[workload]
        if trace:
            n = max(MIN_PASSES, round(seconds / 2 / nominal))
            extra = ["--passes", str(n), "--traced-passes", str(n)]
        else:
            extra = ["--passes", str(max(MIN_PASSES, round(seconds / nominal)))]
        digests = os.path.join(workdir, "digests.json")
        if write_reference:
            extra += ["--write-reference", digests]
        else:
            extra += ["--reference", os.path.join(HERE, "reference.json")]
        setup, line = timed_setup([mpath, *extra])
        setups.append(setup)
        raw = json.loads(line)
        if write_reference:
            with open(digests) as fh:
                raw["digests"] = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    raw["speed_note"] = (
        f"times scaled to the reference speed: unscaled wall_s {statistics.median(raw['raw_pass_s']):.4g} s, "
        f"setup_s {statistics.median(s for s, _ in setups):.4g} s")
    if trace:
        units = dict(PER_LAYER)
        metrics = {k: (v, units[k]) for k, v in layer_metrics(raw).items()}
    else:
        value, pct, beyond = tail(raw["job_s"])
        raw["tail_note"] = f"job_tail_s at p{pct:.1f} of {len(raw['job_s'])} samples, {beyond} beyond"
        ref = calib.REFERENCE_S["setup"]
        metrics = {
            "wall_s": (statistics.median(raw["pass_s"]), "s"),
            "job_p50_s": (statistics.median(raw["job_s"]), "s"),
            "job_tail_s": (value, "s"),
            "setup_s": (statistics.median(s * ref / k for s, k in setups), "s"),
            "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
        }
    return metrics, raw


def report(workload, metrics, raw):
    for name, (value, unit) in metrics.items():
        print(f"{workload:14s} {name:52s} {value:14.6g} {unit}")
    fail_frac = raw["failed"] / max(raw["attempted"], 1)
    print(f"{workload:14s} {'fail_frac':52s} {fail_frac:14.6g} ratio"
          f"  ({raw['failed']} of {raw['attempted']} jobs)")
    for key in ("tail_note", "speed_note"):
        if key in raw:
            print(f"{workload:14s} {raw[key]}")
    for note in raw["notes"]:
        print(f"{workload:14s} FAIL {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run still stops its workload process (run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "speclat", "cli.py")):
        print("perfbench: no speclat sources under src/; run from a source checkout", file=sys.stderr)
        return 2
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference and (args.seed != DEFAULT_SEED or args.workload != "all"):
        print("perfbench: --write-reference needs --workload all and the default seed", file=sys.stderr)
        return 2

    results = {}
    for workload in workloads:
        try:
            metrics, raw = run_workload(workload, args.seed, args.seconds, args.trace, args.write_reference)
        except (BenchError, OSError, ValueError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, metrics, raw)
        results[workload] = (metrics, raw)
    if args.write_reference:
        with open(os.path.join(HERE, "reference.json"), "w") as fh:
            json.dump({wl: raw["digests"] for wl, (_, raw) in results.items()}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    prefix = len(workloads) > 1
    attempted = sum(raw["attempted"] for _, raw in results.values())
    failed = sum(raw["failed"] for _, raw in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{wl}.{name}" if prefix else name): {"value": value, "unit": unit}
            for wl, (metrics, _) in results.items()
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
