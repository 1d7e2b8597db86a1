"""One workload process of the speclat benchmark.

    python3 perfbench/child.py MANIFEST [--setup-only]
        [--passes N] [--traced-passes N] [--reference FILE]

Imports ``speclat.cli``, loads the job configs and prints ``ready``; that
is the point the parent process times as set-up.  Then it runs one
warm-up pass, whose outputs are checked, and the measured passes, calling
``speclat.cli.main(argv)`` in process with stdout captured: one client, one
job at a time, no threads.  Runs of the workload's calibration kernel
(``calib.py``) between jobs scale each latency to the reference speed.
With ``--traced-passes`` the layer wrappers of ``spans.py`` are installed
after the untraced passes.  The last line of stdout is a JSON object with
the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

KERNEL_EVERY_S = 0.2


def run_job(cli, argv):
    """(exit code, stdout text, seconds) of one CLI call.  ``cli.main`` is
    looked up on each call so that the traced run sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), time.perf_counter() - t0


class Workload:
    def __init__(self, manifest, cli):
        self.name = manifest["workload"]
        self.workdir = manifest["workdir"]
        self.jobs = manifest["jobs"]
        self.cli = cli
        self.cache_root = manifest["cache_root"]
        self.cached = manifest["workload"] == "cli-cache"
        self.first = {}  # label -> first output text
        self.bad = set()  # labels whose first output failed a check
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def _record(self, label, code, text):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.notes.append(f"{label}: exit {code}")
        elif label not in self.first:
            self.first[label] = text
        elif text != self.first[label] or label in self.bad:
            self.failed += 1
            if text != self.first[label]:
                self.notes.append(f"{label}: output differs between runs")

    def run_pass(self, number):
        """Run every job once; returns (raw job latencies, the same scaled
        to the reference speed, stdout bytes).  A cached job's latency is
        that of its cold and warm runs together: split, the median of the
        pooled samples would sit on the boundary between the two.

        The calibration kernel runs before a job whenever KERNEL_EVERY_S
        has passed since its last run, and after the last job.  A job's
        scale is the reference kernel time over the mean of the kernel
        runs just before and just after it, so a change of host speed
        between jobs is followed."""
        import calib

        argvs = []
        for i, job in enumerate(self.jobs):
            if self.cached:
                argv = job["argv"] + ["--cache-dir", os.path.join(self.cache_root, f"{number}-{i}")]
                argvs += [(job["label"], argv)] * 2  # cold, then warm
            else:
                argvs.append((job["label"], job["argv"]))
        kernels = []  # (index of the job it precedes, seconds)
        lats, nbytes, last = [], 0, -KERNEL_EVERY_S
        for i, (label, argv) in enumerate(argvs):
            if time.perf_counter() - last >= KERNEL_EVERY_S:
                kernels.append((i, calib.kernel_s(self.name, self.workdir)))
                last = time.perf_counter()
            code, text, dt = run_job(self.cli, argv)
            lats.append(dt)
            nbytes += len(text)
            self._record(label, code, text)
        kernels.append((len(argvs), calib.kernel_s(self.name, self.workdir)))
        if self.cached:
            shutil.rmtree(self.cache_root, ignore_errors=True)
        ref = calib.REFERENCE_S[self.name]
        scaled, k = [], 0
        for i, dt in enumerate(lats):
            while kernels[k + 1][0] <= i:
                k += 1
            scaled.append(dt * 2 * ref / (kernels[k][1] + kernels[k + 1][1]))
        if self.cached:
            lats, scaled = ([a + b for a, b in zip(x[::2], x[1::2])] for x in (lats, scaled))
        return lats, scaled, nbytes

    def check_first(self, seed, reference):
        """Check each job's first output; failed jobs are marked bad and
        their warm-up executions counted as failed."""
        import check

        for job in self.jobs:
            label = job["label"]
            text = self.first.get(label)
            if text is None:
                continue
            problems = check.bridge_problems(job, text)
            if seed == check.DEFAULT_SEED and reference is not None:
                ref = reference.get(label)
                if ref is None:
                    problems.append("no reference digest")
                else:
                    problems += check.compare_digests(check.digests(job["format"], text), ref)
            if problems:
                self.notes += [f"{label}: {p}" for p in problems]
                self._mark_bad(label)

    def _mark_bad(self, label):
        self.bad.add(label)
        self.failed += 2 if self.cached else 1

    def reference(self):
        import check

        return {job["label"]: check.digests(job["format"], self.first[job["label"]]) for job in self.jobs}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--reference", default=None)
    ap.add_argument("--write-reference", default=None)
    args = ap.parse_args()

    import speclat.cli

    with open(args.manifest) as fh:
        manifest = json.load(fh)
    for job in manifest["jobs"]:
        with open(job["argv"][2]) as fh:
            json.load(fh)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    work = Workload(manifest, speclat.cli)
    work.run_pass("warmup")
    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh).get(manifest["workload"], {})
    work.check_first(manifest["seed"], reference)
    if args.write_reference:
        with open(args.write_reference, "w") as fh:
            json.dump(work.reference(), fh, indent=1, sort_keys=True)

    passes = [work.run_pass(i) for i in range(args.passes)]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced, layers = [], []
    if args.traced_passes:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            for i in range(args.traced_passes):
                traced.append(work.run_pass(f"t{i}"))
                layers.append(tracer.take_pass())
        finally:
            tracer.uninstall()

    print(json.dumps({
        "raw_pass_s": [sum(p[0]) for p in passes],
        "pass_s": [sum(p[1]) for p in passes],
        "job_s": [x for p in passes for x in p[1]],
        "traced_pass_s": [sum(p[1]) for p in traced],
        "traced_scale": [sum(p[1]) / sum(p[0]) for p in traced],
        "record_bytes": [p[2] for p in traced],
        "layers": layers,
        "peak_rss_kb": peak_rss_kb,
        "attempted": work.attempted,
        "failed": work.failed,
        "notes": work.notes[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
