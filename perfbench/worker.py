"""One workload's jobs, run in a fresh interpreter through ``rtgmi.cli.main``.

Started by run.py; not meant to be run by hand.  It imports rtgmi from the
checkout's ``src``, prints ``ready`` and the CPU seconds it has used once
set-up is done, then runs passes over the workload's job panel for
the given number of seconds, checks the outputs and prints one JSON line.
Between jobs it samples the reference kernel (reference.py), and each job's
record carries the mean of the samples taken just before and after it.
With ``--trace 1`` passes alternate between untraced and traced, and the
spans of the traced passes are written to ``--spans``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict

import tracing
from reference import NOMINAL_S, Reference
from workloads import WORKLOADS, Oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _digest(directory):
    """Hash of every output file's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_job(cli, argvs, out_dir):
    """Run one job's CLI calls; return (problem or None, out dirs)."""
    dirs = []
    for i, argv in enumerate(argvs):
        d = os.path.join(out_dir, str(i))
        os.makedirs(d)  # a fresh directory, so the digest sees only this call
        dirs.append(d)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--output-dir", d])
        if code != 0:
            return f"{argv[0]} exited with {code}", dirs
    return None, dirs


class HostSpeed:
    """Reference samples between jobs; a job gets the mean of the samples
    taken just before and just after it."""

    SHARE = 0.05  # reference time per job, as a share of the job's time

    def __init__(self, reference):
        self._reference = reference
        self.first = self._last = reference.sample(2)

    def around(self, job_cpu):
        before = self._last
        self._last = self._reference.sample(
            max(2, round(self.SHARE * job_cpu / NOMINAL_S)))
        return (before + self._last) / 2


def run_pass(cli, jobs, tmp, index, tracer, speed):
    records = []
    for j, (seed, argvs) in enumerate(jobs):
        out_dir = os.path.join(tmp, f"pass{index}", f"job{j}")
        argvs = [a + ["--seed", str(seed)] for a in argvs]
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            if tracer is None:
                problem, dirs = run_job(cli, argvs, out_dir)
            else:
                with tracer.job_span(j):
                    problem, dirs = run_job(cli, argvs, out_dir)
        except Exception:
            traceback.print_exc()
            problem, dirs = "raised " + traceback.format_exc(limit=0).strip(), []
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        ref = speed.around(cpu)
        outputs = [_digest(d) for d in dirs] if problem is None else []
        records.append({"wall_s": wall, "cpu_s": cpu, "ref_s": ref,
                        "problem": problem,
                        "argvs": argvs, "dirs": dirs,
                        "digests": [o[0] for o in outputs],
                        "bytes": sum(o[1] for o in outputs)})
    return records


def check_outputs(workload, rec, oracles):
    """The workload's checks on one job's reports; a list of problems."""
    try:
        reports = []
        for d in rec["dirs"]:
            with open(os.path.join(d, "report.json")) as fh:
                reports.append(json.load(fh))
        return workload.check(rec["argvs"], reports, oracles)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"report unreadable by the checks: {exc!r}"]


def judge(passes, workload, oracles):
    """Check the first pass's outputs; later passes must repeat them exactly.

    Returns the number of failed jobs and one line per failure."""
    first = passes[0][0]
    for rec in first:
        if rec["problem"] is None:
            rec["problem"] = "; ".join(check_outputs(workload, rec, oracles)) or None
    failed, problems = 0, []
    for records, _ in passes:
        for j, rec in enumerate(records):
            if rec["problem"] is None:
                if rec["digests"] != first[j]["digests"]:
                    rec["problem"] = "outputs differ from the first pass"
                else:
                    rec["problem"] = first[j]["problem"]
            if rec["problem"] is not None:
                failed += 1
                problems.append(f"job {j} seed {rec['argvs'][0][-1]}: {rec['problem']}")
    return failed, problems


def layer_metrics(traced_passes):
    """Per-layer numbers from the traced passes: counts from the first (all
    traced passes must agree), times as the median over passes."""
    per_pass = []
    for records, tracer in traced_passes:
        totals = tracing.layer_totals(tracer.spans)
        totals["simulate.sizing_s"] = tracing.sizing_seconds(tracer.spans)
        totals["cli.report_bytes"] = sum(r["bytes"] for r in records)
        per_pass.append(totals)
    keys = sorted(set().union(*per_pass))
    out = {}
    consistent = True
    for key in keys:
        values = [p.get(key, 0) for p in per_pass]
        if key.endswith("_s"):
            out[key] = statistics.median(values)
        else:
            out[key] = values[0]
            consistent = consistent and all(v == values[0] for v in values)
    out["simulate.self_s"] = out.pop("simulate.busy_s", 0.0)
    out["cli.self_s"] = out.pop("cli.busy_s", 0.0)
    for name in tracing.METRICS:
        out.setdefault(name, 0)
    return out, consistent


def environment(threads):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": os.cpu_count(), "threads": threads}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import rtgmi
    import rtgmi.cli as cli
    if os.path.dirname(os.path.abspath(rtgmi.__file__)) != os.path.join(SRC, "rtgmi"):
        print(f"rtgmi imported from {rtgmi.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed, args.smoke)
    os.makedirs(args.tmp, exist_ok=True)
    # process_time counts from process start, so this is the whole set-up
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0
    with Reference() as reference:
        return run(args, rtgmi, cli, workload, jobs, HostSpeed(reference))


def run(args, rtgmi, cli, workload, jobs, speed):
    """Timed passes for ``args.seconds``, then the checks; prints the result."""
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < 2 or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        tracer = tracing.Tracer() if args.trace and len(passes) % 2 else None
        if tracer is None:
            records = run_pass(cli, jobs, args.tmp, len(passes), None, speed)
        else:
            with tracer.installed():
                records = run_pass(cli, jobs, args.tmp, len(passes), tracer,
                                   speed)
        passes.append((records, tracer))
        last = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = judge(passes, workload, Oracles(rtgmi))

    untraced = [p for p in passes if p[1] is None]
    traced = [p for p in passes if p[1] is not None]
    result = {
        "walls": [r["wall_s"] for records, _ in untraced for r in records],
        "cpus": [r["cpu_s"] for records, _ in untraced for r in records],
        "refs": [r["ref_s"] for records, _ in untraced for r in records],
        "setup_ref_s": speed.first,
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "attempted": sum(len(records) for records, _ in passes),
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(os.environ.get("OMP_NUM_THREADS", "unset")),
    }
    if traced:
        layers, consistent = layer_metrics(traced)
        pass_wall = [sum(r["wall_s"] for r in records) for records, _ in traced]
        plain_wall = [sum(r["wall_s"] for r in records) for records, _ in untraced]
        layers["trace.wall_s"] = statistics.median(pass_wall)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(plain_wall)
        result["layers"] = layers
        if not consistent:
            result["problems"].append("traced passes disagree on a layer count")
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump([{"pass": i, "spans": [asdict(s) for s in t.spans]}
                           for i, (_, t) in enumerate(traced)], fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
