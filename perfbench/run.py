"""rtgmi benchmark: times CLI workloads end to end and, traced, layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each run starts fresh worker interpreters (worker.py) with BLAS and OpenMP
pinned to one thread.  Four of them only set up, two before and two after
the one that runs the workload's jobs through ``rtgmi.cli.main`` for S seconds,
checks the outputs and reports.  Set-up and job times are CPU seconds scaled
by a reference kernel timed next to each of them (reference.py), so that the
host's drifting speed cancels.  With ``--trace 0`` the last line of stdout
is a JSON object with every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric instead, and the spans go to
``.bench_build/perfbench/spans/``.  The raw set-up, job and reference
samples of every run go to ``.bench_build/perfbench/samples/``.  ``--smoke``
runs every workload at tiny sizes in both modes and checks that each metric
BENCHMARK.json names is emitted.  Nothing is written outside
``.bench_build/`` of the checkout.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from reference import NOMINAL_S, Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# set-up-only workers run before and after the job worker, so the set-up
# samples span the whole run
PROBES_BEFORE = 2
PROBES_AFTER = 2
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _start(args, deadline, extra):
    """Start a worker and wait for its ``ready`` line.

    Returns (proc, set-up CPU s, set-up wall s)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", args.tmp] + extra
    if args.smoke:
        cmd.append("--smoke")
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_worker_env())
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.perf_counter(), 0.0))
    words = (proc.stdout.readline() if ready else "").split()
    wall = time.perf_counter() - began
    if len(words) != 2 or words[0] != "ready":
        _stop(proc)
        raise BenchError(f"worker did not set up (exit {proc.returncode})")
    return proc, float(words[1]), wall


def _probe(args, deadline):
    proc, cpu, wall = _start(args, deadline, ["--setup-only"])
    _finish(proc, deadline)
    return cpu, wall


def _stop(proc):
    proc.kill()
    proc.communicate()


def _finish(proc, deadline):
    """Wait for a started worker; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(args):
    """Run one workload; return (result dict, list of human-readable lines)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rtgmi", "__init__.py")):
        raise BenchError(f"no rtgmi sources under {ROOT}/src")
    deadline = time.perf_counter() + TIME_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    for sub in ("spans", "samples"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    spans = os.path.join(BUILD, "spans", name)
    args.tmp = tempfile.mkdtemp(dir=BUILD)
    try:
        with Reference(_worker_env()) as reference:
            setups = [_probe(args, deadline) + (reference.sample(2),)
                      for _ in range(PROBES_BEFORE)]
            proc, cpu, wall = _start(args, deadline, ["--spans", spans])
            worker = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
            setups.append((cpu, wall, worker["setup_ref_s"]))
            setups += [_probe(args, deadline) + (reference.sample(2),)
                       for _ in range(PROBES_AFTER)]
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    with open(os.path.join(BUILD, "samples", name), "w") as fh:
        json.dump({"setups": setups, "worker": worker}, fh)

    setup_s = statistics.median(cpu * NOMINAL_S / ref for cpu, _, ref in setups)
    job_s = [cpu * NOMINAL_S / ref
             for cpu, ref in zip(worker["cpus"], worker["refs"])]
    # samples are pass by pass; each input of the panel weighs the same
    k = worker["jobs_per_pass"]
    panel_s = statistics.mean(statistics.median(job_s[i::k]) for i in range(k))
    refs = [ref for _, _, ref in setups] + worker["refs"]
    env = worker["env"]
    lines = [
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"blas {env['blas']}, threads {env['threads']}, nproc {env['nproc']}, "
        f"cpu {env['cpu']}",
        f"{args.workload} seed {args.seed}: {worker['passes']} passes of "
        f"{worker['jobs_per_pass']} jobs",
        f"  reference     {_summary(refs)}; nominal {NOMINAL_S} s",
        f"  setup_s       {setup_s:.4f} s  (median of {len(setups)}; raw "
        f"{statistics.median(cpu for cpu, _, _ in setups):.4f} s CPU, "
        f"{statistics.median(wall for _, wall, _ in setups):.4f} s wall)",
        f"  job_s         {panel_s:.4f} s  (mean over {k} inputs of their "
        f"medians; all jobs {_summary(job_s)})",
        f"  cpu_s         {_summary(worker['cpus'])}",
        f"  wall_s        {_summary(worker['walls'])}",
        f"  peak_rss_mb   {worker['peak_rss_mb']:.1f} MB",
        f"  failed_ratio  {worker['failed'] / worker['attempted']:.4f}  "
        f"({worker['failed']}/{worker['attempted']})",
    ]
    lines += [f"  problem: {p}" for p in worker["problems"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(worker["layers"].items())}
        lines += [f"  {k:<24} {v['value']:.6g} {v['unit']}"
                  for k, v in metrics.items()]
        lines.append(f"  spans written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": panel_s, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": worker["failed"] == 0 and not worker["problems"],
              "attempted": worker["attempted"], "failed": worker["failed"],
              "metrics": metrics}
    return result, lines


def _summary(values):
    """Median, sample count and quartiles of per-job seconds."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{statistics.median(values):.4f} s  (n={len(values)}, "
            f"q1 {q[0]:.4f}, q3 {q[2]:.4f})")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def smoke():
    """Every workload at tiny sizes, both modes; every named metric present."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload["name"], seed=1,
                                      seconds=0.0, trace=trace, smoke=True)
            result, _ = measure(args)
            got = set(result["metrics"])
            good = result["correct"] and got == wanted[trace]
            ok = ok and good
            print(f"smoke {workload['name']} trace {trace}: "
                  f"{'ok' if good else 'FAIL'}"
                  + ("" if got == wanted[trace] else
                     f" missing {sorted(wanted[trace] - got)}"
                     f" extra {sorted(got - wanted[trace])}"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
