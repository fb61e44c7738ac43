"""simplexion benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload random-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else.  A run sets up its inputs three times
(setup_s is the import time plus the median round), then repeats passes over
the workload's request list for --seconds, checking every output.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json; with --trace 1
it runs each pass traced and then untraced on the same inputs, checks the
outputs are byte-identical, and prints the per-layer metrics.  The last
stdout line is the result; the line before it records the environment.
See NOTES.md for the workloads and the metric mapping.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from time import perf_counter, perf_counter_ns

import checks
import workloads
from tracer import COUNTERS, LAYERS, MAX_COUNTS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
SETUP_ROUNDS = 3
COMMANDS = ("generate", "analyze", "verify", "spectra", "random")


def cap_blas_threads():
    """At most NPROC BLAS threads; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= NPROC:
            os.environ[var] = str(NPROC)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "simplexion", "cli.py")):
        sys.exit(f"perfbench: no simplexion sources under {src}")
    sys.path.insert(0, src)
    import simplexion.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: simplexion imported from {cli.__file__}, not {src}")
    return cli


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):  # show_config's layout is not a stable API
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": NPROC, "cpu": cpu, "seed": seed}


def execute(call, req):
    """One request: (exit code, ns, stdout, bytes of its -o file or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, ns = call(req["argv"])
    out_bytes = None
    if "out" in req:
        with open(req["out"], "rb") as fh:
            out_bytes = fh.read()
    return code, ns, out.getvalue(), out_bytes


class Pass:
    """Timings, check outcomes and outputs of one pass over a request list."""

    def __init__(self, requests, call):
        self.ns = 0
        self.cmd_ns = Counter()
        self.verify_ns = []
        self.statuses = Counter()
        self.requested = 0  # verify checks asked for
        self.failed = 0
        self.problems = []
        self.outputs = []
        for req in requests:
            code, ns, out, out_bytes = execute(call, req)
            self.ns += ns
            self.cmd_ns[req["argv"][0]] += ns
            failed, problems, statuses = checks.check(req, code, out, out_bytes)
            if req["argv"][0] == "verify":
                self.verify_ns.append(ns)
                self.requested += len(req["suites"])
                self.statuses.update(s.split(":")[0] for s in statuses)
            self.failed += failed
            self.problems += problems
            self.outputs.append((out, out_bytes))
        self.attempted = len(requests)
        self.checks_run = self.statuses["pass"] + self.statuses["fail"]


def measure(seconds, passes, make_pass):
    """Run passes in turn; start no pass that would end after `seconds`."""
    done = []
    start = perf_counter()
    while True:
        t = perf_counter()
        done.append(make_pass(passes[len(done) % len(passes)]))
        last = perf_counter() - t
        if perf_counter() - start + last > seconds:
            return done


def tail_level(per_pass: int) -> float:
    """The highest percentile that leaves ten samples of one pass above it.
    Below 20 samples a pass has no such percentile; its slowest sample
    stands in, which over many passes sits at this level."""
    return 1 - 10 / per_pass if per_pass >= 20 else 1 - 0.5 / per_pass


def end_to_end(done, setup_s):
    """Latency quantiles are taken over the samples of all passes, at a
    level fixed by the pass size, so they do not move with the pass count."""
    latencies = sorted(ns for p in done for ns in p.verify_ns)
    level = tail_level(len(done[0].verify_ns))
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.ns for p in done) / 1e9,
        "verify_s": statistics.median(p.cmd_ns["verify"] for p in done) / 1e9,
        "verify_p50_ms": statistics.median(latencies) / 1e6,
        "verify_tail_ms": latencies[math.ceil(level * len(latencies)) - 1] / 1e6,
        "checks_run": float(statistics.median(p.checks_run for p in done)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"pass_s": [p.ns / 1e9 for p in done], "verify_samples": len(latencies),
            "verify_tail_level": level,
            "command_s": {c: statistics.median(p.cmd_ns[c] for p in done) / 1e9
                          for c in COMMANDS}}
    return metrics, info


def per_layer(traced, plain, tracer, names):
    s = tracer.summary()
    n = len(traced)
    problems = []
    traced_ns = sum(p.ns for p in traced)
    if sum(s["layer_self"].values()) != s["root"] or s["root"] != traced_ns:
        problems.append(f"self times {sum(s['layer_self'].values())} ns, root spans "
                        f"{s['root']} ns and traced wall {traced_ns} ns differ")
    for t, p in zip(traced, plain):
        for i, (a, b) in enumerate(zip(t.outputs, p.outputs)):
            if a != b:
                problems.append(f"request {i}: traced output differs from untraced")
    # functions never called and counters never hit read zero
    metrics = {name: 0 for name in names if name.endswith(".self_s")}
    metrics.update((key, 0) for key in COUNTERS)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = s["layer_self"][layer] / 1e9 / n
        metrics[f"{layer}.calls"] = s["layer_calls"][layer] / n
    for name, ns in s["fn_self"].items():
        metrics[f"{name}.self_s"] = ns / 1e9 / n
    for key, value in tracer.counts.items():
        metrics[key] = value if key in MAX_COUNTS else value / n
    for suite in workloads.ALL_SUITES:
        metrics[f"verify.{suite}_s"] = s["suite"][suite] / 1e9 / n
    metrics["verify.skipped_work_s"] = s["skipped"] / 1e9 / n
    metrics["trace.wall_s"] = s["root"] / 1e9 / n
    metrics["trace.overhead_share"] = traced_ns / sum(p.ns for p in plain) - 1
    for cmd in COMMANDS:
        metrics[f"{cmd}_s"] = sum(p.cmd_ns[cmd] for p in traced) / 1e9 / n
    statuses = sum((p.statuses for p in traced), Counter())
    metrics["failed_share"] = sum(p.failed for p in traced) / sum(p.attempted for p in traced)
    metrics["skipped_share"] = statuses["skipped"] / max(sum(p.requested for p in traced), 1)
    return metrics, problems


def run(args, spec, cli, import_s, work):
    setup_times = []
    for k in range(SETUP_ROUNDS):
        round_dir = os.path.join(work, f"round{k}")
        os.makedirs(round_dir)
        t = perf_counter()
        warmup, passes = workloads.setup(args.workload, args.seed, round_dir, cli.main)
        code, _, out, out_bytes = execute(plain_call(cli), warmup)
        setup_times.append(perf_counter() - t)
        if checks.check(warmup, code, out, out_bytes)[0]:
            raise RuntimeError(f"warm-up request failed: {warmup['argv']}")
    setup_s = import_s + statistics.median(setup_times)

    if not args.trace:
        done = measure(args.seconds, passes, lambda reqs: Pass(reqs, plain_call(cli)))
        metrics, info = end_to_end(done, setup_s)
        problems = [p for d in done for p in d.problems]
    else:
        tracer = Tracer()
        traced, plain = [], []

        def pair(reqs):
            tracer.install()
            try:
                traced.append(Pass(reqs, lambda argv: tracer.root(cli.main, argv)))
            finally:
                tracer.uninstall()
            plain.append(Pass(reqs, plain_call(cli)))

        done = measure(args.seconds, passes, pair)
        metrics, problems = per_layer(traced, plain, tracer,
                                      [m["name"] for m in spec["per_layer"]])
        problems += [p for d in traced + plain for p in d.problems]
        done = traced + plain
        spans = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}.jsonl")
        tracer.write(spans)
        info = {"pass_s": [[t.ns / 1e9, p.ns / 1e9] for t, p in zip(traced, plain)],
                "spans": len(tracer.spans),
                "spans_file": os.path.relpath(spans, ROOT)}
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    info.update(import_s=import_s, setup_rounds_s=setup_times, attempted=attempted,
                failed=failed, problems=problems[:20])
    return metrics, info, attempted, failed, not problems


def plain_call(cli):
    def call(argv):
        t = perf_counter_ns()
        code = cli.main(argv)
        return code, perf_counter_ns() - t
    return call


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    cap_blas_threads()
    t = perf_counter()
    cli = import_program()
    import_s = perf_counter() - t
    env = environment(args.seed)

    work = os.path.join(ROOT, ".bench_out", f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        metrics, info, attempted, failed, correct = run(args, spec, cli, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    for problem in info["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"info": {"workload": args.workload, "seconds": args.seconds,
                               "trace": args.trace, **env, **info}}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
