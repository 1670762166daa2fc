#!/usr/bin/env python3
"""Repo benchmark: closed-loop workloads over the public container API.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/bench.cpp against ../src (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs the workload in its own process, checks its outputs and
prints a report. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, from a LLXSCX_COUNT_STEPS=OFF build. With
--trace 1 the run is split in two halves: an untraced half (OFF build) and
a traced half (COUNT_STEPS=ON build, spans + step counters), and the
metrics are the per-layer ones plus the tracing overhead between the two.

A workload process that dies is that workload's failure: every operation
it attempted counts as failed and the benchmark itself still exits 0.
See perfbench/README.md for the workloads and the metric map.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("tree-zipf-point", "hash-churn", "tree-scan")
SETUP_REPS = 3
# Fields of the child's BUILD line that describe the workload, not the build.
WORKLOAD_KEYS = ("engine", "shards", "key_space", "live", "zipf_theta",
                 "threads", "mix_percent", "setup")
# Every workload process of one run must end within this many seconds
# after the build; a process still running then is killed and fails.
RUN_TIMEOUT_S = 165


# --- build ---------------------------------------------------------------------

def build(count_steps):
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    bdir = out / ("perfbench-steps-" + ("on" if count_steps else "off"))
    binary = bdir / "perfbench"
    cmds = []
    if not (bdir / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DPERFBENCH_COUNT_STEPS=" + ("ON" if count_steps else "OFF")])
    cmds.append(["cmake", "--build", str(bdir), "-j", "2"])
    for cmd in cmds:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            print(p.stdout[-4000:], p.stderr[-4000:], file=sys.stderr)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    if not binary.exists():
        sys.exit(f"perfbench: build produced no {binary}")
    return binary


def host_stamp(build_stamp):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    git = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    # The benchmark may run from an exported tree with no git metadata, so
    # the sources it compiled are also stamped by content.
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, **build_stamp,
            "git_sha": git.stdout.strip() if git and git.returncode == 0 else "none (not a git checkout)",
            "src_sha256": h.hexdigest()[:16]}


# --- one workload process ----------------------------------------------------------

def run_child(binary, workload, seed, seconds, trace, setup_reps, deadline, spans=None):
    """Runs one workload process.

    Returns (result or None, build stamp, operations attempted, error or None).
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--setup-reps", str(setup_reps)]
    if spans:
        cmd += ["--spans", str(spans)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        p.kill()
        stdout, _ = p.communicate()
    attempted, phase, result, stamp = 0, "start", None, {}
    for line in stdout.splitlines():
        if line.startswith("BUILD "):
            stamp = json.loads(line[len("BUILD "):])
        elif line.startswith("PHASE "):
            _, phase, ops = line.split()
            attempted += int(ops)
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if p.returncode == 0 and result is not None:
        return {**stamp, **result}, stamp, attempted, None
    if p.returncode < 0:
        why = f"killed by {signal.Signals(-p.returncode).name}"
    else:
        why = f"exit code {p.returncode}"
    return None, stamp, attempted, f"workload process {why} during {phase}"


def checks(r):
    """Output checks; returns a list of failures (empty = correct)."""
    bad = []
    if r["scan_bad"]:
        bad.append(f"{r['scan_bad']:.0f} scan windows not ascending / outside [lo, lo+100) / over limit / wrong value")
    if r["setup_keys"] != r["initial_size"]:
        bad.append(f"setup loaded {r['setup_keys']:.0f} keys but size() = {r['initial_size']:.0f}")
    if r["final_size"] != r["expected_size"]:
        bad.append(f"size() = {r['final_size']:.0f}, expected initial + inserts - erases = {r['expected_size']:.0f}")
    if r["outstanding_after_drain"]:
        bad.append(f"{r['outstanding_after_drain']:.0f} records still in limbo after drain")
    return bad


def attempted_ops(r):
    return int(sum(r["ops"].values()))


def throughput(r):
    """Median over the run's windows of operations per second.

    The timed phase is cut into windows (0.5 s each in a 10 s run), so a few
    seconds of outside load on a shared host move the figure less.
    """
    w = r["windows"]
    return statistics.median(n / t for n, t in zip(w["ops"], w["seconds"]))


def latency(r, kind):
    """(p50, p99, samples) of an op kind: medians over the run's windows."""
    w = r["windows"][kind]
    return statistics.median(w["p50"]), statistics.median(w["p99"]), int(sum(w["n"]))


# --- metrics ---------------------------------------------------------------------------

def end_to_end(r):
    """The end-to-end metrics of BENCHMARK.json: (name, value, unit).

    The p99 latencies are printed in the report but not returned: across ten
    runs their spread reached 0.23 on the host the benchmark was defined on,
    too close to the largest bound a metric may have.
    """
    return [
        ("throughput_ops_s", throughput(r), "1/s"),
        ("query_p50_ns", latency(r, "scan" if r["ops"]["scan"] else "read")[0], "ns"),
        ("update_p50_ns", latency(r, "update")[0], "ns"),
        ("setup_s", statistics.median(r["setup_s"]), "s"),
        ("peak_rss_mb", r["peak_rss_kb"] / 1024.0, "MB"),
    ]


def per_op(num, den):
    return num / den if den else 0.0


def per_layer(r, untraced):
    """The per-layer metrics of BENCHMARK.json: (name, value, unit).

    Times are the mean of the middle half of the sampled spans. `query` is
    the workload's read-only operation, as in end_to_end; the report prints
    it under its own name (service.read_ns, service.scan_ns, ds.read_ns).
    """
    ops = r["ops"]
    n_ops = attempted_ops(r)
    updates = ops["insert"] + ops["erase"]
    committed = r["ok"]["insert"] + r["ok"]["erase"]
    st = r["steps"]
    tot = {k: sum(s[k] for s in st.values()) for k in st["read"]}
    upd = {k: st["insert"][k] + st["erase"][k] for k in st["read"]}
    span = r["span_ns"]
    eng = r["engine_ns"]
    sharded = r["shards"] > 0
    setup_s = statistics.median(r["setup_s"])
    query = "scan" if ops["scan"] else "read"
    return [
        ("service.route_ns", span.get("service.route", 0.0), "ns"),
        ("service.query_ns", span.get(f"service.{query}", 0.0), "ns"),
        ("service.update_ns", span.get("service.update", 0.0), "ns"),
        ("service.scan_shards_hit", per_op(r["sampled_scan_shards"], r["sampled_scans"]), "count"),
        ("service.shard_skew", r["shard_skew"], "ratio"),
        ("ds.query_ns", eng.get(query, 0.0), "ns"),
        ("ds.insert_ns", eng.get("insert", 0.0), "ns"),
        ("ds.erase_ns", eng.get("erase", 0.0), "ns"),
        ("ds.update_success_ratio", per_op(committed, updates), "ratio"),
        ("ds.scan_keys_per_op", per_op(r["scan_keys"], ops["scan"]), "count"),
        ("ds.size_drift", per_op(abs(r["final_size"] - r["initial_size"]), r["initial_size"]), "ratio"),
        ("ds.bulk_keys_per_s", per_op(r["setup_keys"], setup_s) if sharded else 0.0, "keys/s"),
        ("llxscx.llx_per_op", per_op(tot["llx"], n_ops), "count"),
        ("llxscx.llx_fail_ratio", per_op(tot["llx_fail"], tot["llx"]), "ratio"),
        ("llxscx.scx_per_update", per_op(upd["scx"], updates), "count"),
        ("llxscx.scx_fail_ratio", per_op(tot["scx_fail"], tot["scx"]), "ratio"),
        ("llxscx.helps_per_op", per_op(tot["helps"], n_ops), "count"),
        ("llxscx.cas_per_op", per_op(tot["cas"], n_ops), "count"),
        ("llxscx.allocs_per_op", per_op(tot["allocs"], n_ops), "count"),
        ("llxscx.reads_per_op", per_op(tot["reads"], n_ops), "count"),
        ("reclaim.guard_ns", span.get("reclaim.guard", 0.0), "ns"),
        ("reclaim.retires_per_op", per_op(r["retires"], n_ops), "count"),
        ("reclaim.frees_per_op", per_op(r["frees"], n_ops), "count"),
        ("reclaim.limbo_peak", r["limbo_peak"], "count"),
        ("reclaim.live_bytes_per_update", per_op(r["malloc_delta_bytes"], committed), "B"),
        ("harness.gen_ns", span.get("harness.gen", 0.0), "ns"),
        ("harness.clock_ns", r["clock_ns"], "ns"),
        ("harness.trace_overhead", 1.0 - throughput(r) / throughput(untraced), "ratio"),
    ]


# --- one workload, end to end --------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    """Returns (correct, attempted, failed, [(metric, value, unit)])."""
    off = build(False)
    on = build(True) if trace else None
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        untraced, stamp, attempted, err = run_child(off, name, seed, seconds / 2,
                                                    False, 1, deadline)
        if err is None:
            r, stamp, att_t, err = run_child(on, name, seed, seconds / 2, True, 1, deadline,
                                             off.parent.parent / f"spans-{name}.csv")
            attempted += att_t
    else:
        r, stamp, attempted, err = run_child(off, name, seed, seconds, False,
                                             SETUP_REPS, deadline)

    print(f"== perfbench {name}  seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("   closed loop, one process per run: " + json.dumps(
        {k: stamp.get(k) for k in WORKLOAD_KEYS}))
    print("   host: " + json.dumps(host_stamp(
        {k: v for k, v in stamp.items() if k not in WORKLOAD_KEYS})))
    if err is not None:
        attempted = max(attempted, 1)
        print(f"   FAILED: {err}")
        print(f"   error_ratio              1  ({attempted} of {attempted} attempted operations failed)")
        return False, attempted, attempted, []

    bad = checks(r) + (checks(untraced) if trace else [])
    attempted = attempted_ops(r) + (attempted_ops(untraced) if trace else 0)
    failed = attempted if bad else int(r["scan_bad"] + (untraced["scan_bad"] if trace else 0))
    if trace:
        print(f"   traced half: {r['spans']:.0f} spans (1 op in 32) -> {r.get('spans_file', '')}")
        print(f"   untraced half: {throughput(untraced):.1f} ops/s, traced half: {throughput(r):.1f} ops/s")
        metrics = per_layer(r, untraced)
        query = "scan" if r["ops"]["scan"] else "read"
        for m, v, unit in metrics:
            print(f"   {m.replace('query', query):30s} {v:.6g} {unit}")
        if not r["shards"]:
            print(f"   {'ds.fill_keys_per_s':30s} {r['setup_keys'] / r['setup_s'][0]:.6g} keys/s")
        print("   ds.*_ns on the sharded map = service span - route - guard (engine spans need in-program tracing)")
    else:
        metrics = end_to_end(r)
        e2e = {m: v for m, v, _ in metrics}
        print(f"   medians over {len(r['windows']['ops'])} windows; "
              f"whole run: {attempted_ops(r) / r['elapsed_s']:.1f} ops/s")
        print(f"   {'throughput_ops_s':22s} {e2e['throughput_ops_s']:.1f} 1/s")
        for kind in ("read", "update", "scan"):
            p50, p99, n = latency(r, kind)
            for pct, v in (("p50", p50), ("p99", p99)):
                name = f"{kind}_{pct}_ns"
                print(f"   {name:22s} {v:.1f} ns  (n={n})" if n else
                      f"   {name:22s} n/a (no {kind}s in this mix)")
        print(f"   {'setup_s':22s} {e2e['setup_s']:.4f} s  (median of {len(r['setup_s'])})")
        print(f"   {'peak_rss_mb':22s} {e2e['peak_rss_mb']:.1f} MB")
        print(f"   {'error_ratio':22s} {per_op(failed, attempted):.6g}  ({failed} of {attempted} failed)")
    print("   checks: " + ("; ".join(bad) if bad else
                           "scan windows ok; size() = initial + inserts - erases; limbo drained to 0"))
    return not bad, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        c, at, f, ms = run_workload(name, a.seed, a.seconds, bool(a.trace))
        correct, attempted, failed = correct and c, attempted + at, failed + f
        for m, v, unit in ms:
            metrics[m if len(names) == 1 else f"{name}.{m}"] = {"value": v, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
