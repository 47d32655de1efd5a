#!/usr/bin/env python3
"""The repository benchmark: one command for the end-to-end and per-layer
metrics of the ccascale simulator on the machine it runs on.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the ccascale library plus the measuring program) into
.bench_build/perfbench in Release mode. --trace 0 (the default) reports the
end-to-end metrics, --trace 1 the per-layer ones. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
the lines before it are the human-readable report. The exit code is 0 only
when every output was correct. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import arith  # noqa: E402  (after the bytecode switch on purpose)

WORKLOADS = ("corescale-bulk", "userscale-churn", "sweep-grid", "fleet-grid")
SIM_WORKLOADS = ("corescale-bulk", "userscale-churn")
GRID_WORKLOADS = ("sweep-grid", "fleet-grid")
DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned: a gain claimed on the
# default seed must be re-checked on this one before it is accepted.
HELD_OUT_SEED = 7919
BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv, run_seconds):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed for gain "
                         "claims: %d)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="how long the untraced run repeats the workload "
                         "(default: run_seconds of BENCHMARK.json, %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def build(root, build_dir):
    """Configures (once) and builds the measuring program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def run_binary(binary, args, work_dir, spans_path):
    # The library reads CCAS_* and REPRO_* overrides from the environment;
    # none of them may change what is measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CCAS_", "REPRO_"))}
    cmd = [str(binary), "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + str(work_dir), "--spans=" + str(spans_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                          timeout=BINARY_TIMEOUT_S, text=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return proc.returncode, records


def result_digest(workload, rep):
    if workload in GRID_WORKLOADS:
        return arith.fold_digests(rep["digests"])
    return rep["digests"][0]


def check_digest_store(store_path, binary, key, digest):
    """Records the digest of (binary, workload key, seed) on first sight and
    compares every later run of the same binary against it. Returns the
    recorded digest."""
    binary_id = hashlib.sha256(Path(binary).read_bytes()).hexdigest()
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(binary_id, {})
    recorded = seen.setdefault(key, digest)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return recorded


def count(rep, key):
    return rep["counts"].get(key, 0.0)


def rep_figures(workload, r):
    """Every host figure of one rep, each defined once. The --trace 0 report
    takes their medians over the reps; the per-layer list takes the traced
    run's untraced rep. A figure that does not apply to the workload is 0."""
    # Sim workloads: rates per second inside the simulation loop. Grids: per
    # second of the rep's wall time (the fleet's results come back from its
    # store without a loop clock).
    clock = r["loop_s"] if workload in SIM_WORKLOADS else r["wall_s"]
    cells = r["cell_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "wall_s": r["wall_s"],
        "setup_s": r["setup_s"],
        "cpu_s": r["cpu_s"],
        "events_per_s": ratio(count(r, "events"), clock),
        "workload.flows_completed_per_s": ratio(count(r, "wl_completed"), clock),
        "sweep.cells_per_s": ratio(count(r, "cells_ok"), r["wall_s"]),
        "sweep.cell_s_p50": arith.percentile(cells, 50) if cells else 0.0,
        # The tail rule picks p90 for the grid's 120 cells.
        "sweep.cell_s_p90": (arith.percentile(cells, arith.tail_percentile(len(cells)))
                             if cells else 0.0),
    }


FIGURE_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "events_per_s": "1/s",
                "workload.flows_completed_per_s": "1/s", "sweep.cells_per_s": "1/s",
                "sweep.cell_s_p50": "s", "sweep.cell_s_p90": "s"}


def summarize_figures(workload, reps):
    """(name, unit, median, q1, q3, samples) of every figure that applies
    to the workload, over the run's untraced reps. peak_rss_mb is the
    high-water mark after the first rep: later reps only add allocator
    growth, which would tie the figure to the rep count."""
    per_rep = [rep_figures(workload, r) for r in reps]
    out = []
    for name, unit in FIGURE_UNITS.items():
        samples = [f[name] for f in per_rep]
        if any(samples):
            out.append((name, unit) + arith.summarize(samples) + (len(samples),))
    out.append(("peak_rss_mb", "MB") + arith.summarize([reps[0]["peak_rss_mb"]]) + (1,))
    return out


def metric_lists(spec):
    """(name, unit) pairs of the end-to-end and per-layer metrics, in
    BENCHMARK.json order: the benchmark's one list of what it reports."""
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def per_layer(workload, untraced, traced, layers, spans):
    c = untraced["counts"]
    wall = untraced["wall_s"]
    events = c.get("events", 0.0)
    pushes = c["pushes_due"] + c["pushes_wheel"] + c["pushes_overflow"]
    offered = c["queue_enqueued"] + c["queue_dropped"]
    window_share = c["measure_events"] / events if events else 0.0
    flows_created = c["fixed_flows"] + c["wl_arrivals"] - c["wl_rejected"]
    cells = c.get("cells_ok", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict(layers)
    m.update(rep_figures(workload, untraced))
    m.update({
        "sim.events": events,
        "sim.wheel_push_frac": ratio(c["pushes_wheel"], pushes),
        "sim.cascades": c["wheel_cascades"],
        "sim.timer_wasted_frac": ratio(c["timer_wasted"], events),
        "sim.allocs_per_event": ratio(c["heap_allocs"], events),
        "net.drop_frac": ratio(c["queue_dropped"], offered),
        "net.impair_drops": c["impair_drops"],
        "net.qdisc_head_drops": c["qdisc_head_drops"],
        "tcp.retx_frac": ratio(c["retransmits"], c["segments_sent"]),
        "sweep.wait_frac": arith.wait_frac(untraced["cpu_s"], wall, untraced["threads"]),
        "sweep.retries": c.get("sweep_retries", 0.0),
        "sweep.failed": c.get("sweep_failed", 0.0),
        "fleet.computed": c.get("fleet_computed", 0.0),
        "fleet.adopted": c.get("fleet_adopted", 0.0),
        "fleet.lost_leases": c.get("fleet_lost_leases", 0.0),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.spans": spans,
    })
    # Computed shares of wall time: probe ns/op x ops the run performed.
    # Queue counts cover the measurement window only, so they are set
    # against the window's share of the run's events.
    m["sim.est_share"] = ratio(m["sim.dispatch_ns"] * 1e-9 * events, wall)
    m["net.est_share"] = ratio(m["net.qdisc_ns"] * 1e-9 * offered, wall * window_share)
    m["harness.est_share"] = ratio(
        (m["harness.flow_create_ns"] + m["harness.flow_recycle_ns"]) * 1e-9 * flows_created, wall)
    m["sweep.est_share"] = ratio(
        (m["sweep.spec_key_ns"] * 1e-6 + m["sweep.cache_store_ms"]
         + m["sweep.manifest_record_ms"]) * 1e-3 * cells, wall)
    m["fleet.est_share"] = ratio(
        (m["fleet.lease_claim_ms"] + m["fleet.lease_release_ms"]) * 1e-3
        * m["fleet.computed"], wall)
    return m


def main(argv):
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec["run_seconds"])
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no ccascale sources under %s/src; run from a source checkout" % root)
        return 2
    out_dir = root / ".bench_build" / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        binary = build(root, root / ".bench_build" / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    work_dir = out_dir / ("work-%s-%d" % (args.workload, os.getpid()))
    spans_path = out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    try:
        code, records = run_binary(binary, args, work_dir, spans_path)
    except subprocess.TimeoutExpired:
        log("perfbench: measuring program exceeded %d s" % BINARY_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    reps = kinds.get("rep", [])
    if code != 0 or "end" not in kinds or not reps:
        log("perfbench: measuring program failed (exit %d)" % code)
        return 1

    fp = kinds["fingerprint"][0]
    print("machine: cpu=%r nproc=%d compiler=%r build=%s loadavg_1m_at_start=%.2f"
          % (fp["cpu_model"], fp["nproc"], fp["compiler"], fp["build_type"], fp["loadavg_1m"]))
    print("workload: %s seed=%d (held-out seed %d) trace=%d"
          % (args.workload, args.seed, HELD_OUT_SEED, args.trace))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    digests = [result_digest(args.workload, r) for r in reps if r["failed"] == 0]
    digest = digests[0] if digests else None
    if any(d != digest for d in digests):
        failed += sum(d != digest for d in digests)
        errors.append("result digests disagree between reps: %s" % sorted(set(digests)))
    if digest is not None:
        # Both grids run the same cells, so they share one recorded digest:
        # the fleet's results must match the executor's.
        key = "%s:%d" % ("grid" if args.workload in GRID_WORKLOADS else args.workload,
                         args.seed)
        recorded = check_digest_store(out_dir / "digests.json", binary, key, digest)
        if recorded != digest:
            failed += 1
            errors.append("result digest %s differs from %s recorded by an earlier "
                          "run of this binary" % (digest, recorded))
    print("result_digest: %s" % digest)
    if args.workload == "corescale-bulk":
        print("simulated utilization (information only): %.4f" % reps[0]["utilization"])
    for e in errors:
        print("CORRECTNESS FAILURE: %s" % e)
    print("failed_frac: %d of %d operations (%.6g)" % (failed, attempted, failed / attempted))

    untraced = [r for r in reps if not r["traced"]]
    e2e_list, layer_list = metric_lists(spec)
    metrics = {}
    if args.trace == 0:
        for name, unit, med, q1, q3, n in summarize_figures(args.workload, untraced):
            print("%-32s %14.6g %-4s median of %d samples, quartiles %.6g .. %.6g"
                  % (name, med, unit, n, q1, q3))
            if name in dict(e2e_list):
                metrics[name] = {"value": med, "unit": unit}
    else:
        traced = [r for r in reps if r["traced"]]
        layers = kinds.get("layers", [{"metrics": {}}])[0]["metrics"]
        if not traced or not layers:
            log("perfbench: traced run produced no layer metrics")
            return 1
        values = per_layer(args.workload, untraced[0], traced[0], layers,
                           kinds["end"][0]["spans"])
        for name, unit in layer_list:
            metrics[name] = {"value": values[name], "unit": unit}
            print("%-32s %14.6g %s" % (name, values[name], unit))
        spans = json.loads(spans_path.read_text())["spans"]
        print("spans: %d written to %s; self time by layer (ms):" % (len(spans), spans_path))
        for layer, ns in sorted(arith.self_time_by_layer(spans).items()):
            print("  %-10s %10.3f" % (layer, ns * 1e-6))

    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
