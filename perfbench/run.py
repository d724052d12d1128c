#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program against the sfrv library
from the current sources, runs one workload, checks the program's outputs
and prints the metrics as one JSON line.

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 45 --trace 0

Run it from the repository root. Workloads: campaign-cold, sim-long,
serve-mixed (see perfbench/README.md). With --trace 1 it prints the
per-layer metrics of a layer-by-layer replay instead of the end-to-end ones.
Build outputs and temporary files go to .bench_build/ in the current directory.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

# Least operations per run; the tail percentile follows from it (ten
# samples beyond): campaign-cold 75th, sim-long 90th, serve-mixed 95th.
# At 45 s a run makes about 65-85 cold processes, 100-130 sweeps or
# 500-800 rounds on the reference host.
MIN_OPS = {"campaign-cold": 40, "sim-long": 100, "serve-mixed": 200}

# A run must end within 180 s; building comes before this limit.
SFBENCH_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "sim_minst_per_s": "Minst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "sim_energy_uj": "uJ",
}

PER_LAYER_UNITS = {
    "kernels.fixture_ms": "ms",
    "kernels.build_ms": "ms",
    "kernels.qor_us_per_cell": "us",
    "eval.plan_ms": "ms",
    "ir.lower_ms": "ms",
    "sim.setup_us_per_cell": "us",
    "sim.minor_faults": "count",
    "sim.run_ms": "ms",
    "sim.instructions": "count",
    "sim.predecoded-grs.minst_per_s": "Minst/s",
    "sim.jit-fast.minst_per_s": "Minst/s",
    "sim.jit.translate_ms": "ms",
    "sim.jit.hit_ratio": "ratio",
    "energy.us_per_cell": "us",
    "tuner.study_ms": "ms",
    "tuner.cells_simulated": "count",
    "eval.cellstore.hit_us": "us",
    "eval.cellstore.insert_us": "us",
    "eval.cellstore.hit_ratio": "ratio",
    "eval.executor.cells_per_s": "1/s",
    "eval.executor.speedup_j2": "ratio",
    "eval.report.serialize_ms": "ms",
    "eval.service.reply_bytes": "bytes",
    "eval.service.warm_p50_ms": "ms",
    "eval.service.cold_p50_ms": "ms",
    "eval.service.rss_kb_per_request": "KB",
    "trace.campaign-cold.coverage": "ratio",
    "trace.campaign-cold.overhead": "ratio",
    "trace.sim-long.coverage": "ratio",
    "trace.sim-long.overhead": "ratio",
    "trace.serve-mixed.coverage": "ratio",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build sfbench and sfrv-eval; returns their paths."""
    build_dir = root / ".bench_build" / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "sfbench", "sfrv-eval",
         "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "sfbench", build_dir / "sfrv" / "tools" / "sfrv-eval"


def end_to_end(workload, raw, min_ops):
    ops = raw["ops_ms"]
    p50 = benchstats.median(ops)
    m = {
        "op_p50_ms": p50,
        "op_tail_ms": benchstats.tail(ops, min_ops),
        "setup_s": benchstats.median(raw["setup_ms"]) / 1000.0,
        "peak_rss_mb": benchstats.median(raw["peak_rss_mb"]),
        "sim_cycles": raw["sim_cycles"],
        "sim_energy_uj": raw["sim_energy_uj"],
    }
    if workload == "serve-mixed":
        # An operation is a round of requests; the rate is in requests.
        cpu_s = sum(ops) / 1000.0
        m["ops_per_s"] = raw["requests_per_op"] * len(ops) / cpu_s
        m["sim_minst_per_s"] = raw["miss_instructions"] / cpu_s / 1e6
    else:
        m["ops_per_s"] = len(ops) / (sum(ops) / 1000.0)
        m["sim_minst_per_s"] = raw["sim_instructions"] / (p50 / 1000.0) / 1e6
    return m


def per_layer(raw):
    def med(replays, key):
        return benchstats.median([r[key] for r in replays])

    c = raw["campaign-cold"]
    cr = c["replays"]
    s = raw["sim-long"]["replays"]
    v = raw["serve-mixed"]["replays"]
    overhead = [r / u for r, u in zip(c["replay_ms"], c["cold_ms"])]
    warm = [x for r in v for x in r["warm_ms"]]
    cold = [x for r in v for x in r["cold_ms"]]
    return {
        "kernels.fixture_ms": med(cr, "fixture_ms"),
        "kernels.build_ms": med(cr, "build_ms"),
        "kernels.qor_us_per_cell": med(cr, "qor_us_per_cell"),
        "eval.plan_ms": med(cr, "plan_ms"),
        "ir.lower_ms": med(s, "lower_ms"),
        "sim.setup_us_per_cell": med(cr, "setup_us_per_cell"),
        "sim.minor_faults": benchstats.median(c["minflt"]),
        "sim.run_ms": med(cr, "run_ms"),
        "sim.instructions": med(s, "instructions"),
        "sim.predecoded-grs.minst_per_s": med(s, "predecoded_grs_minst_per_s"),
        "sim.jit-fast.minst_per_s": med(s, "jit_fast_minst_per_s"),
        "sim.jit.translate_ms": med(s, "translate_ms"),
        "sim.jit.hit_ratio": med(s, "jit_hit_ratio"),
        "energy.us_per_cell": med(cr, "energy_us_per_cell"),
        "tuner.study_ms": med(cr, "tuner_ms"),
        "tuner.cells_simulated": med(cr, "tuner_cells_simulated"),
        "eval.cellstore.hit_us": med(v, "hit_us"),
        "eval.cellstore.insert_us": med(v, "insert_us"),
        "eval.cellstore.hit_ratio": med(v, "hit_ratio"),
        "eval.executor.cells_per_s": med(v, "executor_cells_per_s"),
        "eval.executor.speedup_j2": med(v, "speedup_j2"),
        "eval.report.serialize_ms": med(v, "serialize_ms"),
        "eval.service.reply_bytes": med(v, "reply_bytes"),
        "eval.service.warm_p50_ms": benchstats.median(warm),
        "eval.service.cold_p50_ms": benchstats.median(cold),
        "eval.service.rss_kb_per_request": med(v, "rss_kb_per_request"),
        "trace.campaign-cold.coverage": med(cr, "coverage"),
        "trace.campaign-cold.overhead": benchstats.median(overhead),
        "trace.sim-long.coverage": med(s, "coverage"),
        "trace.sim-long.overhead": med(s, "overhead"),
        "trace.serve-mixed.coverage": med(v, "coverage"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(MIN_OPS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="stop after --seconds even with one operation; the "
                    "tail is then the median (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    min_ops = 1 if args.smoke else MIN_OPS[args.workload]

    root = Path.cwd()
    sfbench, sfrv_eval = build(root)
    work = root / ".bench_build" / "tmp" / ("run-%d" % os.getpid())
    cmd = [str(sfbench), "trace" if args.trace else args.workload,
           "--sfrv-eval", str(sfrv_eval), "--work-dir", str(work),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--min-ops", str(min_ops)]
    # Own process group, so a run that overstays can be stopped together
    # with the sfrv-eval processes it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=SFBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("sfbench did not finish within %d s" % SFBENCH_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("sfbench exited with status %d" % proc.returncode)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = per_layer(raw)
        units = PER_LAYER_UNITS
        attempted = (len(raw["campaign-cold"]["replays"]) +
                     len(raw["sim-long"]["replays"]) +
                     len(raw["serve-mixed"]["replays"]))
        failed = 0
        errors = []
    else:
        values = end_to_end(args.workload, raw, min_ops)
        units = END_TO_END_UNITS
        attempted = raw["attempted"]
        failed = raw["failed"]
        errors = raw["errors"]
    for e in errors[:20]:
        log("check failed: " + e)
    if len(errors) > 20:
        log("... %d more check failures" % (len(errors) - 20))

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
