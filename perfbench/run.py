#!/usr/bin/env python3
"""The repository benchmark.

Builds the hjperf driver from the library sources (perfbench/CMakeLists.txt
compiles ../src) and runs one workload:

  python3 perfbench/run.py --workload mem_join --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics, and writes the
spans as Chrome trace-event JSON under the build directory. The exit code
is 0 only when every result was correct. --record FILE appends a correct
result, tagged with workload, seed, trace flag and the latency percentile
the run reported as latency_tail_s, to a JSON-lines file.

Other modes:

  python3 perfbench/run.py sweep --workload W --seeds 1-10 [--seconds S]
                                 [--record FILE]
      runs one workload over several seeds and prints each metric's
      median and quartile spread against its bound.
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
      compares two sets of recorded runs per workload and metric: median,
      quartiles, pairwise win share, relative change (positive = better)
      and a verdict against the bounds. A workload whose change runs are
      incorrect or fail more operations than the parent's is worse.
  python3 perfbench/run.py selftest
      runs every workload at tiny sizes and checks the output schema, the
      seed handling, failure reporting and the bare-directory refusal.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds hjperf; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {cmd[:2]} failed: {e}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
            return None
    binary = out / "hjperf"
    return binary if binary.exists() else None


def to_result(raw, spec, trace):
    """Turns hjperf's {..., "metrics": {name: value}} into the benchmark's
    result: the metrics BENCHMARK.json lists, each with its unit.

    Every end-to-end metric must be measured. A per-layer metric that
    hjperf did not print belongs to a layer the workload does not run,
    and is 0. Returns (result or None, list of problems).
    """
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        return None, [f"result keys {sorted(raw)}"]
    problems = []
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(raw["failed"], int) or raw["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = raw["metrics"].get(m["name"], 0 if trace else None)
        if not isinstance(value, (int, float)):
            problems.append(f"{m['name']}: not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if problems:
        return None, problems
    return dict(raw, metrics=metrics), []


def tail_percentile(lines):
    """The percentile hjperf reported as latency_tail_s, or None."""
    for line in lines:
        if line.startswith("latency_tail_s is p"):
            return float(line.split()[2][1:].rstrip(";"))
    return None


def run_once(binary, spec, workload, seed, seconds, trace, extra=()):
    """Runs hjperf; returns (exit code, stdout lines, result or None, names
    of the metrics hjperf printed)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={traces / f'{workload}-seed{seed}.json'}")
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 124, [], None, set()
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        raw = None
    if not isinstance(raw, dict) or not isinstance(raw.get("metrics"), dict):
        return proc.returncode, lines, None, set()
    result, problems = to_result(raw, spec, trace)
    for p in problems:
        log(f"{workload}: {p}")
    return proc.returncode, lines, result, set(raw["metrics"])


def record(path, workload, seed, trace, result, lines):
    """Appends a correct result; an incorrect one is never compared."""
    if not result["correct"]:
        return
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": int(trace),
                            "tail_percentile": tail_percentile(lines),
                            "result": result}) + "\n")


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        return 2
    code, lines, result, _ = run_once(binary, spec, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    if result is None:
        log(f"{args.workload}: hjperf exited {code} without a valid result")
        return code or 3
    if args.record:
        record(args.record, args.workload, args.seed, args.trace, result,
               lines)
    print(json.dumps(result), flush=True)
    if code == 0 and not result["correct"]:
        code = 1
    return code


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    """Quartile spread as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def cmd_sweep(argv):
    ap = argparse.ArgumentParser(prog="run.py sweep")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--record")
    args = ap.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    if binary is None:
        return 2
    values = {}
    bad = 0
    for seed in parse_seeds(args.seeds):
        code, lines, result, _ = run_once(binary, spec, args.workload, seed,
                                          seconds, False)
        if result is None or code != 0 or not result["correct"]:
            log(f"seed {seed}: exit {code}, result {result}")
            bad += 1
            continue
        if args.record:
            record(args.record, args.workload, seed, 0, result, lines)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        s = spread(vals)
        b = bounds.get(name)
        flag = "" if s is None or b is None or s < b / 3 else "  << WIDE"
        print(f"{name:40} {statistics.median(vals):14.6g} "
              f"{'-' if s is None else f'{s:8.4f}':>8} "
              f"{'-' if b is None else f'{b / 3:8.4f}':>8}{flag}")
    return 1 if bad else 0


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def verdict(parent, change, better, bound):
    """Verdict for one metric of one workload.

    improved: the change wins at least 90% of the pairs and the medians
    differ by more than the parent's quartile spread. unresolved: the
    parent's spread is wider than the bound (unless every change run
    beats every parent run). worse: the change's median is worse than the
    parent's by more than the bound. Otherwise no worse.
    """
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, _, p_q3 = (statistics.quantiles(parent, n=4)
                     if len(parent) > 1 else (p_med, p_med, p_med))
    p_spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    worse_by = -sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = (win_share >= 0.9 and sign * (c_med - p_med) > 0 and
            abs(c_med - p_med) > p_q3 - p_q1)
    if gain:
        v = "improved"
    elif all_better:
        v = "no worse"
    elif p_spread > bound:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "no worse"
    return v, win_share, worse_by


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = load_spec()
    parent, change = load_runs(args.parent), load_runs(args.change)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    hdr = (f"{'workload':12} {'metric':16} {'parent med [q1,q3]':>34} "
           f"{'change med [q1,q3]':>34} {'win':>5} {'delta':>7} verdict")
    print(hdr)
    for w in [w["name"] for w in spec["workloads"]]:
        p_runs = {r["seed"]: r for r in parent.get((w, 0), [])}
        c_runs = {r["seed"]: r for r in change.get((w, 0), [])}
        seeds = sorted(set(p_runs) & set(c_runs))
        if seeds:
            p_list = [p_runs[s] for s in seeds]
            c_list = [c_runs[s] for s in seeds]
        else:  # unpaired seeds: pair by position
            p_list = parent.get((w, 0), [])
            c_list = change.get((w, 0), [])
        if not p_list or not c_list:
            print(f"{w:12} (no runs on one side)")
            continue
        # A gain does not count when the change gets results wrong or
        # fails more operations than the parent.
        wrong = sum(1 for r in c_list if not r["result"]["correct"])
        p_failed = max(r["result"]["failed"] for r in p_list)
        c_failed = max(r["result"]["failed"] for r in c_list)
        if wrong or c_failed > p_failed:
            print(f"{w:12} {wrong} incorrect change run(s), up to {c_failed} "
                  f"failed operations vs the parent's {p_failed}: worse")
            worse += 1
            continue
        pcts = {r.get("tail_percentile") for r in p_list + c_list}
        for name, m in metrics.items():
            if name == "latency_tail_s" and len(pcts) > 1:
                print(f"{w:12} {name:16} percentiles differ "
                      f"{sorted(pcts, key=str)}: worse")
                worse += 1
                continue
            p = [r["result"]["metrics"][name]["value"] for r in p_list]
            c = [r["result"]["metrics"][name]["value"] for r in c_list]
            v, win, worse_by = verdict(p, c, m["better"], m["bound"])
            worse += v == "worse"

            def q(vals):
                if len(vals) < 2:
                    return f"{vals[0]:.5g}"
                a, b, d = statistics.quantiles(vals, n=4)
                return f"{statistics.median(vals):.5g} [{a:.5g},{d:.5g}]"
            print(f"{w:12} {name:16} {q(p):>34} {q(c):>34} {win:5.2f} "
                  f"{-worse_by:+7.3f} {v}")
    return 1 if worse else 0


def cmd_selftest(argv):
    """Tiny-geometry run of every workload plus the failure checks."""
    spec = load_spec()
    binary = build()
    if binary is None:
        return 2
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            log(f"FAIL {what}")

    tiny = ("--tiny",)
    layer_printed = set()
    for w in [w["name"] for w in spec["workloads"]]:
        prints = {}
        for trace in (False, True):
            schemas = []
            for seed in (1, 2):
                code, lines, result, printed = run_once(
                    binary, spec, w, seed, 0.5, trace, tiny)
                tag = f"{w} seed {seed} trace {int(trace)}"
                expect(code == 0 and result is not None and
                       result["correct"] and result["failed"] == 0,
                       f"{tag}: clean run (exit {code})")
                if result is None:
                    continue
                schemas.append(printed)
                fp = [l for l in lines if l.startswith("inputs fingerprint")]
                prints.setdefault(seed, set()).update(fp)
                if not trace:
                    zero = [k for k, v in result["metrics"].items()
                            if v["value"] <= 0]
                    expect(not zero, f"{tag}: end-to-end metrics > 0 {zero}")
                    expect(tail_percentile(lines) is not None,
                           f"{tag}: latency_tail_s percentile printed")
                else:
                    layer_printed |= printed
                    m = result["metrics"]
                    expect(m["trace.unattributed_frac"]["value"] < 0.1,
                           f"{tag}: >= 90% of wall in named layer spans")
                    trace_file = (build_dir() / "traces" /
                                  f"{w}-seed{seed}.json")
                    with open(trace_file) as f:
                        events = json.load(f)["traceEvents"]
                    expect(events and {"name", "ph", "ts", "dur"} <=
                           set(events[0]), f"{tag}: Chrome trace events")
            expect(len(schemas) == 2 and schemas[0] == schemas[1],
                   f"{w} trace {int(trace)}: seed changes the schema")
        expect(len(prints.get(1, ())) == 1 and prints.get(1) != prints.get(2),
               f"{w}: seed changes the inputs")
        code, _, result, _ = run_once(binary, spec, w, 3, 0.5, False,
                                      tiny + ("--inject-wrong-count",))
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{w}: a wrong expected count is reported as a failure")

    # Every per-layer metric of BENCHMARK.json is measured somewhere; one
    # that no workload prints is a name out of step with the driver.
    unmeasured = {m["name"] for m in spec["per_layer"]} - layer_printed
    expect(not unmeasured, f"per-layer metrics no workload prints: "
                           f"{sorted(unmeasured)}")

    # The simulator's cycle count repeats exactly for a seed.
    cycles = []
    for _ in range(2):
        _, _, result, _ = run_once(binary, spec, "sim_join", 5, 0.3, True,
                                   tiny)
        if result is not None:
            cycles.append(result["metrics"]["sim_cycles_per_tuple"]["value"])
    expect(len(cycles) == 2 and cycles[0] == cycles[1] and cycles[0] > 0,
           f"sim_cycles_per_tuple repeats for a seed: {cycles}")

    # Without the library sources beside it the benchmark must refuse.
    with tempfile.TemporaryDirectory(dir=build_dir()) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=RUN_TIMEOUT_S)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "a directory without the sources exits nonzero, no result")

    print("selftest: " + ("ok" if not failures else
                          f"{len(failures)} failure(s)"))
    return 1 if failures else 0


def main():
    argv = sys.argv[1:]
    modes = {"sweep": cmd_sweep, "compare": cmd_compare,
             "selftest": cmd_selftest}
    if argv and argv[0] in modes:
        return modes[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
