#!/usr/bin/env python3
"""The divsec benchmark: build, run one workload, check it, report it.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload in its own process. Builds the library and
      perfbench/ into .bench_build/ first (Release; incremental after the
      first run). The last stdout line is the result JSON:
        {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
      metrics and writes a Chrome trace (Perfetto loads it) to
      .bench_build/traces/. Exit code 0 only when every check passed.

  python3 perfbench/run.py --steadiness [--runs 10] [--seconds S]
                           [--workloads a,b,...] [--trace 0|1]
      Runs each workload --runs times, alternating the workload order and
      using a new seed each round, and prints for every metric the median,
      the quartiles and the quartile spread / median next to the bound in
      BENCHMARK.json, plus failed / attempted per workload.

Checks on top of the ones the binary makes (pinned digest, 1-thread vs
4-thread identity): every sweep's CSV digest and exact counts must equal
the first ones recorded for its (workload, kind, seed) by the same
sources, in this run or an earlier one, and the trace file must load as
trace-event JSON.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "divsec_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build the benchmark binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("divsec sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "divsec_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def source_digest():
    """SHA-256 over the library and benchmark sources (provenance, and the
    key of the exact-count ledger)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_ledger(workload, digest, lines):
    """Compare each "counts KIND SEED DIGEST {json}" line with the first
    record of its (workload, kind, seed) under these sources, writing the
    record when there is none yet. Returns how many lines differ."""
    failed = 0
    for line in lines:
        _, kind, seed, csv_digest, counts = line.split(" ", 4)
        record = {"csv": csv_digest, "counts": json.loads(counts)}
        ledger = BUILD / "counts" / digest / f"{workload}-{kind}-{seed}.json"
        if not ledger.is_file():
            ledger.parent.mkdir(parents=True, exist_ok=True)
            ledger.write_text(json.dumps(record, sort_keys=True))
            continue
        before = json.loads(ledger.read_text())
        drift = [f"{k} {before['counts'][k]} -> {v}"
                 for k, v in record["counts"].items()
                 if k in before["counts"] and before["counts"][k] != v]
        if before["csv"] != record["csv"]:
            drift.append(f"CSV digest {before['csv']} -> {record['csv']}")
        if drift:
            log(f"perfbench: FAILED {kind} at seed {seed} drifted: {'; '.join(drift)}")
            failed += 1
    return failed


def check_trace(path):
    try:
        events = json.loads(path.read_text())["traceEvents"]
        return bool(events) and all(e.get("ph") == "X" for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def run_once(workload, seed, seconds, trace, echo=True):
    """One run in its own process; returns the result dict."""
    digest = source_digest()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_path = BUILD / "traces" / f"{workload}-seed{seed}.trace.json"
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    env = dict(os.environ, DIVSEC_PROGRESS="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"divsec_perfbench printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    counts = [line for line in lines[:-1] if line.startswith("counts ")]
    for line in lines[:-1]:
        if line.startswith("counts "):
            continue
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            prov.update(commit=commit(), sources=digest)
            line = "provenance " + json.dumps(prov)
        if echo:
            print(line)
    drifted = check_ledger(workload, digest, counts)
    if echo:
        print(f"ledger: {len(counts)} sweeps checked, {drifted} drifted")
    ok = proc.returncode == 0 and result["correct"] and not drifted
    result["failed"] = min(result["attempted"], result["failed"] + drifted)
    if trace and not check_trace(trace_path):
        log(f"perfbench: FAILED trace file {trace_path} is not trace-event JSON")
        ok = False
        result["failed"] += 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if ok and got != want:
        log(f"perfbench: FAILED metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        ok = False
    result["correct"] = ok
    return result


def steadiness(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {m["name"]: [] for m in metrics} for w in names}
    tally = {w: [0, 0] for w in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for w in order:
            seed = args.seed + r
            res = run_once(w, seed, seconds, args.trace, echo=False)
            tally[w][0] += res["attempted"]
            tally[w][1] += res["failed"]
            for name, mv in res["metrics"].items():
                if name in values[w]:
                    values[w][name].append(mv["value"])
            shown = ", ".join(f"{k} {v['value']:.6g}"
                              for k, v in sorted(res["metrics"].items()))
            log(f"run {r + 1}/{args.runs} {w} seed {seed}: "
                f"{'ok' if res['correct'] else 'FAILED'}: {shown}")
    print(f"{'workload':18} {'metric':34} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6}")
    for w in names:
        for name, vals in values[w].items():
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{w:18} {name:34} {len(vals):3d} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:7.3f} {bound if bound is not None else '-':>6}")
        attempted, failed = tally[w]
        print(f"{w:18} {'failed_frac':34} {'':3} "
              f"{failed / attempted if attempted else 0.0:14.6g}   ({failed}/{attempted})")
    return 0 if all(t[1] == 0 for t in tally.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    if not args.steadiness and not args.workload:
        ap.error("--workload is required (or --steadiness)")
    try:
        build()
        if args.steadiness:
            return steadiness(args)
        result = run_once(args.workload, args.seed, args.seconds or 10, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
