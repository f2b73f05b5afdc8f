#!/usr/bin/env python3
"""Repository benchmark: builds the iotml modules and perfbench_runner from
source (Release, into .bench_build/), runs one workload per process and
prints its metrics, ending with one JSON result line.

  python3 perfbench/run.py --workload fleet-learn --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py                  # every workload, one row each

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 adds
one traced iteration and reports the per-layer metrics; perfbench/metrics.json
defines both. Every iteration's outputs are checked; the exit code is 0 only
when every check passed. Results and the traced iteration's Chrome trace
(open it in Perfetto or about:tracing) land in .bench_build/results/.
"""

import argparse
import collections
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RESULTS_DIR = BUILD_ROOT / "results"

BUILD_TIMEOUT_S = 850
RUNNER_TIMEOUT_S = 170

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def valid_name(name):
    """Metric and workload names: a letter or digit, then up to 63 letters,
    digits, '_', '.' or '-'."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def load_definitions():
    """BENCHMARK.json and perfbench/metrics.json, checked against each other."""
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        raise BenchError(f"missing {bench_path}")
    bench = json.loads(bench_path.read_text())
    defs = json.loads((BENCH_DIR / "metrics.json").read_text())
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[group]:
            if not valid_name(entry["name"]) or entry["name"] in seen:
                raise BenchError(f"invalid or repeated name {entry['name']!r}")
            seen.add(entry["name"])
            if "unit" in entry and not UNIT_RE.fullmatch(entry["unit"]):
                raise BenchError(f"invalid unit {entry['unit']!r}")
    gated = {m["name"]: m for m in defs["end_to_end"] if m["gated"]}
    if set(gated) != {m["name"] for m in bench["end_to_end"]}:
        raise BenchError("metrics.json gated end-to-end metrics differ from BENCHMARK.json")
    if {m["name"] for m in defs["per_layer"]} != {m["name"] for m in bench["per_layer"]}:
        raise BenchError("metrics.json per-layer metrics differ from BENCHMARK.json")
    return bench, defs


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout,
                              cwd=ROOT)
    if proc.returncode != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        raise BenchError("build step failed:\n" + "\n".join(tail))


def build():
    """Configure once, then bring the Release build up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no iotml sources under {ROOT / 'src'}")
    BUILD_ROOT.mkdir(exist_ok=True)
    log = BUILD_ROOT / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log,
               max(1.0, deadline - time.monotonic()))


def cmake_cache():
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"(CMAKE_[A-Z_]+):[A-Z]+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def run_runner(workload, seed, seconds, trace):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [BUILD_DIR / "perfbench_runner", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", RESULTS_DIR / f"{workload}.trace.json"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUNNER_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: runner exceeded {RUNNER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload}: runner exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def median(values):
    return statistics.median(values) if values else float("nan")


def evaluate(doc, bench, defs):
    """Check every iteration and reduce the runner document to metrics.

    An iteration fails when it threw, failed its output check, or produced a
    digest other than the one most iterations of this seed agree on.
    Returns a dict with correct, attempted, failed, metrics (every gated
    metric of the run's kind), report (ungated end-to-end figures) and the
    per-iteration verdicts.
    """
    workload = doc["workload"]
    iterations = list(doc["iterations"])
    if "traced" in doc:
        iterations.append(doc["traced"])
    passing = [it["digest"] for it in iterations if not it["failure"]]
    reference = collections.Counter(passing).most_common(1)[0][0] if passing else None
    verdicts = []
    for it in iterations:
        if it["failure"]:
            verdicts.append(it["failure"])
        elif it["digest"] != reference:
            verdicts.append(f"digest {it['digest']} differs from {reference}")
        else:
            verdicts.append("")
    failed = sum(1 for v in verdicts if v)
    ok = [it for it, v in zip(doc["iterations"], verdicts) if not v]

    # Other tenants of the host slow whole stretches of a run, never speed it
    # up, so each piece's fastest time across the passing iterations is its
    # cost with the least interference; wall_s sums them. The median of the
    # iteration walls is printed beside it.
    pieces = len(ok[0]["piece_s"]) if ok else 0
    wall = sum(min(it["piece_s"][k] for it in ok) for k in range(pieces)) if ok \
        else float("nan")
    setup = median(doc["setup_s"])
    report = {"wall_s": wall, "wall_median_s": median([sum(it["piece_s"]) for it in ok]),
              "setup_s": setup, "peak_rss_mb": doc["peak_rss_mb"],
              "failed_frac": failed / len(iterations)}
    quality = ok[0]["quality"] if ok else {}
    for name in ("accuracy", "delivery_ratio", "ci_coverage"):
        if name in quality:
            report[name] = quality[name]
    if "rows_generated" in quality:
        report["sim_rows_per_s"] = quality["rows_generated"] / (setup + wall)

    if doc["trace"]:
        layer_defs = {m["name"]: m for m in defs["per_layer"]}
        reported = dict(doc.get("per_layer", {}))
        traced_wall = sum(doc["traced"]["piece_s"])
        untraced = report["wall_median_s"]
        reported["obs.trace_overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
        values = {}
        for entry in bench["per_layer"]:
            name = entry["name"]
            if name in reported:
                values[name] = reported[name]
            elif workload in layer_defs[name]["workloads"] and not failed:
                raise BenchError(f"{workload}: runner did not report {name}")
            else:
                values[name] = 0.0  # the layer does no work in this workload
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in bench["per_layer"]}
    else:
        metrics = {e["name"]: {"value": report[e["name"]], "unit": e["unit"]}
                   for e in bench["end_to_end"]}
    finite = True
    for m in metrics.values():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            m["value"] = 0.0  # keep the result line valid JSON; the run is not correct
            finite = False
    return {"correct": failed == 0 and finite and bool(ok), "attempted": len(iterations),
            "failed": failed, "metrics": metrics, "report": report, "verdicts": verdicts,
            "digest": reference}


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(workload, seed, seconds, trace, bench, defs):
    doc = run_runner(workload, seed, seconds, trace)
    result = evaluate(doc, bench, defs)
    cache = cmake_cache()
    provenance = {
        "compiler": doc["provenance"]["compiler"],
        "cxx": cache.get("CMAKE_CXX_COMPILER", ""),
        "flags": " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                      cache.get("CMAKE_CXX_FLAGS_RELEASE", "")) if f),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "nproc": os.cpu_count(),
        "seed": seed,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{workload}.json").write_text(json.dumps(
        {"provenance": provenance, "runner": doc,
         "result": {k: v for k, v in result.items() if k != "report"},
         "report": result["report"]}, indent=1))
    return doc, result, provenance


def print_detail(workload, doc, result, provenance, defs):
    print(f"{workload}: {provenance['compiler']}, {provenance['build_type']} "
          f"[{provenance['flags']}], nproc {provenance['nproc']}, seed {provenance['seed']}")
    print(f"  iterations {result['attempted']}, failed {result['failed']}, "
          f"digest {result['digest']}")
    for verdict in result["verdicts"]:
        if verdict:
            print(f"  FAILED: {verdict}")
    units = {m["name"]: m["unit"] for m in defs["end_to_end"]}
    print("  " + ", ".join(f"{k} {fmt(v)} {units[k]}" for k, v in result["report"].items()))
    if doc["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {fmt(m['value']):>14s} {m['unit']}")
        total = sum(doc["attribution_us"].values())
        split = ", ".join(f"{k} {100 * v / total:.1f}%"
                          for k, v in sorted(doc["attribution_us"].items(), key=lambda kv: -kv[1]))
        print(f"  traced wall by layer: {split}")


def print_table(rows, defs):
    """One row per workload, every end-to-end metric that applies to it."""
    cols = defs["end_to_end"]
    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in cols]
    table = [header]
    for workload, result in rows:
        table.append([workload] + [
            fmt(result["report"][m["name"]]) if workload in m["workloads"] else "-"
            for m in cols])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, one row each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench, defs = load_definitions()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        build()
        if args.workload is not None:
            doc, result, provenance = run_one(args.workload, args.seed, seconds, args.trace,
                                              bench, defs)
            print_detail(args.workload, doc, result, provenance, defs)
            line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
            print(json.dumps(line))
            return 0 if result["correct"] else 1
        rows = []
        for workload in names:
            doc, result, provenance = run_one(workload, args.seed, seconds, args.trace,
                                              bench, defs)
            print_detail(workload, doc, result, provenance, defs)
            rows.append((workload, result))
        print_table(rows, defs)
        correct = all(r["correct"] for _, r in rows)
        line = {"correct": correct,
                "attempted": sum(r["attempted"] for _, r in rows),
                "failed": sum(r["failed"] for _, r in rows),
                "workloads": {w: r["metrics"] for w, r in rows}}
        print(json.dumps(line))
        return 0 if correct else 1
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
