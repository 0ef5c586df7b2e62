#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library plus the e2ebench driver (Release) into $CARGO_TARGET_DIR, default
.bench_build, and trains every online workload's serving bundle into its
fixtures/ directory; later calls rebuild incrementally and retrain a bundle
only when the driver binary is newer than it (the library changed). Build
output goes to stderr.

The driver's result line is checked against BENCHMARK.json, the one list
of metric names and units: untraced runs must report every end-to-end
metric, traced runs report the per-layer ones (0 for a layer the workload
does not run), in the declared order. Exits non-zero, printing no result,
when the library sources are absent or the driver fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ONLINE = ("stream-ingest", "stream-diagnose")


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "alba.hpp")):
        fail("library sources (src/) not found next to e2ebench/")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "e2ebench")


def ensure_fixtures(exe, fixtures):
    """Trains each online bundle that is missing or older than the driver,
    so a bundle always comes from the library that serves it."""
    os.makedirs(fixtures, exist_ok=True)
    built = os.path.getmtime(exe)
    for workload in ONLINE:
        bundle = os.path.join(fixtures, workload + ".bundle")
        if os.path.isfile(bundle) and os.path.getmtime(bundle) >= built:
            continue
        if subprocess.call([exe, "--make-fixture", workload, "--out", bundle],
                           stdout=sys.stderr) != 0:
            fail("fixture training failed")


def normalize(result, declared, zero_fill):
    """Puts the metrics in the declared order and checks every unit; with
    zero_fill, a declared metric the run did not report is 0."""
    metrics = result["metrics"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        fail("undeclared metrics reported: " + ", ".join(sorted(unknown)))
    out = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not zero_fill:
                fail("metric not measured: " + m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("unit mismatch for %s: %s, declared %s" %
                 (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    result["metrics"] = out
    return result


def arg(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)
    fixtures = os.path.join(build_dir, "fixtures")
    ensure_fixtures(exe, fixtures)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = arg(argv, "--trace", "0") == "1"
    extra = ["--fixture-dir", fixtures]
    if traced:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-out", os.path.join(
            traces, "%s-%s.csv" % (arg(argv, "--workload", "x"),
                                   arg(argv, "--seed", "x")))]
    sys.stdout.flush()
    proc = subprocess.Popen([exe] + argv + extra, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    last = None
    for line in proc.stdout:
        if last is not None:
            sys.stdout.write(last)
        last = line
    if proc.wait() != 0 or last is None:
        fail("driver exited with code %d" % proc.returncode)
    result = normalize(json.loads(last),
                       bench["per_layer" if traced else "end_to_end"], traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
