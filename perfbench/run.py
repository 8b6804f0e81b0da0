#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first form builds the benchmark binary
(a Cargo package of its own, depending on the repository's crates by path)
into CARGO_TARGET_DIR (default `.bench_build`) and runs one workload; its
last line of output is the JSON result. `--all` runs every workload in turn
and prints each result. `--self-check` runs the benchmark's own unit tests
and every workload at a tiny size in both modes, and checks each result
against the metric lists in BENCHMARK.json; it finishes in well under a
minute after the build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["attack-paper", "serve-paper"]


def env():
    e = dict(os.environ)
    target = Path(e.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    e["CARGO_TARGET_DIR"] = str(target)
    # Keep cargo's own state inside the checkout too: the package has no
    # registry dependencies, so an empty cargo home is enough.
    e.setdefault("CARGO_HOME", str(target / "cargo-home"))
    return e, target


def cargo(args, e):
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    return subprocess.run(cmd, env=e, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    e, target = env()
    if cargo(["build", "--quiet"], e) != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    return target / "release" / "perfbench", e


def run(binary, e, argv, capture=False):
    pipe = subprocess.PIPE if capture else None
    return subprocess.run([str(binary), *argv], env=e, text=True, stdout=pipe, stderr=pipe)


def self_check():
    binary, e = build()
    if cargo(["test", "--quiet"], e) != 0:
        print("self-check: unit tests failed", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        print("self-check: BENCHMARK.json workloads differ from run.py", file=sys.stderr)
        return 1
    bad = 0
    for w in WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace, "--size", "tiny"]
            p = run(binary, e, argv, capture=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            try:
                res = json.loads(last)
            except ValueError:
                res = None
            problems = []
            if p.returncode != 0:
                problems.append(f"exit code {p.returncode}")
            if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("last line is not the result object")
            else:
                got = {k: v.get("unit") for k, v in res["metrics"].items()}
                if got != want[trace]:
                    problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
                if not (res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1):
                    problems.append(f"correct {res['correct']} failed {res['failed']} attempted {res['attempted']}")
            if problems:
                sys.stderr.write(p.stderr[-2000:])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-check {w:<13} trace {trace}: {status}")
            bad += bool(problems)
    return 1 if bad else 0


def main():
    argv = sys.argv[1:]
    if argv == ["--self-check"]:
        sys.exit(self_check())
    if "--all" in argv:
        argv = [a for a in argv if a != "--all"]
        binary, e = build()
        code = 0
        for w in WORKLOADS:
            code |= run(binary, e, ["--workload", w, *argv]).returncode
        sys.exit(1 if code else 0)
    binary, e = build()
    sys.exit(run(binary, e, argv).returncode)


if __name__ == "__main__":
    main()
