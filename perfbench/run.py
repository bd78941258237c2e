"""qnetdet benchmark: closed-loop workloads with output checks.

Usage, from the root of a qnetdet checkout:
    python3 perfbench/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (perfbench/workload.py), so
peak memory belongs to that workload and no cache carries over; BLAS and
OpenMP are pinned to one thread.  With --trace 0 the last line of stdout
is {"correct", "attempted", "failed", "metrics"} with every end-to-end
metric; with --trace 1 the metrics are the per-layer ones.  setup_s is
the median of three set-ups in fresh processes.  The exit code is 0 only
when every output passed its check, and 2 when the checkout lacks the
program.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import WORKLOADS  # noqa: E402

# a run must end within 180 s; leave room for the last child to exit
DEADLINE_S = 170.0
SETUP_RUNS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
REQUIRED = ("src/qnetdet/__init__.py", "networks/bridge.json", "tests/golden/outcomes_bell.json")


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("QNETDET_BACKEND", None)
    env.pop("QNETDET_SEED", None)
    return env


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_child(args, env, extra, timeout):
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, env, work):
    start = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    # the measuring child stops early enough to leave the deadline intact
    hard = min(4.0 * args.seconds, 120.0)
    extra = ["--work", work, "--hard-seconds", str(hard)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_child(args, env, extra + ["--setup-only"], remaining())["setup_s"])
    result = run_child(args, env, extra, remaining())
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="qnetdet benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the root of a qnetdet checkout; missing {missing}", file=sys.stderr)
        return 2
    env = child_env()
    # compile once so that no run pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_workload(args, env, work)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:15s} {metric:40s} {m['value']:.6g} {m['unit']}")
        for metric, value in results[name]["unscaled"].items():
            print(f"{name:15s} {metric + ' (unscaled)':40s} {value:.6g}")
        if "digests" in results[name]:
            print("verify digests " + json.dumps(results[name]["digests"], sort_keys=True))
    env_info = next(iter(results.values()))["env"]
    env_info["commit"] = commit()
    print("environment " + json.dumps(env_info, sort_keys=True))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        out_metrics = results[names[0]]["metrics"]
    else:
        out_metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
