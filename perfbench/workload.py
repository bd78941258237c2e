"""One benchmark workload, run in a fresh process by run.py.

Usage (from the root of a qnetdet checkout, with src on PYTHONPATH):
    python perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --hard-seconds H --work DIR [--setup-only]

Set-up (imports, input generation, warm-up) is timed from the start of
this process to the first timed operation.  Then a single caller runs
one operation at a time, cycling through the inputs, for S seconds and
at least MIN_OPS operations.  Every output is checked outside the timed
region.  With --trace 1 the time is split between an untraced and a
traced phase, and per-layer metrics replace the end-to-end ones.  The
result is one JSON object on the last line of stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import metrics  # noqa: E402
import outcheck  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

# enough operations that ten latencies lie beyond the 90th percentile
MIN_OPS = 100
# generated networks per reduce workload, cycled in order
POOL = 48
VERIFY_TRIALS = 40
VERIFY_CYCLES = 200
VERIFY_SEED_STRIDE = 10_000
# bundled networks with a golden reduce output; bridge.json must exit 3
CLI_NETWORKS = ("single_link", "chain", "parallel_pair", "triangle", "parallel_then_series", "nested_qutrit")
WARMUP_NETWORK = os.path.join("networks", "nested_qutrit.json")
PROBES = 5
CALIBRATE_EVERY_S = 0.02
HERE = os.path.dirname(os.path.abspath(__file__))


class ReduceWorkload:
    """`qnetdet.cli.main(["reduce", file, "--out", tmp])` on generated networks."""

    def __init__(self, name, seed, work):
        import netgen
        import qnetdet.cli

        self.cli = qnetdet.cli
        self.out = os.path.join(work, "out.json")
        self.items = []
        for i, doc in enumerate(netgen.make_pool(name, seed, POOL)):
            path = os.path.join(work, f"net{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(netgen.dumps(doc))
            self.items.append((path, doc["dimension"], len(doc["edges"])))
        # a fixed small network, so that set-up time does not depend on the seed
        with open(WARMUP_NETWORK, encoding="utf-8") as fh:
            warm = json.load(fh)
        self.warmup = [(WARMUP_NETWORK, warm["dimension"], len(warm["edges"]))]

    def op(self, item, traced):
        return self.cli.main(["reduce", item[0], "--out", self.out])

    def check(self, item, code):
        if code != 0:
            return [f"exit code {code}"], None
        with open(self.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(self.out)
        return outcheck.check_reduce(doc, item[1], item[2]), doc


class VerifyWorkload:
    """`run_checks(name, cfg)` for each of the named checks at a fixed
    trials count.  Cycle c over the checks uses the check seed
    VERIFY_SEED_STRIDE * seed + c, so a run averages over many draws
    and the same benchmark seed always makes the same calls."""

    def __init__(self, name, seed, work):
        from qnetdet import checks

        self.checks = checks
        self.items = []
        for cycle in range(VERIFY_CYCLES):
            for check in metrics.VERIFY_CHECKS:
                d = 2 if check == "theorem_worst_case_d2" else 3
                cfg = checks.CheckConfig(dimension=d, trials=VERIFY_TRIALS, seed=VERIFY_SEED_STRIDE * seed + cycle)
                # counterexample pins one fixed instance whatever the trials count
                trials = 1 if check == "counterexample" else VERIFY_TRIALS
                self.items.append((check, cfg, trials))
        self.warmup = [
            (check, checks.CheckConfig(dimension=cfg.dimension, trials=1, seed=0), 1)
            for check, cfg, _ in self.items[: len(metrics.VERIFY_CHECKS)]
        ]
        self.digests = {}

    def op(self, item, traced):
        return self.checks.run_checks(item[0], item[1])

    def check(self, item, reports):
        errors = outcheck.check_verify(reports, item[2])
        if not errors:
            text = json.dumps(reports[0].to_dict(), sort_keys=True, default=repr)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            self.digests.setdefault((item[0], item[1].seed), set()).add(digest)
        return errors, None

    def digest_summary(self):
        """Digests of the first cycle's reports, and the number of calls
        whose repeated reports differed."""
        first = self.items[0][1].seed
        return {
            "first_cycle": {name: sorted(d) for (name, seed), d in self.digests.items() if seed == first},
            "differing": sum(len(d) > 1 for d in self.digests.values()),
        }


class CliWorkload:
    """Fresh `python -m qnetdet` processes for every bundled network plus
    one `outcomes` run, each compared byte for byte with its golden file."""

    def __init__(self, name, seed, work):
        self.stats = os.path.join(work, "stats.json")
        self.items = []
        for net in CLI_NETWORKS:
            self.items.append((["reduce", f"networks/{net}.json"], 0, _golden(f"reduce_{net}.json")))
        self.items.append((["reduce", "networks/bridge.json"], 3, None))
        self.items.append(
            (["outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "bell"], 0, _golden("outcomes_bell.json"))
        )
        self.warmup = self.items[:1]
        self.raw = tracer.empty()

    def op(self, item, traced):
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), self.stats, *item[0]]
        else:
            cmd = [sys.executable, "-m", "qnetdet", *item[0]]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        if traced:
            with open(self.stats, encoding="utf-8") as fh:
                tracer.merge(self.raw, json.load(fh))
            os.remove(self.stats)
        return proc.returncode, proc.stdout

    def check(self, item, result):
        errors = outcheck.check_cli(result[0], result[1], item[1], item[2])
        doc = json.loads(result[1]) if not errors and item[2] and item[0][0] == "reduce" else None
        return errors, doc


def _golden(name):
    with open(os.path.join("tests", "golden", name), "rb") as fh:
        return fh.read()


CLASSES = {
    "reduce-bundles": ReduceWorkload,
    "reduce-chains": ReduceWorkload,
    "reduce-nested": ReduceWorkload,
    "verify": VerifyWorkload,
    "cli": CliWorkload,
}


class Phase:
    """Closed-loop measurement: latencies, failures and the reduce
    reports' move counts of one phase, with calibration samples taken
    between operations."""

    def __init__(self, clock):
        self.clock = clock
        self.starts = []
        self.latencies = []
        self.failed = 0
        self.moves = [0, 0, 0]

    def run(self, wl, seconds, min_ops, hard_s, tr=None):
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(self.latencies) >= min_ops) or elapsed >= hard_s:
                break
            item = wl.items[i % len(wl.items)]
            i += 1
            if tr is not None:
                tr.active = True
            t0 = time.perf_counter()
            try:
                result = wl.op(item, tr is not None)
                raised = None
            except Exception as exc:  # a raise is a failed operation
                raised = exc
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.active = False
            self.starts.append(t0)
            self.latencies.append(dt)
            if raised is not None:
                errors, doc = [f"raised {type(raised).__name__}: {raised}"], None
            else:
                errors, doc = wl.check(item, result)
            if errors:
                self.failed += 1
                if self.failed <= 3:
                    print(f"perfbench: operation {item[0]!r} failed: {errors[:3]}", file=sys.stderr)
            if doc is not None:
                s, p, a = metrics.moves(doc)
                self.moves[0] += s
                self.moves[1] += p
                self.moves[2] = max(self.moves[2], a)
            if time.perf_counter() - self.clock.times[-1] >= CALIBRATE_EVERY_S:
                self.clock.tick()
        self.clock.tick(speed.NEIGHBOURS // 2)

    def scaled(self):
        """Latencies at the nominal machine speed."""
        return [dt * self.clock.factor(t + dt / 2) for t, dt in zip(self.starts, self.latencies)]


def probe_starts():
    """Median wall times of a bare interpreter and of `import qnetdet.cli`."""
    runs = {"bare": [], "import": []}
    for _ in range(PROBES):
        for key, code in (("bare", "pass"), ("import", "import qnetdet.cli")):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            runs[key].append(time.perf_counter() - t0)
    return {key: statistics.median(v) for key, v in runs.items()}


def _timings(latencies):
    lat_ms = [1e3 * v for v in latencies]
    return {
        "ops_per_s": len(lat_ms) / sum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": metrics.quantile(lat_ms, 90),
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment():
    import numpy

    import qnetdet

    return {
        "backend": qnetdet.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hard-seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for generated inputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = speed.Clock()
    t0 = time.perf_counter()
    clock.tick(speed.NEIGHBOURS)
    calibration_s = time.perf_counter() - t0
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work)
    try:
        wl = CLASSES[args.workload](args.workload, args.seed, work)
        # warm-up, untimed; a failure here shows again in the measured operations
        for item in wl.warmup:
            errors, _ = wl.check(item, wl.op(item, False))
            if errors:
                print(f"perfbench: warm-up {item[0]!r} failed: {errors[:3]}", file=sys.stderr)
        setup_end = time.perf_counter()
        clock.tick(speed.NEIGHBOURS)
        setup_raw = setup_end - T0 - calibration_s
        setup_s = setup_raw * clock.factor(setup_end)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
            return 0

        raw = {}
        if not args.trace:
            ph = Phase(clock)
            ph.run(wl, args.seconds, MIN_OPS, args.hard_seconds)
            values = _timings(ph.scaled())
            raw = _timings(ph.latencies)
            values.update(
                setup_s=setup_s,
                success_rate=(len(ph.latencies) - ph.failed) / len(ph.latencies),
                peak_rss_mb=peak_rss_mb(args.workload),
            )
            raw["setup_s"] = setup_raw
            out = {name: {"value": values[name], "unit": unit} for name, unit in metrics.END_TO_END}
            attempted, failed = len(ph.latencies), ph.failed
        else:
            probes = probe_starts()
            plain = Phase(clock)
            plain.run(wl, args.seconds / 2, 1, args.hard_seconds / 2)
            tr = tracer.Tracer()
            if args.workload != "cli":  # cli operations trace in their own processes
                tr.install()
            traced = Phase(clock)
            traced.run(wl, args.seconds / 2, 1, args.hard_seconds / 2, tr)
            counters = wl.raw if args.workload == "cli" else tr.raw()
            plain_mean = statistics.fmean(plain.scaled())
            traced_mean = statistics.fmean(traced.scaled())
            out = metrics.per_layer(
                counters, len(traced.latencies), sum(traced.latencies), 1.0 - plain_mean / traced_mean, probes, traced.moves
            )
            attempted = len(plain.latencies) + len(traced.latencies)
            failed = plain.failed + traced.failed
        result = {"env": environment(), "attempted": attempted, "failed": failed, "metrics": out, "unscaled": raw}
        if args.workload == "verify":
            result["digests"] = wl.digest_summary()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
