"""Command-line interface for network reduction, property
verification, and swap-outcome enumeration.

All machine output is JSON with a manifest at the head and floats at
12 significant digits, so a fixed seed reproduces identical bytes; a
value computed with numpy, such as the series rule from d = 4 up or an
`outcomes` ensemble, is reproducible for one numpy/LAPACK build.  Exit
codes: 0 success, 2 usage or input schema problems (an unreadable or
unwritable path among them), 3 network not series-parallel, 4
terminals disconnected, 5 verification found violations, 6 invalid
measurement.

`reduce` on a network of d <= 3 loads no numpy: `checks` and
`sampling`, which need it, are imported inside the `verify` and
`outcomes` code that uses them.  A module that serves one flag is
imported where that flag is handled: `logging` for -v, `datetime` for
--timestamp.  So a cold `qnetdet reduce` imports the package,
`argparse`, `json` and what those two import on top of the
interpreter, and no `dataclasses`, `inspect`, `logging`, `datetime` or
`typing`.
From d = 4 up the series rule loads numpy for its SVD.  The argument
parser is built once per process.
"""

import argparse
import contextlib
import functools
import gc
import os
import sys

from . import __version__
from ._jsonio import format_float, render_json
from .errors import (
    DisconnectedTerminals,
    InvalidPovm,
    NotSeriesParallel,
    QnetdetError,
    SingularNormalizer,
)
from .network import _head, parse_network, render_report
from .rules import (
    bell_povm_d2,
    deterministic_swap_povm,
    enumerate_swap_outcomes,
)
from .schmidt import _concurrences, normalize_descending

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_SERIES_PARALLEL = 3
EXIT_DISCONNECTED = 4
EXIT_VIOLATIONS = 5
EXIT_INVALID_POVM = 6

_SEED_ENV = "QNETDET_SEED"


def _fail(message: str, code: int) -> int:
    print(f"qnetdet: {message}", file=sys.stderr)
    return code


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _manifest(subcommand: str, inputs: dict, config: dict, stamp: bool) -> dict:
    ts = None
    if stamp:
        import datetime

        ts = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return {
        "tool": "qnetdet",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "config": config,
        "timestamp": ts,
    }


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{_SEED_ENV} must be an integer, got {env!r}")


# ---------------------------------------------------------------------------
# reduce


def _reduce_csv(rep: dict) -> str:
    # no field holds a comma, a quote or a line break, so none is quoted
    vec = rep["det_vector"]
    d = rep["dimension"]
    head = [f"lambda_{i}" for i in range(1, len(vec) + 1)]
    head += [f"C_{k}" for k in range(1, d + 1)]
    head.append("cep_probability")
    row = [format_float(v) for v in vec]
    row += [format_float(rep["concurrence"][f"C_{k}"]) for k in range(1, d + 1)]
    row.append(format_float(rep["cep_probability"]))
    return ",".join(head) + "\n" + ",".join(row) + "\n"


def _reduce_pretty(rep: dict) -> str:
    lines = [
        f"dimension        {rep['dimension']}",
        f"terminals        {rep['terminals'][0]} {rep['terminals'][1]}",
        f"edges            {rep['edge_count']}",
        f"topology         {rep['topology']}",
        "final vector     " + " ".join(format_float(v) for v in rep["det_vector"]),
    ]
    for key, val in rep["concurrence"].items():
        lines.append(f"{key:<16} {format_float(val)}")
    lines.append(f"cep_probability  {format_float(rep['cep_probability'])}")
    return "\n".join(lines) + "\n"


def cmd_reduce(args) -> int:
    # a reduce leaves no cyclic garbage; collecting costs 18 % at 80k edges
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(args.network, encoding="utf-8") as fh:
            net = parse_network(fh.read())
        if args.format == "csv" or args.pretty:
            head = _head(net)[0]
            _emit(_reduce_csv(head) if args.format == "csv" else _reduce_pretty(head), args.out)
            return EXIT_OK
        manifest = _manifest("reduce", {"network": args.network}, {}, args.timestamp)
        _emit(render_report(net, manifest), args.out)
        return EXIT_OK
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# verify


def _verify_pretty(reports) -> str:
    width = max(len(r.name) for r in reports)
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{width}}  trials {r.trials_run:>6}  "
            f"max_slack {format_float(r.max_slack):>18}  violations {len(r.violations)}"
        )
    bad = sum(1 for r in reports if not r.passed)
    lines.append(f"{len(reports) - bad}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    # before numpy loads; one BLAS thread ran the checks faster and steadier
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    from .checks import CheckConfig, run_checks

    seed = _default_seed(args.seed)
    cfg = CheckConfig(
        dimension=args.d,
        trials=args.trials,
        seed=seed,
        tolerance=args.tol,
        povm_size=args.povm_size,
    )
    try:
        reports = run_checks(args.selector, cfg)
    except KeyError as exc:
        return _fail(str(exc.args[0]), EXIT_USAGE)
    if args.pretty:
        _emit(_verify_pretty(reports), args.out)
    else:
        doc = {
            "manifest": _manifest(
                "verify", {"selector": args.selector}, {k: getattr(cfg, k) for k in cfg.__slots__}, args.timestamp
            ),
            "reports": [r.to_dict() for r in reports],
        }
        _emit(render_json(doc), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# outcomes


def _parse_link(text: str):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise QnetdetError(f"link must be comma-separated numbers, got {text!r}")
    return normalize_descending(values)


def _series_pair_from_network(net):
    if len(net.edges) != 2:
        raise QnetdetError(
            f"outcome enumeration needs exactly two links in series, file has {len(net.edges)}"
        )
    e1, e2 = net.edges
    ends1, ends2 = {e1.u, e1.v}, {e2.u, e2.v}
    shared = ends1 & ends2
    if len(shared) != 1 or (ends1 | ends2) - shared != set(net.terminals):
        raise QnetdetError("the two links must form a chain between the terminals")
    # the link at the first terminal is LA of --links, whatever the file's edge order
    return (e1.link, e2.link) if net.terminals[0] in ends1 else (e2.link, e1.link)


def _build_povm(spec: str, dimension: int, seed: int):
    if spec == "deterministic":
        return deterministic_swap_povm(dimension)
    if spec == "bell":
        if dimension != 2:
            raise InvalidPovm(f"the bell measurement is two-dimensional, links have dimension {dimension}")
        return bell_povm_d2()
    if spec == "random" or spec.startswith("random:"):
        count = dimension * dimension
        if ":" in spec:
            try:
                count = int(spec.split(":", 1)[1])
            except ValueError:
                raise QnetdetError(f"malformed element count in {spec!r}")
            if count < 0:
                raise QnetdetError(f"malformed element count in {spec!r}: must not be negative")
        from . import sampling

        rng = sampling.substream(seed, "outcomes", 0)
        try:
            return sampling.sample_povm(dimension, count, rng)
        except SingularNormalizer as exc:
            raise InvalidPovm(str(exc))
    raise QnetdetError(
        f"unknown measurement {spec!r}; choose deterministic, bell, or random[:K]"
    )


def _outcomes_pretty(doc: dict) -> str:
    d = doc["dimension"]
    ck_names = [f"C_{k}" for k in range(1, d + 1)]
    header = "probability  " + "vector".ljust(17 * d) + "  ".join(f"{n:>16}" for n in ck_names)
    lines = [header]
    for entry in doc["outcomes"]:
        vec = " ".join(f"{format_float(v):>16}" for v in entry["vector"])
        cks = "  ".join(f"{format_float(entry['concurrence'][n]):>16}" for n in ck_names)
        lines.append(f"{format_float(entry['probability']):>11}  {vec}  {cks}")
    avg = "  ".join(f"{n}={format_float(doc['averages'][n])}" for n in ck_names)
    lines.append(f"averages: {avg}")
    return "\n".join(lines) + "\n"


def cmd_outcomes(args) -> int:
    if (args.network is None) == (args.links is None):
        return _fail("provide a network file or --links, not both", EXIT_USAGE)
    seed = _default_seed(args.seed)
    if args.network is not None:
        with open(args.network, encoding="utf-8") as fh:
            net = parse_network(fh.read())
        la, lb = _series_pair_from_network(net)
        inputs = {"network": args.network}
    else:
        la = _parse_link(args.links[0])
        lb = _parse_link(args.links[1])
        if la.dimension != lb.dimension:
            return _fail(
                f"links have different lengths {la.dimension} and {lb.dimension}",
                EXIT_USAGE,
            )
        inputs = {"links": [list(la.entries), list(lb.entries)]}
    d = la.dimension
    povm = _build_povm(args.povm, d, seed)
    ensemble = list(enumerate_swap_outcomes(la, lb, povm))
    ck_names = [f"C_{k}" for k in range(1, d + 1)]
    outcomes = []
    averages = {n: 0.0 for n in ck_names}
    for p, vec in ensemble:
        cks = dict(zip(ck_names, _concurrences(vec)))
        for n in ck_names:
            averages[n] += p * cks[n]
        outcomes.append(
            {
                "probability": p,
                "vector": list(vec.entries),
                "concurrence": cks,
            }
        )
    doc = {
        "manifest": _manifest(
            "outcomes", inputs, {"povm": args.povm, "seed": seed}, args.timestamp
        ),
        "dimension": d,
        "element_count": len(povm.elements),
        "outcomes": outcomes,
        "averages": averages,
    }
    if args.pretty:
        _emit(_outcomes_pretty(doc), args.out)
    else:
        _emit(render_json(doc), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    sub.add_argument(
        "--timestamp",
        action="store_true",
        help="include the current UTC time in the manifest (off by default for reproducibility)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetdet",
        description="Deterministic entanglement transmission over series-parallel networks.",
    )
    parser.add_argument("--version", action="version", version=f"qnetdet {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr: -v for notices such as skipped checks, -vv also for debug detail",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_red = subs.add_parser("reduce", help="reduce a network file to its final state report")
    p_red.add_argument("network", help="network description JSON file")
    p_red.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p_red)
    p_red.set_defaults(func=cmd_reduce)

    p_ver = subs.add_parser("verify", help="run randomized property checks")
    p_ver.add_argument(
        "selector",
        nargs="?",
        default="all",
        help="group (all, lemmas, theorems, amgm, counterexample) or one check name",
    )
    p_ver.add_argument("--d", type=int, default=2, help="link dimension (default 2)")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=None, help=f"root seed (default ${_SEED_ENV} or 0)")
    p_ver.add_argument("--tol", type=float, default=1e-9, help="violation slack tolerance")
    p_ver.add_argument(
        "--povm-size",
        type=int,
        default=None,
        help="sampled measurement element count (default: dimension squared)",
    )
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_out = subs.add_parser("outcomes", help="enumerate swap outcomes of two links in series")
    p_out.add_argument("network", nargs="?", default=None, help="two-link chain network file")
    p_out.add_argument(
        "--links",
        nargs=2,
        metavar=("LA", "LB"),
        help="two comma-separated Schmidt vectors, e.g. 0.9,0.1 0.9,0.1",
    )
    p_out.add_argument(
        "--povm",
        default="deterministic",
        help="deterministic, bell, or random[:K] (default deterministic)",
    )
    p_out.add_argument("--seed", type=int, default=None, help=f"seed for random measurements (default ${_SEED_ENV} or 0)")
    _add_common(p_out)
    p_out.set_defaults(func=cmd_outcomes)
    return parser


@contextlib.contextmanager
def _log_to_stderr(verbosity: int):
    """Send the package's log records to stderr while a command runs:
    INFO and up for -v, DEBUG and up for -vv, nothing without the flag."""
    if not verbosity:
        yield
        return
    import logging

    package = logging.getLogger("qnetdet")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("qnetdet: %(levelname)s %(name)s: %(message)s"))
    level = package.level
    package.addHandler(handler)
    package.setLevel(logging.INFO if verbosity == 1 else logging.DEBUG)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call: parsing
    leaves it unchanged, so every `main` call can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with _log_to_stderr(args.verbose):
        try:
            return args.func(args)
        except NotSeriesParallel as exc:
            return _fail(str(exc), EXIT_NOT_SERIES_PARALLEL)
        except DisconnectedTerminals as exc:
            return _fail(str(exc), EXIT_DISCONNECTED)
        except InvalidPovm as exc:
            return _fail(str(exc), EXIT_INVALID_POVM)
        except (QnetdetError, OSError, ValueError) as exc:
            return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
