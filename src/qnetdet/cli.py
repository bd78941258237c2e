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
--timestamp.  A plain argv (the subcommand, its exact flags with each
value its own token, its positionals) is read by `_read` from the
option table `_COMMANDS`; argparse, built from the same table, is
imported only for any other argv, built afresh for each such argv, and
prints the help, the version and every usage error.  So a cold
`qnetdet reduce` imports the package, `json` and what it imports on
top of the interpreter, and no `argparse` (nor its `gettext` and
`locale`), `dataclasses`, `inspect`, `logging`, `datetime` or `typing`.
From d = 4 up the series rule loads numpy for its SVD.
"""

import contextlib
import gc
import os
import sys
import types

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
    if args.network is None and args.links is None:
        return _fail("provide a network file or --links", EXIT_USAGE)
    if args.network is not None and args.links is not None:
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
# arguments


def _arg(*flags, **kw):
    """One argument: its flags (a positional's name), the dest argparse
    derives from them, and the keywords `add_argument` takes."""
    return flags, flags[-1].lstrip("-").replace("-", "_"), kw


_VERBOSE = _arg(
    "-v", "--verbose", action="count", default=0,
    help="log to stderr: -v for notices such as skipped checks, -vv also for debug detail",
)
_VERBOSE_COUNTS = {"-v": 1, "-vv": 2, "--verbose": 1}  # the -v forms `_read` reads itself

_COMMON = (
    _arg("--pretty", action="store_true", help="human-readable output instead of JSON"),
    _arg("--out", metavar="PATH", help="write output to a file instead of stdout"),
    _arg(
        "--timestamp", action="store_true",
        help="include the current UTC time in the manifest (off by default for reproducibility)",
    ),
)

# each subcommand's help, handler and arguments, in the order the help lists them
_COMMANDS = {
    "reduce": ("reduce a network file to its final state report", cmd_reduce, (
        _arg("network", help="network description JSON file"),
        _arg("--format", choices=("json", "csv"), default="json"),
        *_COMMON,
    )),
    "verify": ("run randomized property checks", cmd_verify, (
        _arg(
            "selector", nargs="?", default="all",
            help="group (all, lemmas, theorems, amgm, counterexample) or one check name",
        ),
        _arg("--d", type=int, default=2, help="link dimension (default 2)"),
        _arg("--trials", type=int, default=1000),
        _arg("--seed", type=int, default=None, help=f"root seed (default ${_SEED_ENV} or 0)"),
        _arg("--tol", type=float, default=1e-9, help="violation slack tolerance"),
        _arg(
            "--povm-size", type=int, default=None,
            help="sampled measurement element count (default: dimension squared)",
        ),
        *_COMMON,
    )),
    "outcomes": ("enumerate swap outcomes of two links in series", cmd_outcomes, (
        _arg("network", nargs="?", default=None, help="two-link chain network file"),
        _arg(
            "--links", nargs=2, metavar=("LA", "LB"),
            help="two comma-separated Schmidt vectors, e.g. 0.9,0.1 0.9,0.1",
        ),
        _arg("--povm", default="deterministic", help="deterministic, bell, or random[:K] (default deterministic)"),
        _arg("--seed", type=int, default=None, help=f"seed for random measurements (default ${_SEED_ENV} or 0)"),
        *_COMMON,
    )),
}


def build_parser():
    """The argparse parser of `_VERBOSE` and `_COMMANDS`, which prints
    the help, the version and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qnetdet",
        description="Deterministic entanglement transmission over series-parallel networks.",
    )
    parser.add_argument("--version", action="version", version=f"qnetdet {__version__}")
    parser.add_argument(*_VERBOSE[0], **_VERBOSE[2])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, func, table) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for flags, _, kw in table:
            sub.add_argument(*flags, **kw)
        sub.set_defaults(func=func)
    return parser


def _read(argv):
    """`vars(build_parser().parse_args(argv))` as a namespace, for the
    argv that every supported Python parses alike: -v, -vv or --verbose,
    the subcommand, then its exact flags, each value its own token, and
    its positionals (an optional one before any flag).  None for any
    other argv, which argparse answers: help, version, abbreviations,
    --opt=value, --, dash-led values and every error."""
    i = 0
    while i < len(argv) and argv[i] in _VERBOSE_COUNTS:
        i += 1
    if i == len(argv) or argv[i] not in _COMMANDS:
        return None
    _, func, table = _COMMANDS[argv[i]]
    ns = {"verbose": sum(_VERBOSE_COUNTS[tok] for tok in argv[:i]), "subcommand": argv[i], "func": func}
    options, positionals = {}, []
    for flags, dest, kw in table:
        ns[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
        if flags[0][0] == "-":
            options.update(dict.fromkeys(flags, (dest, kw)))
        else:
            positionals.append((dest, kw))
    rest = iter(argv[i + 1 :])
    flagged = False
    for tok in rest:
        if tok[:1] == "-":
            if tok not in options:
                return None
            dest, kw = options[tok]
            flagged = True
            if kw.get("action") == "store_true":
                ns[dest] = True
                continue
            # a value missing at the end reads as "-", which defers
            values = [next(rest, "-") for _ in range(kw.get("nargs") or 1)]
            if any(v[:1] == "-" for v in values):
                return None
            try:
                values = [kw.get("type", str)(v) for v in values]
            except ValueError:
                return None
            if "choices" in kw and any(v not in kw["choices"] for v in values):
                return None
            ns[dest] = values if kw.get("nargs") else values[0]
        elif positionals and not (flagged and positionals[0][1].get("nargs") == "?"):
            ns[positionals.pop(0)[0]] = tok
        else:
            return None
    if any(kw.get("nargs") != "?" for _, kw in positionals):
        return None
    return types.SimpleNamespace(**ns)


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
