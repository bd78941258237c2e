"""An argv corpus drawn from `qnetdet.cli`'s option table, and the
check that the command line's direct reader agrees with argparse on it.

`cli.main` reads plain argv itself (`cli._read`) and hands every other
argv to argparse.  The reader must return, for each argv, either None
or a namespace whose `vars()` equal those of
`build_parser().parse_args(argv)`; where argparse exits (help, version,
a usage error) it must return None.  The corpus covers every
subcommand with its options in many orders, before and after the
positionals, repeated options, -v to -vvv, empty strings, and the forms
the reader leaves to argparse: abbreviations, --opt=value, --,
dash-led and negative values, bad ints, floats and choices, surplus
positionals, -h and --version.  ANSWERED lists the argv that the
goldens and the benchmark's `cli` and `reduce-*` workloads run; the
reader must answer each of them, and agree with argparse on them.

argparse's parsing details differ between Python versions, so this
module needs no numpy and also runs as a script on any Python:

    PYTHONPATH=src python tests/_argv_cases.py

checks the whole corpus and ANSWERED, prints the counts and the wall
time, and exits 1 on the first few disagreements.
"""

import contextlib
import io
import itertools
import random
import sys
import time

from qnetdet import cli

GOLDEN_NETWORKS = ("single_link", "chain", "parallel_pair", "triangle", "parallel_then_series", "nested_qutrit")
BELL = ["outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "bell"]

ANSWERED = [
    # the goldens, to stdout and to a file
    *(["reduce", f"networks/{net}.json"] for net in GOLDEN_NETWORKS),
    *(["reduce", f"networks/{net}.json", "--out", f"/tmp/reduce_{net}.json"] for net in GOLDEN_NETWORKS),
    ["reduce", "networks/parallel_then_series.json", "--format", "csv"],
    BELL,
    [*BELL, "--out", "/tmp/outcomes_bell.json"],
    # the benchmark: `reduce-*` in process, `cli` as fresh processes
    ["reduce", "/tmp/qnetdet-bench/net.json", "--out", "/tmp/qnetdet-bench/out.json"],
    *(["reduce", f"networks/{net}.json"] for net in ("bridge", "triangle")),
]

# value tokens per option type: good ones, bad ones that are not
# dash-led, and dash-led ones
_GOOD = {int: ["3", "+4", " 5 ", "0"], float: ["1e-3", "0.5", "inf", "nan", "7"], str: ["out.json", "", "a b", "x=y"]}
_BAD = {int: ["x", "1.5", "", "3e2"], float: ["abc", "", "1,5"], str: []}
_DASHED = ["-3", "-0.1,1.1", "-1e-3", "-", "--", "-x"]
_VERBOSE = [[], ["-v"], ["-vv"], ["-vvv"], ["--verbose"], ["-v", "-v"], ["--verbose", "-vv"]]
_NOT_VERBOSE = [["--verb"], ["--vers"], ["-V"], ["-v", "--"], ["-vx"], ["--verbose=1"]]


def _values(kw):
    """Good and bad value tokens for an option."""
    if "choices" in kw:
        return list(kw["choices"]), ["xml", "JSON", ""]
    kind = kw.get("type", str)
    return _GOOD[kind], _BAD[kind] + _DASHED


def corpus(seed=0):
    """The argv corpus, in a fixed order."""
    rng = random.Random(seed)
    cases = [[], ["-h"], ["--help"], ["--version"], ["-v"], ["-vv", "--version"], ["red", "x"], ["frob"], ["x", "reduce"]]
    for name, (_, _, table) in cli._COMMANDS.items():
        cases += [[*prefix, name, "net.json"] for prefix in _VERBOSE + _NOT_VERBOSE]
        cases += [[name, *rest] for rest in ([], ["-h"], ["--help"], ["--version"], ["-"], ["--"], ["--", "net.json"])]
        cases += [[name, *rest] for rest in (["net.json", "--"], ["net.json", "extra"], ["net.json", "-v"], ["-v", "x"])]
        cases += [[name, value, *rest] for value in ("", "all", "a b") for rest in ([], ["--pretty"])]
        # one good use of each option
        uses = []
        for flags, _, kw in table:
            if flags[0][0] != "-":
                continue
            flag, n = flags[0], kw.get("nargs") or 1
            if kw.get("action") == "store_true":
                uses.append([flag])
                pieces = [[flag], [flag, flag]]
            else:
                good, bad = _values(kw)
                uses.append([flag, *[good[0]] * n])
                # each value, a missing one, the last of two uses
                pieces = [[flag, *[v] * n] for v in good + bad]
                pieces += [[flag], [flag, *[good[0]] * n, flag, *[good[-1]] * n]]
                pieces += [[flag, "0.9,0.1"], [flag, "0.9,0.1", "-0.1,1.1"], [flag, "-0.1,1.1", "0.5,0.5"]] if n > 1 else []
            # alone, after the positional and before it
            cases += [[name, *p] for p in pieces] + [[name, "net.json", *p] for p in pieces]
            cases += [[name, *p, "net.json"] for p in pieces]
            # abbreviations and --opt=value
            cases += [[name, "net.json", flag[:cut], *uses[-1][1:]] for cut in range(3, len(flag))]
            cases.append([name, "net.json", f"{flag}={(uses[-1] + ['1'])[1]}"])
        # every pair of uses (the positional among them) in both orders
        for a, b in itertools.permutations([*uses, ["net.json"]], 2):
            cases.append([name, *a, *b])
        # seeded shuffles of every use, with the positional anywhere and
        # first, under each verbose prefix
        for prefix in _VERBOSE:
            for _ in range(12):
                order = [*uses, ["net.json"]]
                rng.shuffle(order)
                cases.append([*prefix, name, *itertools.chain.from_iterable(order)])
                rng.shuffle(uses)
                cases.append([*prefix, name, "net.json", *itertools.chain.from_iterable(uses)])
    return cases


def _canonical(namespace):
    # NaN is not equal to itself, so floats compare by their repr
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(namespace).items()}


def argparse_answer(parser, argv):
    """`vars(parser.parse_args(argv))`, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _canonical(parser.parse_args(argv))
        except SystemExit:
            return None


def disagreements(cases):
    """The argv on which the reader neither defers nor agrees with
    argparse, with both answers; and how many argv it answered."""
    parser = cli.build_parser()
    bad, answered = [], 0
    for argv in cases:
        got = cli._read(list(argv))
        if got is None:
            continue
        answered += 1
        want = argparse_answer(parser, argv)
        if _canonical(got) != want:
            bad.append((argv, _canonical(got), want))
    return bad, answered


def main():
    start = time.perf_counter()
    cases = corpus() + ANSWERED
    bad, answered = disagreements(cases)
    deferred = [argv for argv in ANSWERED if cli._read(list(argv)) is None]
    print(
        f"python {sys.version.split()[0]}: {len(cases)} argv, {answered} answered, "
        f"{len(cases) - answered} deferred, {len(bad)} disagreements; "
        f"{len(deferred)} of {len(ANSWERED)} answered argv deferred "
        f"({time.perf_counter() - start:.1f} s)"
    )
    for argv, got, want in bad[:5]:
        print(f"  {argv!r}: reader {got!r}, argparse {want!r}")
    for argv in deferred[:5]:
        print(f"  deferred {argv!r}")
    return 1 if bad or deferred else 0


if __name__ == "__main__":
    sys.exit(main())
