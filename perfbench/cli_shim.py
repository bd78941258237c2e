"""Run the qnetdet command line with the benchmark's tracer installed.

Usage: python perfbench/cli_shim.py STATS_PATH ARG...

Behaves like `python -m qnetdet ARG...` and writes the tracer counters
of the `main` call to STATS_PATH as JSON.
"""

import json
import sys

import tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    from qnetdet import cli

    tr.active = True
    try:
        return cli.main(argv)
    finally:
        tr.active = False
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tr.raw(), fh)


if __name__ == "__main__":
    sys.exit(main())
