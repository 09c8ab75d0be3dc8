"""Run ``repro`` with the benchmark's timing wrappers installed.

Usage: ``python serve_traced.py SPANS_OUT serve [serve flags...]``

Installs the span wrappers of :mod:`tracing`, calls
``repro.cli.main`` with the remaining arguments, and when it returns
(``repro serve`` returns after SIGTERM and a graceful drain) writes every
recorded span to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
