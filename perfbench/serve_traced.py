"""Run `esf serve` with the benchmark's span wrappers installed.

Usage: python3 perfbench/serve_traced.py TRACE_OUT serve --config CFG ...

Everything after TRACE_OUT is the esf command line, unchanged. When the
server exits, its span totals are written to TRACE_OUT as JSON.
"""

import sys

from spans import Tracer, install_server


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_server(tracer)
    tracer.active = True
    from esf.cli import main as esf_main

    try:
        return esf_main(argv)
    finally:
        tracer.active = False
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
