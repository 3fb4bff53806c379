"""The esf command line (`python -m esf`, or the `esf` script).

esf runs in parallel across records and server processes, and its matrix
products are small per-record ones (the mel filterbank). A multi-threaded
BLAS only adds workers that busy-wait between them: in a server they held a
core beside the producer and made throughput vary from run to run. So unless
the caller chose a thread count, BLAS runs on the calling thread. The
variables are read when numpy loads, hence before esf.cli is imported; child
processes (servers started by `esf launch` and `esf bench`) inherit them.
"""

import os
import sys

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
