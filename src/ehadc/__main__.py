"""The ehadc command: `python -m ehadc` and the installed script both enter here."""

import atexit
import gc
import os
import sys

# ehadc calls no BLAS routine, and OpenBLAS's idle worker thread, started
# when numpy loads, spins on the CPUs the command's rows need. Set before
# numpy loads; a value the user set is kept. Importing the ehadc library
# alone leaves the environment as it is.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# At exit, move every live object to the collector's permanent generation,
# so the full collections the interpreter runs at shutdown skip what numpy
# and ehadc leave behind (15-19 ms a command on a 2-core VM). It
# relies on no command leaving a file open for shutdown to close: a frozen
# file object in a reference cycle is never finalised. Handlers run last
# registered first, so this one runs after those of the modules below.
atexit.register(gc.freeze)

# The engine and its modules load before the CLI's stdlib modules, in the
# order `import ehadc` loaded them when it loaded everything: with the CLI
# first, a --jobs 2 sweep's peak RSS read about 0.5 MB higher.
from . import engine  # noqa: E402, F401
from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
