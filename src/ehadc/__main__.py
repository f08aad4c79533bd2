"""The ehadc command: `python -m ehadc` and the installed script both enter here."""

import os
import sys

# ehadc calls no BLAS routine, and OpenBLAS's idle worker thread, started
# when numpy loads, spins on the CPUs the command's rows need. Set before
# numpy loads; a value the user set is kept. Importing the ehadc library
# alone leaves the environment as it is.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The engine and its modules load before the CLI's stdlib modules, in the
# order `import ehadc` loaded them when it loaded everything: with the CLI
# first, a --jobs 2 sweep's peak RSS read about 0.5 MB higher.
from . import engine  # noqa: E402, F401
from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
