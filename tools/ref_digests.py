"""Print the sha256 prefixes of the reference outputs.

Runs `ehadc run` on the three reference configs, the lowfreq alpha sweep at
--jobs 1 and --jobs 2, and the highfreq c_eh sweep, each into its own
temporary directory, with ehadc imported from this checkout's src/. Prints
one line per output file: the first 16 hex digits of its sha256, then the
run and the file name. A change that keeps every output byte prints the same
lines. Other numpy builds may round sin differently, so the prefixes are
only comparable between runs on one numpy build.

    python3 tools/ref_digests.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_OUTPUTS = ("trace.csv", "codes.csv", "spectrum.csv", "summary.json")
ALPHA_SWEEP = ["sweep", "configs/lowfreq.cfg", "--param", "alpha", "--values", "0.05:0.3:0.05"]
C_EH_SWEEP = ["sweep", "configs/highfreq.cfg", "--param", "c_eh", "--values", "1e-6,3e-6,1e-5,1e-4"]
# (label, ehadc arguments, output files)
RUNS = (
    ("lowfreq", ["run", "configs/lowfreq.cfg"], RUN_OUTPUTS),
    ("highfreq", ["run", "configs/highfreq.cfg"], RUN_OUTPUTS),
    ("lowfreq_pass", ["run", "bench/configs/lowfreq_pass.cfg"], RUN_OUTPUTS),
    ("alpha --jobs 1", [*ALPHA_SWEEP, "--jobs", "1"], ("sweep.csv",)),
    ("alpha --jobs 2", [*ALPHA_SWEEP, "--jobs", "2"], ("sweep.csv",)),
    ("c_eh", C_EH_SWEEP, ("sweep.csv",)),
)


def main() -> int:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, argv, files) in enumerate(RUNS):
            out = Path(tmp) / str(n)
            subprocess.run([sys.executable, "-m", "ehadc", *argv, "--out", str(out)],
                           cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            for file in files:
                digest = hashlib.sha256((out / file).read_bytes()).hexdigest()[:16]
                print(f"{digest}  {name}  {file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
