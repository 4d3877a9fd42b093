"""Regenerate reference.json: the outputs the benchmark's warm-up ops check.

    python3 perfbench/make_reference.py

Each workload's set-up runs one op on inputs made from REFERENCE_SEED (not
from the run's seed); a run fails an op whose summary leaves the stored
tolerance. Regenerate only when a change is meant to alter those outputs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from measure import Tracer  # noqa: E402

# float32 activations and summation order may move the last digits; features
# are in dB, losses and probabilities are O(1).
TOLERANCE = {
    "extract": {"rtol": 1e-4, "atol": 1e-3},
    "train": {"rtol": 1e-3, "atol": 1e-5},
    "predict": {"rtol": 1e-3, "atol": 1e-6},
}


def main():
    out = {}
    scratch = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        for name, cls in workloads.WORKLOADS.items():
            workdir = scratch / name
            workdir.mkdir()
            workload = cls(workdir, 0, Tracer())
            out[name] = {"tolerance": TOLERANCE[name],
                         "values": cls.summary(workload.setup())}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
