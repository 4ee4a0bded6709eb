"""Regenerate the stored reference CSV of cli-rescaled-artifacts (seed 0).

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the workload's seed-0 configuration once through the CLI and copies its
diagnostics.csv into perfbench/reference/.  Every benchmark run of that
workload is checked against this file, so regenerate it only on purpose.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        st = workloads.cli_setup(0, Path(tmp))
        status = workloads.cli_solve(st)
        if status != 0:
            print(f"error: entroflow rescaled exited with {status}", file=sys.stderr)
            return 1
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        shutil.copyfile(st.out / "diagnostics.csv", workloads.CLI_REFERENCE)
    print(f"wrote {workloads.CLI_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
