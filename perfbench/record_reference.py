"""Write reference_seed0.json: the `result` object of every CLI call and
the replicate-CSV sha256 of every pooled job, at the default seed.

    python3 perfbench/record_reference.py

The benchmark compares default-seed runs against this file.  Regenerate it
only for a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    refs = {}
    scratch = run.ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    clock = run.OpClock()
    clock.install()
    try:
        for name in run.WORKLOADS:
            workdir = Path(tempfile.mkdtemp(dir=scratch))
            try:
                inputs = workloads.build(name, run.DEFAULT_SEED, workdir)
                refs[name] = {}
                for job in inputs.jobs + [inputs.peak]:
                    r = run.run_job(job, clock)
                    if r.error:
                        raise SystemExit(f"{name} {job.key}: {r.error}")
                    refs[name][job.key] = {
                        "results": r.results,
                        "replicates_csv_sha256": r.csv_sha256,
                    }
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    finally:
        clock.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    body = {"seed": run.DEFAULT_SEED, "workloads": refs}
    run.REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
