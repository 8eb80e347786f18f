"""Record ``golden.json``: the digest of every job's canonical output.

    python3 perfbench/record_golden.py

Runs each workload's jobs once (seed 0) and writes the digests only if every
oracle passes.  Canonical outputs do not depend on the seed, so the digests
hold for every seed.  Re-record only when a change is meant to alter output.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    golden = {}
    for workload in jobs.WORKLOADS:
        for job in jobs.build(workload, 0, workdir):
            canonical, problems = job.check(job.work())
            if problems:
                print(f"{job.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            golden[job.name] = hashlib.sha256(canonical.encode()).hexdigest()
            print(job.name, golden[job.name])
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
