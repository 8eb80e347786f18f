"""ficalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {report,predict,modfile} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ficalc is imported from its ``src``.  Each
run starts fresh worker processes (``worker.py``) with ``FI_CALC_THREADS``
removed from their environment: ``SETUPS`` that only set up, for the set-up
time, then one that sets up again and runs passes of the workload's jobs for
about ``--seconds`` (at least one pass).  Load model: one process, one
thread, closed loop, one job at a time, back to back.

With ``--trace 0`` the result carries the end-to-end metrics:

- ``pass_s``: median time of one pass of the job list, in reference seconds
  (``speed.py``: the wall time scaled by the host speed, which the worker
  samples in its own thread while the jobs run);
- ``setup_s``: median time from starting a worker to its first job being
  ready (interpreter start, ``import ficalc``, input generation), in
  reference seconds sampled the same way by the worker during set-up;
- ``peak_rss_mb``: peak resident memory of the measuring worker.

The raw wall and CPU times (``pass_wall_s``, ``pass_cpu_s``,
``setup_wall_s``) are printed and kept in ``.perfbench/result-*.json``.

With ``--trace 1`` every untraced pass is followed by one with the public
ficalc functions wrapped (``tracing.py``), and the result carries the
per-layer metrics instead, including ``trace.overhead_frac``, the traced
over the untraced median pass time, minus one.  Spans go to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last line of standard
output is the JSON result.  The exit code is 1 when any job fails its oracle
or golden digest, or a traced layer reads 0 on a workload that should move
it, and 2 when the run cannot be made at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report", "predict", "modfile")
SETUPS = 6
TIMEOUT_S = 170


def _environment() -> dict:
    """Commit (when the checkout is a git repository), interpreter, CPUs and
    a digest of the library sources, recorded with every result."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ficalc").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _worker(args, setup_only: bool, deadline: float) -> tuple[float, float, dict | None]:
    """Start one worker, killed if it outlives ``deadline`` (a perf_counter
    time); returns (set-up wall seconds, set-up reference seconds, its
    result or None)."""
    env = {k: v for k, v in os.environ.items() if k != "FI_CALC_THREADS"}
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    ready = first.split()
    if len(ready) != 3 or ready[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} before finishing set-up or run")
    busy, scale = float(ready[1]), float(ready[2])
    reference = (setup - busy) * scale
    if setup_only:
        return setup, reference, None
    return setup, reference, json.loads(rest.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="ficalc benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ficalc" / "__init__.py").is_file():
        print(f"no ficalc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    setup_walls, setups = [], []
    try:
        for i in range(SETUPS + 1):
            setup, reference, result = _worker(args, i < SETUPS, deadline)
            setup_walls.append(setup)
            setups.append(reference)
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    env = _environment()
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, values, unit_name in (
        ("pass_s", result["pass_s"], "reference s"),
        ("pass_wall_s", result["pass_wall_s"], "s"),
        ("pass_cpu_s", result["pass_cpu_s"], "s"),
        ("setup_s", setups, "reference s"),
        ("setup_wall_s", setup_walls, "s"),
    ):
        print(f"{name:13s} median {median(values):.4f} {unit_name}  max {max(values):.4f}  ({len(values)} samples)")
    print(f"peak_rss_mb   {result['peak_rss_mb']:.1f} MB")
    print(f"failed_frac   {failed / attempted:.4f} ({failed} of {attempted} jobs failed)")

    correct = failed == 0
    if args.trace:
        import tracing

        metrics = {
            name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
            for name, value in result["per_layer"].items()
        }
        for name, metric in metrics.items():
            print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
        for name in result["missing_layers"]:
            print(f"layer metric {name} read 0 on {args.workload}", file=sys.stderr)
        correct = correct and not result["missing_layers"]
        print(f"spans written to {result['spans_file']}")
    else:
        metrics = {
            "pass_s": {"value": median(result["pass_s"]), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
              "setup_s": setups, "setup_wall_s": setup_walls, "result": result}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
