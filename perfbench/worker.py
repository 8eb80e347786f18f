"""One benchmark process: set up a workload, then run passes of its jobs.

Started by ``run.py``.  It prints ``ready <busy> <scale>`` once ficalc is
imported and the inputs are generated (the parent times set-up up to that
line); ``busy`` is the seconds of ``speed.Sampler`` slices taken during
set-up and ``scale`` the reference seconds per second they measured, so the
parent can scale the set-up time.  With ``--setup-only`` it stops there.  Otherwise it runs passes back to back
(one thread, closed loop, one job at a time) until the next pass would end
after ``--seconds``, always at least one.  Every job is checked against its
oracle and golden digest outside the timed region.

Passes run under a ``speed.Sampler``: its slices are subtracted from the
job times (``pass_wall_s``, ``pass_cpu_s``) and each job's remainder is
scaled to reference seconds by the slices taken during that job
(``pass_s``).  With ``--trace 1`` each untraced pass is
followed by a traced one, so the tracing overhead is measured on
neighbouring passes.  The last line printed is one JSON object:
per-pass timings, peak memory, job counts and, when tracing, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_library():
    """Import ficalc from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import ficalc

    if not Path(ficalc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"ficalc was imported from {ficalc.__file__}, not from {ROOT / 'src'}")


def _clear_caches() -> None:
    """Empty ficalc's process-wide memo tables, so every pass starts as cold
    as a fresh ``fi-calc`` process does."""
    for name, module in list(sys.modules.items()):
        if name == "ficalc" or name.startswith("ficalc."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run_pass(jobs_, golden, tracer, label):
    """Run every job once; returns (job intervals, cpu, failures).  Oracles
    run with the tracer paused and outside the timed intervals."""
    _clear_caches()
    gc.collect()
    intervals = []
    cpu = 0.0
    failures = []
    for job in jobs_:
        if tracer is not None:
            tracer.job = f"{label}/{job.name}"
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = job.work()
        except Exception:
            failures.append(f"{job.name}: raised\n{traceback.format_exc()}")
            continue
        finally:
            intervals.append((t0, time.perf_counter()))
            cpu += time.process_time() - c0
        if tracer is not None:
            tracer.enabled = False
        try:
            canonical, problems = job.check(result)
        except Exception:
            failures.append(f"{job.name}: oracle raised\n{traceback.format_exc()}")
            continue
        finally:
            if tracer is not None:
                tracer.enabled = True
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        if golden.get(job.name) != digest:
            problems.append(f"digest {digest} differs from golden {golden.get(job.name)}")
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
    return intervals, cpu, failures


def _sampled_pass(jobs_, golden, tracer, label):
    """A pass under a ``speed.Sampler``: returns (work seconds, reference
    seconds, cpu seconds, failures), the sampler's own time taken out.  When
    tracing, the sampler's slices are also taken out of the span times."""
    with speed.Sampler() as sampler:
        intervals, cpu, failures = _run_pass(jobs_, golden, tracer, label)
    busy = [sampler.busy(a, b) for a, b in intervals]
    walls = [b - a - s for (a, b), s in zip(intervals, busy)]
    reference = sum(w * sampler.scale(a, b) for w, (a, b) in zip(walls, intervals))
    if tracer is not None:
        tracer.exclude((start, end) for start, end, _ in sampler.slices)
    return sum(walls), reference, cpu - sum(busy), failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with speed.Sampler() as sampler:
        _import_library()
        import jobs
        import tracing

        workdir = ROOT / ".perfbench" / f"work-{args.workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        jobs_ = jobs.build(args.workload, args.seed, workdir)
    print(f"ready {sampler.busy(0.0, float('inf'))!r} {sampler.scale()!r}", flush=True)
    if args.setup_only:
        return 0

    golden = json.loads((HERE / "golden.json").read_text())
    tracer = tracing.Tracer(ROOT) if args.trace else None
    scaled, walls, cpus, traced, layers, failures = [], [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        wall, reference, cpu, failed = _sampled_pass(jobs_, golden, None, len(walls))
        scaled.append(reference)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(jobs_)
        failures += failed
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.install()
            try:
                wall, reference, _, failed = _sampled_pass(jobs_, golden, tracer, len(traced))
            finally:
                tracer.restore()
            traced.append(reference)
            layers.append(tracer.pass_metrics(first_span, wall))
            attempted += len(jobs_)
            failures += failed
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > args.seconds:
            break

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    out = {
        "pass_s": scaled,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": len(failures),
    }
    if tracer is not None:
        per_layer = {m: median(p[m] for p in layers) for m in tracing.PER_LAYER if m in layers[0]}
        per_layer["trace.overhead_frac"] = median(traced) / median(scaled) - 1
        out["per_layer"] = per_layer
        out["missing_layers"] = tracing.missing_layers(args.workload, per_layer)
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
