"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Seeds: on ``representable(2, 6)`` two seeds relabel the bases differently
   and still give identical canonical outputs for the predict and module-file
   jobs, so the relabelling preserves every answer the digests pin.
2. Wrapping: ``Tracer.install`` replaces the functions under the names their
   callers bound (``ficalc.nervehom.homology``, ``ficalc.cli.load_module``,
   ``ficalc.cli.validate``, ...) and ``restore`` puts every original back.
3. Coverage: a short traced run of each workload exits 0, which ``run.py``
   allows only when every per-layer metric expected to move on that workload
   read nonzero, so a renamed library function fails here rather than
   reporting 0.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import tracing  # noqa: E402
from ficalc.fimod import representable  # noqa: E402


def check_seeds() -> None:
    base = representable(2, 6)
    first, second = (jobs.relabel(base, random.Random(seed)) for seed in (1, 2))
    if first.transpositions[6][0].columns == second.transpositions[6][0].columns:
        raise AssertionError("seeds 1 and 2 gave the same labelling")
    predicted = [jobs.check_predict(jobs.predict_work(m, 6, 3)) for m in (first, second)]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        stored = [
            jobs.check_modfile(jobs.modfile_work(m, Path(tmp) / f"seed{i}.json", 6), set())
            for i, m in enumerate((first, second))
        ]
    for name, (a, b) in (("predict", predicted), ("modfile", stored)):
        if a[1] or b[1]:
            raise AssertionError(f"{name} oracle failed: {a[1] + b[1]}")
        if a[0] != b[0]:
            raise AssertionError(f"{name} canonical output depends on the seed")


def check_wrapping() -> None:
    import ficalc.cli
    import ficalc.exactla
    import ficalc.fimod.io
    import ficalc.nervehom

    callers = {
        (ficalc.nervehom, "homology"): ficalc.exactla.homology,
        (ficalc.cli, "load_module"): ficalc.fimod.io.load_module,
        (ficalc.cli, "validate"): ficalc.cli.validate,
        (jobs, "save_module"): ficalc.fimod.io.save_module,
    }
    originals = {
        (module, attribute): tracing.resolve(module, attribute)[2]
        for module, attribute, *_ in tracing.SPANNED + tracing.COUNTED
    }
    tracer = tracing.Tracer(ROOT)
    tracer.install()
    try:
        for (module, name), original in callers.items():
            if getattr(module, name) is original:
                raise AssertionError(f"{module.__name__}.{name} was not wrapped")
    finally:
        tracer.restore()
    for (module, name), original in callers.items():
        if getattr(module, name) is not original:
            raise AssertionError(f"{module.__name__}.{name} was not restored")
    for (module, attribute), original in originals.items():
        if tracing.resolve(module, attribute)[2] is not original:
            raise AssertionError(f"{module}.{attribute} was not restored")


def check_coverage() -> None:
    for workload in jobs.WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", "1"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            raise AssertionError(f"traced {workload} run exited {done.returncode}:\n{done.stderr}")


def main() -> int:
    for check in (check_seeds, check_wrapping, check_coverage):
        check()
        print(f"{check.__name__}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
