"""Benchmark workloads: seeded inputs, the jobs that run on them, and oracles.

Every job is a ``Job``: ``work`` is the timed call into ficalc and returns its
raw result; ``check`` is the independent oracle, run untimed, which returns
the job's canonical output text and a list of problems.  The canonical text
does not depend on the basis labelling, so its digest is the same for every
seed and is pinned in ``golden.json``.

Why these workloads:

- ``report``: the end-to-end command, dominated by the nerve certificate
  (poset, dense boundary assembly, Smith normal form).  Every cell builds its
  own module, so the per-module coinvariant caches start cold.
- ``predict``: the coefficient pipeline (coinvariant quotients, cube
  differentials, rational homology, traces, transitions) and the character
  path, with no Smith normal form or nerve work.  One module is shared per m,
  so the coinvariant cache runs warm.
- ``modfile``: serialization, dense JSON parsing and ``validate``, with no
  elimination at all.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ficalc import cli
from ficalc.exactla import SparseMatrix, rank
from ficalc.fimod import (
    FIModule,
    coefficient_profile,
    dictionary_prediction,
    free_module,
    load_module,
    representable,
    save_module,
    stable_decomposition,
    taylor_coefficient,
)
from ficalc.symrep import partitions_of, specht_dimension

WORKLOADS = ("report", "predict", "modfile")

REPORT_ARGV = ("report", "--n-max", "3", "--k-max", "7", "--format", "json")
WINDOW = 9
PREDICT_RANKS = range(0, 5)
TOP_INDEX = 4
MODFILE_RECIPES = (("representable", 2), ("free", (2, 1)), ("free", (2, 2)), ("free", (1, 1, 1)))


@dataclass
class Job:
    name: str
    work: Callable[[], Any]
    check: Callable[[Any], tuple[str, list[str]]]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _conjugate(m: SparseMatrix, src: list[int], tgt: list[int]) -> SparseMatrix:
    """The matrix of m after renaming source basis b to src[b], target r to tgt[r]."""
    cols: list[dict] = [{} for _ in range(m.cols)]
    for b, col in enumerate(m.columns):
        cols[src[b]] = {tgt[r]: v for r, v in col.items()}
    return SparseMatrix(m.rows, m.cols, cols)


def relabel(module: FIModule, rng: random.Random) -> FIModule:
    """An isomorphic copy: each degree's basis renamed by a random permutation."""
    perms = []
    for d in module.dims:
        perm = list(range(d))
        rng.shuffle(perm)
        perms.append(perm)
    transpositions = [
        [_conjugate(g, perms[k], perms[k]) for g in gens]
        for k, gens in enumerate(module.transpositions)
    ]
    inclusions = [
        _conjugate(m, perms[k], perms[k + 1]) for k, m in enumerate(module.inclusions)
    ]
    return fresh(module, transpositions, inclusions)


def fresh(module: FIModule, transpositions=None, inclusions=None) -> FIModule:
    """A new instance over the same matrices, so its per-module caches are empty."""
    return FIModule(
        module.name,
        module.max_degree,
        module.generation_bound,
        module.dims,
        module.transpositions if transpositions is None else transpositions,
        module.inclusions if inclusions is None else inclusions,
    )


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    """``fi-calc argv`` in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _partition_text(lam) -> str:
    return ",".join(str(x) for x in lam)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _check_report(result) -> tuple[str, list[str]]:
    code, text = result
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return text, problems + [f"output is not JSON: {exc}"]
    cells = [c for section in doc.get("sections", ()) for c in section["cells"]]
    failing = [c["cell"] for c in cells if not c["passed"]]
    if not cells or failing or doc.get("passed") is not True:
        problems.append(f"report did not pass; failing cells {failing}")
    return text, problems


def report_jobs() -> list[Job]:
    return [Job("report", lambda: run_cli(REPORT_ARGV), _check_report)]


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def predict_work(module: FIModule, window: int, top: int):
    """What ``fi-calc predict --k window`` does, plus the vanishing coefficients."""
    m = module.generation_bound
    vanishing = [
        (n, taylor_coefficient(module, n))
        for n in range(m + 1, top + 1)
        if n + m + 1 <= window
    ]
    profile = coefficient_profile(module)
    prediction = dictionary_prediction(profile, window)
    direct = stable_decomposition(module, window)
    return vanishing, profile, prediction, direct


def check_predict(result) -> tuple[str, list[str]]:
    vanishing, profile, prediction, direct = result
    problems = []
    m = len(profile.coefficients) - 1
    coefficients = []
    for n, coeff in enumerate(profile.coefficients):
        count = math.factorial(m) // math.factorial(m - n)
        if coeff.dims != (count,) + (0,) * n:
            problems.append(f"C_{n} dims {coeff.dims}, expected ({count}, 0...)")
        regular = tuple(count if all(p == 1 for p in ct) else 0 for ct in partitions_of(n))
        if coeff.characters[0].values != regular:
            problems.append(f"C_{n} character {coeff.characters[0].values} is not regular")
        coefficients.append(
            {
                "n": n,
                "witness": coeff.witness,
                "dims": list(coeff.dims),
                "characters": [[str(v) for v in chi.values] for chi in coeff.characters],
            }
        )
    for n, coeff in vanishing:
        if any(coeff.dims):
            problems.append(f"C_{n} should vanish, has dims {coeff.dims}")
    predicted, observed = prediction.nonzero(), direct.nonzero()
    if predicted != observed:
        problems.append(f"prediction {predicted} != direct decomposition {observed}")
    doc = {
        "module": profile.module_name,
        "coefficients": coefficients,
        "transition_ranks": [rank(t) for t in profile.transitions],
        "vanishing": [{"n": n, "dims": list(c.dims)} for n, c in vanishing],
        "prediction": [[_partition_text(lam), mult] for lam, mult in sorted(predicted.items())],
    }
    return _canonical(doc), problems


def predict_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for m in PREDICT_RANKS:
        module = relabel(representable(m, WINDOW), rng)
        jobs.append(
            Job(
                f"predict.m{m}",
                lambda module=module: predict_work(fresh(module), WINDOW, TOP_INDEX),
                check_predict,
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# modfile
# ---------------------------------------------------------------------------


def modfile_work(module: FIModule, path: Path, k: int):
    save_module(module, path)
    validated = run_cli(("validate", str(path)))
    decomposed = run_cli(("decompose", str(path), "--k", str(k)))
    return module, path, k, validated, decomposed


def check_modfile(result, roundtripped: set[str]) -> tuple[str, list[str]]:
    """``roundtripped`` holds digests of files whose save -> load -> save
    already reproduced their bytes; saving is deterministic, so later passes
    that write the same bytes skip the expensive reload."""
    module, path, k, (v_code, v_text), (d_code, d_text) = result
    problems = []
    saved = path.read_bytes()
    digest = hashlib.sha256(saved).hexdigest()
    if digest not in roundtripped:
        again = path.with_name(path.name + ".again")
        save_module(load_module(path), again)
        if again.read_bytes() == saved:
            roundtripped.add(digest)
        else:
            problems.append("save -> load -> save changed the bytes")
        again.unlink()
    if v_code != 0 or json.loads(v_text).get("valid") is not True:
        problems.append(f"validate exit {v_code}: {v_text[:200]!r}")
    if d_code != 0:
        problems.append(f"decompose exit {d_code}")
    else:
        total = sum(
            entry["multiplicity"]
            * specht_dimension(tuple(int(x) for x in entry["partition"].split(",")))
            for entry in json.loads(d_text)["multiplicities"]
        )
        if total != module.dims[k]:
            problems.append(f"sum of mult * f^lambda is {total}, dim E({k}) is {module.dims[k]}")
    return v_text + d_text, problems


def modfile_jobs(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    recipes = list(MODFILE_RECIPES)
    rng.shuffle(recipes)
    jobs = []
    for kind, parameter in recipes:
        built = representable(parameter, WINDOW) if kind == "representable" else free_module(parameter, WINDOW)
        module = relabel(built, rng)
        path = workdir / f"{module.name}.json"
        jobs.append(
            Job(
                f"modfile.{module.name}",
                lambda module=module, path=path: modfile_work(module, path, WINDOW),
                functools.partial(check_modfile, roundtripped=set()),
            )
        )
    return jobs


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of one pass; all seeded input generation happens here."""
    if workload == "report":
        return report_jobs()
    if workload == "predict":
        return predict_jobs(seed)
    if workload == "modfile":
        return modfile_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
