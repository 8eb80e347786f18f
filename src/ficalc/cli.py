"""The ``fi-calc`` command line: module generation, validation, and reports.

Exit statuses: 0 on success, 1 on domain errors (invalid module contents,
non-stabilization, a certified claim failing), 2 on usage errors (bad or
out-of-guard parameters, missing files).  Output is JSON by default, with
markdown and CSV renderings of the same tables; identical inputs always
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .combinat import build_poset, poset_size_formula
from .exactla import ComplexInvalidError, CrossCheckError, Matrix, invariant_factors, rank
from .exactla import smith_normal_form
from .fimod import (
    DictionaryInapplicableError,
    FIModule,
    InstabilityError,
    ModuleFormatError,
    NotStabilizedError,
    coefficient_profile,
    delta_coefficient_shift_check,
    dictionary_prediction,
    free_module,
    is_polynomial,
    load_module,
    q_truncation,
    representable,
    representation_stability_check,
    save_module,
    stable_decomposition,
    taylor_coefficient,
    validate,
)
from .fimod.io import _entry_count, _entry_out, write_module
from .nervehom import (
    TheoremViolationError,
    certify_homology,
    chessboard_complex,
    complex_homology,
    nerve_sizes,
    order_complex,
    wedge_certificate,
)
from .symrep import (
    NotACharacterError,
    check_partition,
    gn_character,
    gn_dimension,
    inner_product,
    irreducible_class_function,
    kostka,
    kostka_reduction,
    partitions_of,
    specht_dimension,
    weight,
)

GUARD_N = 5
GUARD_K = 10
GUARD_ENTRIES = 10**7  # matrix entries in a printed module document


class UsageError(ValueError):
    """A parameter is malformed or outside the default desk-scale guard."""


# ---------------------------------------------------------------------------
# parameter parsing and rendering
# ---------------------------------------------------------------------------


def _partition_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fmt_partition(lam) -> str:
    return ",".join(str(x) for x in lam)


@dataclass
class Table:
    title: str
    headers: tuple[str, ...]
    rows: list


def _render_markdown(heading: str, tables: list) -> str:
    lines = [f"# {heading}", ""]
    for table in tables:
        lines.append(f"## {table.title}")
        lines.append("")
        lines.append("| " + " | ".join(table.headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in table.headers) + "|")
        for row in table.rows:
            lines.append("| " + " | ".join(str(x) for x in row) + " |")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _render_csv(tables: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, table in enumerate(tables):
        if i:
            writer.writerow([])
        writer.writerow(["table", table.title])
        writer.writerow(table.headers)
        for row in table.rows:
            writer.writerow([str(x) for x in row])
    return buf.getvalue()


def _render(fmt: str, doc, heading: str, tables: list) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "markdown":
        return _render_markdown(heading, tables)
    return _render_csv(tables)


def _emit(args, doc, heading: str, tables: list) -> None:
    output = getattr(args, "output", None)
    if isinstance(doc, FIModule):  # a module document, written piece by piece
        if output:
            save_module(doc, output)
        else:
            write_module(doc, sys.stdout)
        return
    text = _render(args.format, doc, heading, tables)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _guard(args, **named) -> None:
    """Reject parameters beyond the desk-scale defaults unless overridden."""
    if getattr(args, "allow_large", False):
        return
    for name, (value, limit) in named.items():
        if value > limit:
            raise UsageError(
                f"--{name.replace('_', '-')} {value} exceeds the default guard {limit}; "
                "pass --allow-large to override"
            )


def _guard_entries(args, dims) -> None:
    """Reject a module document beyond ``GUARD_ENTRIES`` entries unless
    overridden; the count comes from the dims alone, before any building."""
    count = _entry_count(dims)
    if count > GUARD_ENTRIES and not getattr(args, "allow_large", False):
        raise UsageError(
            f"the module document would hold {count} matrix entries, over the "
            f"default guard {GUARD_ENTRIES}; pass --allow-large to override"
        )


def _decomposition_payload(decomposition):
    ordered = [
        (lam, decomposition.multiplicities[lam])
        for lam in partitions_of(decomposition.n)
        if decomposition.multiplicities.get(lam)
    ]
    doc = [
        {"partition": _fmt_partition(lam), "multiplicity": mult} for lam, mult in ordered
    ]
    rows = [
        (_fmt_partition(lam), mult, specht_dimension(lam)) for lam, mult in ordered
    ]
    return doc, rows


# ---------------------------------------------------------------------------
# command handlers: each returns (doc, heading, tables, exit_code); the module
# generators return the module itself, which ``_emit`` writes as its document
# ---------------------------------------------------------------------------


def _cmd_validate(args):
    module = load_module(args.input)
    report = validate(module)
    doc = {
        "operation": "validate",
        "module": module.name,
        "max_degree": module.max_degree,
        "dims": list(module.dims),
        "valid": report.valid,
        "violations": list(report.violations),
    }
    tables = [
        Table(
            "module",
            ("name", "max_degree", "valid", "violations"),
            [(module.name, module.max_degree, report.valid, len(report.violations))],
        )
    ]
    if report.violations:
        tables.append(
            Table("violations", ("description",), [(v,) for v in report.violations])
        )
    return doc, f"validate {args.input}", tables, 0 if report.valid else 1


def _module_document(args, module):
    if args.format != "json":
        raise UsageError("module generation emits the JSON interchange format only")
    return module, module.name, [], 0


def _cmd_representable(args):
    _guard(args, n=(args.n, GUARD_N), max_degree=(args.max_degree, GUARD_K))
    if args.n >= 0:  # ``representable`` itself refuses a negative n
        _guard_entries(args, [math.perm(k, args.n) for k in range(args.max_degree + 1)])
    return _module_document(args, representable(args.n, args.max_degree))


def _cmd_free(args):
    _guard(args, **{"lambda": (sum(args.lam), GUARD_N)}, max_degree=(args.max_degree, GUARD_K))
    f = specht_dimension(args.lam)
    _guard_entries(args, [math.comb(k, sum(args.lam)) * f for k in range(args.max_degree + 1)])
    return _module_document(args, free_module(args.lam, args.max_degree))


def _cmd_coefficients(args):
    module = load_module(args.input)
    if args.max_index is not None:
        _guard(args, max_index=(args.max_index, GUARD_N))
    profile = coefficient_profile(module, args.max_index)
    coeff_docs = []
    dim_rows = []
    char_rows = []
    for n, coeff in enumerate(profile.coefficients):
        classes = partitions_of(coeff.action_size)
        coeff_docs.append(
            {
                "index": n,
                "witness_stage": coeff.witness,
                "dims": list(coeff.dims),
                "characters": [
                    {
                        "degree": d,
                        "classes": [_fmt_partition(ct) for ct in classes],
                        "values": [_entry_out(v) for v in chi.values],
                    }
                    for d, chi in enumerate(coeff.characters)
                ],
            }
        )
        dim_rows.append((n, coeff.witness, " ".join(str(d) for d in coeff.dims)))
        for ct, value in zip(classes, coeff.characters[0].values):
            char_rows.append((n, _fmt_partition(ct) or "-", _entry_out(value)))
    ranks = [rank(t) for t in profile.transitions]
    transition_rows = [
        (f"{n}->{n + 1}", f"{t.rows}x{t.cols}", r)
        for n, (t, r) in enumerate(zip(profile.transitions, ranks))
    ]
    doc = {
        "operation": "coefficients",
        "module": module.name,
        "coefficients": coeff_docs,
        "transition_ranks": ranks,
    }
    tables = [
        Table("coefficients", ("index", "witness stage", "homology dims"), dim_rows),
        Table("degree-0 characters", ("index", "class", "trace"), char_rows),
        Table("transitions", ("map", "shape", "rank"), transition_rows),
    ]
    return doc, f"coefficients of {module.name}", tables, 0


def _cmd_decompose(args):
    module = load_module(args.input)
    decomposition = stable_decomposition(module, args.k)
    payload, rows = _decomposition_payload(decomposition)
    doc = {
        "operation": "decompose",
        "module": module.name,
        "k": args.k,
        "multiplicities": payload,
    }
    tables = [Table("irreducibles", ("partition", "multiplicity", "dimension"), rows)]
    return doc, f"decomposition of {module.name} at degree {args.k}", tables, 0


def _cmd_predict(args):
    module = load_module(args.input)
    profile = coefficient_profile(module)
    prediction = dictionary_prediction(profile, args.k)
    payload, rows = _decomposition_payload(prediction)
    doc = {
        "operation": "predict",
        "module": module.name,
        "k": args.k,
        "multiplicities": payload,
    }
    tables = [Table("predicted irreducibles", ("partition", "multiplicity", "dimension"), rows)]
    if args.k <= module.max_degree:
        direct = stable_decomposition(module, args.k)
        agree = direct.nonzero() == prediction.nonzero()
        doc["matches_direct"] = agree
        tables.append(
            Table("cross-check", ("k", "matches direct decomposition"), [(args.k, agree)])
        )
        if not agree:
            raise TheoremViolationError(
                f"prediction at k={args.k} disagrees with the direct decomposition "
                f"of {module.name}"
            )
    return doc, f"predicted decomposition of {module.name} at degree {args.k}", tables, 0


def _cmd_homology(args):
    _guard(args, n=(args.n, GUARD_N), k=(args.k, GUARD_K))
    if args.n < 1 or args.k < 1:
        raise UsageError("homology needs --n >= 1 and --k >= 1")
    # the nerve subdivides M_{n,k}: same homology, connected iff reduced H_0 is
    # 0, and its sizes have a closed form, so neither it nor P(n,k) is built
    sizes = nerve_sizes(args.n, args.k)
    result = complex_homology(chessboard_complex(args.n, args.k))
    doc = {
        "operation": "homology",
        "n": args.n,
        "k": args.k,
        "vertices": sizes[0],
        "simplices": list(sizes),
        "euler_characteristic": sum((-1) ** d * size for d, size in enumerate(sizes)),
        "connected": result.betti[0] == 0,
        "betti": list(result.betti),
        "torsion": [list(t) for t in result.torsion],
    }
    rows = [
        (d, result.betti[d], " ".join(str(x) for x in result.torsion[d]) or "-")
        for d in range(len(result.betti))
    ]
    tables = [Table("reduced integral homology", ("degree", "rank", "torsion"), rows)]
    if args.k >= 2 * args.n - 1:
        certificate = certify_homology(args.n, args.k, result)
        doc["wedge"] = {"degree": args.n - 1, "rank": certificate.rank}
        tables.append(
            Table(
                "wedge certificate",
                ("sphere dimension", "count"),
                [(args.n - 1, certificate.rank)],
            )
        )
    heading = f"nerve homology of P({args.n},{args.k})"
    return doc, heading, tables, 0


def _cmd_kostka(args):
    value = kostka(args.lam, args.mu)
    doc = {
        "operation": "kostka",
        "lambda": _fmt_partition(args.lam),
        "mu": _fmt_partition(args.mu),
        "kostka": value,
    }
    tables = [
        Table(
            "kostka number",
            ("lambda", "mu", "value"),
            [(_fmt_partition(args.lam), _fmt_partition(args.mu), value)],
        )
    ]
    return doc, "kostka number", tables, 0


def _cmd_gn(args):
    _guard(args, n=(args.n, GUARD_N), k=(args.k, GUARD_K))
    dimension = gn_dimension(args.n, args.k)
    rows = []
    characters = []
    for lam in partitions_of(args.k):
        mult = gn_character(args.n, args.k, lam)
        if mult:
            f_lam = specht_dimension(lam)
            rows.append((_fmt_partition(lam), weight(lam), mult, f_lam, mult * f_lam))
            characters.append(
                {
                    "partition": _fmt_partition(lam),
                    "weight": weight(lam),
                    "multiplicity": mult,
                    "specht_dimension": f_lam,
                }
            )
    doc = {
        "operation": "gn",
        "n": args.n,
        "k": args.k,
        "dimension": dimension,
        "characters": characters,
    }
    tables = [
        Table("layer dimension", ("n", "k", "dimension"), [(args.n, args.k, dimension)]),
        Table(
            "multiplicities",
            ("partition", "weight", "multiplicity", "specht dimension", "contribution"),
            rows,
        ),
    ]
    return doc, f"weight-{args.n} layer at level {args.k}", tables, 0


# ---------------------------------------------------------------------------
# the aggregate report: each check is a module-level function returning
# (passed, detail), and ``report_sections`` is the one place that decides
# which cells run at a scale.  Checks look their library calls up in this
# module's globals when they run, so a patched or traced function is the one
# called.
# ---------------------------------------------------------------------------


def _check_wedge(n, k):
    certificate = wedge_certificate(n, k)
    return True, f"rank {certificate.rank} in degree {n - 1}"


def _check_weight(n, k):
    checked = 0
    for lam in partitions_of(k):
        expected = 0
        if weight(lam) == n:
            content = tuple(x for x in (k - n,) + (1,) * n if x)
            expected = kostka(lam, content)
        actual = gn_character(n, k, lam)
        if actual != expected:
            return False, f"character at {lam} is {actual}, expected {expected}"
        checked += 1
    return True, f"{checked} partitions checked"


def _check_kostka(k, n_eff):
    identities = 0
    for lam in partitions_of(k):
        if not lam or lam[0] < k - n_eff:
            continue
        for i in range(0, min(n_eff, lam[0], k - 1) + 1):
            lhs, rhs = kostka_reduction(lam, i)
            if lhs != rhs:
                return False, f"{lam}, i={i}: {lhs} != {rhs}"
            identities += 1
    return True, f"{identities} identities"


def _check_representable(m, m_eff, window):
    module = representable(m, window)
    checked = []
    for n in range(0, m_eff + 1):
        if n + m + 1 > window:
            continue
        coeff = taylor_coefficient(module, n)
        if n > m:
            if any(coeff.dims):
                return False, f"C_{n} nonzero: dims {coeff.dims}"
            continue
        expected_dim = math.factorial(m) // math.factorial(m - n)
        if coeff.dims[0] != expected_dim or any(coeff.dims[1:]):
            return False, f"C_{n} dims {coeff.dims}, expected ({expected_dim}, 0...)"
        for ct, value in zip(partitions_of(n), coeff.characters[0].values):
            fixed = expected_dim if all(p == 1 for p in ct) else 0
            if value != fixed:
                return False, f"C_{n} trace at {ct} is {value}, expected {fixed}"
        checked.append(n)
    return True, f"coefficients {checked} match the injection count"


def _check_dictionary(build, window):
    module = build(window)
    profile = coefficient_profile(module)
    top = profile.max_index
    for k in range(2 * top, window + 1):
        predicted = dictionary_prediction(profile, k).nonzero()
        direct = stable_decomposition(module, k).nonzero()
        if predicted != direct:
            return False, f"k={k}: {predicted} != {direct}"
    return True, f"k={2 * top}..{window} all equal"


def _check_shift(build, window, n, i):
    module = build(window)
    if n + i + module.generation_bound + 1 > window:
        return True, "window too small; not checked"
    result = delta_coefficient_shift_check(module, n, i)
    if not result.equal:
        return False, f"shifted dims {result.lhs.dims} vs {result.rhs_dims}"
    return True, f"dims {result.lhs.dims} and characters agree"


def _check_stability(build, window):
    module = build(window)
    start = max(1, 2 * module.generation_bound)
    report = representation_stability_check(module, start)
    if not report.is_stable:
        return False, f"pattern still moving at {report.stable_from}"
    tails = {_fmt_partition(mu) or "-": row[-1] for mu, row in report.trajectories.items()}
    return True, f"constant on [{start},{report.k_max}]: {tails}"


def _check_validity(m, window):
    for module in (representable(m, window), free_module((1, 1), max(window, 2))):
        report = validate(module)
        if not report.valid:
            return False, f"{module.name}: {report.violations[:2]}"
    return True, "constructed modules validate"


def _check_orthogonality(top):
    for n in range(0, top + 1):
        parts = partitions_of(n)
        chars = [irreducible_class_function(lam) for lam in parts]
        for a, char_a in zip(parts, chars):
            for b, char_b in zip(parts, chars):
                expected = Fraction(1 if a == b else 0)
                got = inner_product(char_a, char_b)
                if got != expected:
                    return False, f"<{a},{b}> = {got}"
    return True, f"orthonormal through n={top}"


def _check_squares(top):
    for n in range(0, top + 1):
        total = sum(specht_dimension(lam) ** 2 for lam in partitions_of(n))
        if total != math.factorial(n):
            return False, f"sum of squares at n={n} is {total}"
    return True, f"sum f^2 = n! through n={top}"


def _check_smith_normal_form():
    rng = random.Random(20260826)
    for trial in range(6):
        rows_ = rng.randrange(1, 6)
        cols_ = rng.randrange(1, 6)
        a = Matrix(rows_, cols_, [rng.randrange(-9, 10) for _ in range(rows_ * cols_)])
        u, d, v = smith_normal_form(a)
        if (u @ a) @ v != d:
            return False, f"trial {trial}: U a V != D"
        for square in (u, v):
            facs = invariant_factors(square)
            if len(facs) != square.rows or any(f != 1 for f in facs):
                return False, f"trial {trial}: transform not unimodular"
    return True, "6 random shapes: U a V = D with unimodular U, V"


def _check_poset_symmetry(top):
    for n in range(1, top + 1):
        for k in range(n, top + 1):
            if poset_size_formula(n, k) != poset_size_formula(k, n):
                return False, f"sizes differ at ({n},{k})"
            if len(build_poset(n, k).elements) != poset_size_formula(n, k):
                return False, f"size formula off at ({n},{k})"
    betti_top = min(3, top)
    for n in range(1, betti_top + 1):
        for k in range(n + 1, betti_top + 1):
            left = complex_homology(order_complex(build_poset(n, k))).betti
            right = complex_homology(order_complex(build_poset(k, n))).betti
            if left != right:
                return False, f"betti differ at ({n},{k})"
    return True, f"sizes through {top}, betti through {betti_top}"


def _check_exhaustion(m, window):
    for module in (representable(m, window), free_module((1, 1), max(window, 3))):
        bound = module.generation_bound
        for k in range(module.max_degree + 1):
            if not q_truncation(module, bound, k).is_isomorphism:
                return False, f"{module.name}: truncation at bound not iso at k={k}"
    return True, "truncation at the generation bound is the identity"


def _check_polynomiality(m, window):
    for n in range(0, m + 1):
        if not is_polynomial(representable(n, window), n).is_polynomial:
            return False, f"representable({n}) not {n}-polynomial"
    negative = is_polynomial(representable(1, window), 0)
    if negative.is_polynomial:
        return False, "representable(1) passed as 0-polynomial"
    return True, "positives pass, negative fails as expected"


# (label, generation bound, builder): the modules of the dictionary, shift and
# stability sections; each ``report_sections`` call builds each of them at most
# once, and its dictionary, shift and stability cells share that module
_DICTIONARY_MODULES = (
    ("representable(0)", 0, lambda window: representable(0, window)),
    ("representable(1)", 1, lambda window: representable(1, window)),
    ("representable(2)", 2, lambda window: representable(2, window)),
    ("free((2))", 2, lambda window: free_module((2,), window)),
    ("free((1,1))", 2, lambda window: free_module((1, 1), window)),
    ("free((2,1))", 3, lambda window: free_module((2, 1), window)),
)


def report_sections(n_max: int, k_max: int):
    """The report at a scale: ``(title, cells)`` per section, each cell a
    ``(label, check, args)`` whose ``check(*args)`` returns (passed, detail).

    The scale decides which cells are listed and what they check: a cell whose
    modules the scale's windows cannot hold is left out.  The cells of one
    ``_DICTIONARY_MODULES`` recipe share one module, built on first use, so
    they share its memo; nothing is shared between calls.
    """
    window = min(8, k_max)
    modules = [
        (label, functools.cache(build))
        for label, bound, build in _DICTIONARY_MODULES
        if bound <= min(3, n_max) and window >= 2 * bound + 1
    ]
    shifts = range(0, min(2, n_max) + 1)
    n_eff, m_eff, rep_window = min(4, max(n_max, 0)), min(4, n_max), min(9, k_max)
    low_m, low_window = min(2, n_max), min(6, k_max)
    top = max(k_max, 1)
    structural = (  # (label, check, args, whether the scale holds the cell)
        ("module validity", _check_validity, (low_m, low_window), low_m <= low_window),
        ("character orthogonality", _check_orthogonality, (min(6, top),), True),
        ("dimension squares", _check_squares, (min(7, top),), True),
        ("smith normal form", _check_smith_normal_form, (), True),
        ("poset symmetry", _check_poset_symmetry, (min(4, top),), True),
        ("truncation exhaustion", _check_exhaustion, (low_m, low_window), low_m <= low_window),
        ("polynomiality", _check_polynomiality, (low_m, low_window), low_m < low_window),
    )
    return [
        ("Wedge of spheres", [
            (f"P({n},{k})", _check_wedge, (n, k))
            for n in range(1, min(5, n_max) + 1)
            for k in range(2 * n - 1, min(n + 4, 10, k_max) + 1)
        ]),
        ("Weight concentration", [
            (f"n={n}, k={k}", _check_weight, (n, k))
            for n in range(0, min(3, n_max) + 1)
            for k in range(2 * n, min(8, k_max) + 1)
        ]),
        ("Kostka reduction", [
            (f"k={k}", _check_kostka, (k, n_eff))
            for k in range(1, min(10, k_max) + 1)
        ]),
        ("Representable coefficients", [
            (f"m={m}", _check_representable, (m, m_eff, rep_window))
            for m in range(0, min(m_eff, rep_window) + 1)
        ]),
        ("Dictionary roundtrip", [
            (label, _check_dictionary, (build, window)) for label, build in modules
        ]),
        ("Derivative shift", [
            (f"{label}, n={n}, i={i}", _check_shift, (build, window, n, i))
            for label, build in modules
            for n in shifts
            for i in shifts
        ]),
        ("Representation stability", [
            (label, _check_stability, (build, window)) for label, build in modules
        ]),
        ("Structural suites", [
            (label, check, args) for label, check, args, holds in structural if holds
        ]),
    ]


def full_report(n_max: int, k_max: int):
    """Run every report section at the given scale.

    Returns ``(doc, tables, all_passed)``; cells are independent and are
    evaluated in order.  The tables are rendered from the document's cells.
    """
    doc_sections = []
    tables = []
    for number, (title, cells) in enumerate(report_sections(n_max, k_max), 1):
        cell_docs = []
        for label, check, args in cells:
            try:
                passed, detail = check(*args)
            except Exception as exc:  # a crashing cell is a failing cell
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            cell_docs.append({"cell": label, "passed": passed, "detail": detail})
        if not cell_docs:
            cell_docs.append(
                {"cell": "(no cells at this scale)", "passed": True, "detail": "nothing to check"}
            )
        doc_sections.append({"section": title, "cells": cell_docs})
        rows = [(c["cell"], "PASS" if c["passed"] else "FAIL", c["detail"]) for c in cell_docs]
        tables.append(Table(f"{number}. {title}", ("cell", "status", "detail"), rows))
    all_passed = all(c["passed"] for section in doc_sections for c in section["cells"])
    doc = {
        "operation": "report",
        "n_max": n_max,
        "k_max": k_max,
        "passed": all_passed,
        "sections": doc_sections,
    }
    return doc, tables, all_passed


def _cmd_report(args):
    _guard(args, n_max=(args.n_max, GUARD_N), k_max=(args.k_max, GUARD_K))
    if args.n_max < 0 or args.k_max < 0:
        raise UsageError("report needs --n-max >= 0 and --k-max >= 0")
    doc, tables, all_passed = full_report(args.n_max, args.k_max)
    verdict = "PASS" if all_passed else "FAIL"
    tables.append(Table("overall", ("status",), [(verdict,)]))
    heading = f"report at n_max={args.n_max}, k_max={args.k_max}: {verdict}"
    return doc, heading, tables, 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parser and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser, default_format="json", guarded=False):
    parser.add_argument(
        "--format", choices=("json", "markdown", "csv"), default=default_format
    )
    parser.add_argument("--output", help="write the document here instead of stdout")
    if guarded:
        parser.add_argument(
            "--allow-large",
            action="store_true",
            help="override the desk-scale parameter guards",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fi-calc",
        description="exact calculus for modules over finite sets and injections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a module file against its axioms")
    p.add_argument("input", help="module JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("representable", help="emit the module of injections from a fixed set")
    p.add_argument("--n", type=int, required=True, help="size of the representing set")
    p.add_argument("--max-degree", type=int, required=True, help="window end K")
    _add_common(p, guarded=True)
    p.set_defaults(handler=_cmd_representable)

    p = sub.add_parser("free", help="emit the free module on an irreducible")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--max-degree", type=int, required=True, help="window end K")
    _add_common(p, guarded=True)
    p.set_defaults(handler=_cmd_free)

    p = sub.add_parser("coefficients", help="stabilized Taylor coefficients of a module")
    p.add_argument("input", help="module JSON file")
    p.add_argument("--max-index", type=int, default=None)
    _add_common(p, guarded=True)
    p.set_defaults(handler=_cmd_coefficients)

    p = sub.add_parser("decompose", help="irreducible multiplicities of one stage")
    p.add_argument("input", help="module JSON file")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("predict", help="stable decomposition predicted from coefficients")
    p.add_argument("input", help="module JSON file")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("homology", help="reduced integral homology of a matching-poset nerve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, guarded=True)
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("kostka", help="one Kostka number")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_kostka)

    p = sub.add_parser("gn", help="a stable layer: dimension and multiplicities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, guarded=True)
    p.set_defaults(handler=_cmd_gn)

    p = sub.add_parser("report", help="run every certified check at a chosen scale")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    _add_common(p, default_format="markdown", guarded=True)
    p.set_defaults(handler=_cmd_report)

    return parser


_DOMAIN_ERRORS = (
    ModuleFormatError,
    NotACharacterError,
    NotStabilizedError,
    InstabilityError,
    DictionaryInapplicableError,
    TheoremViolationError,
    CrossCheckError,
    ComplexInvalidError,
)


def main(argv=None) -> int:
    """Run one command.  A domain error (a malformed module, a failed check)
    exits 1; a usage, range, file or other value error exits 2."""
    args = build_parser().parse_args(argv)
    try:
        doc, heading, tables, code = args.handler(args)
        _emit(args, doc, heading, tables)
        return code
    except (*_DOMAIN_ERRORS, OSError, ValueError) as exc:
        print(f"fi-calc {args.command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _DOMAIN_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
