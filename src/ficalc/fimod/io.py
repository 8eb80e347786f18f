"""Reading and writing modules as JSON documents.

The interchange document has exactly the fields ``name``, ``max_degree``,
``generation_bound``, ``dims``, ``transpositions`` (an object keyed by the
degree as a string, holding the k-1 adjacent-transposition matrices), and
``inclusions``.  A matrix is ``{"rows": r, "cols": c, "entries": [...]}``
with row-major entries, each either an integer or a lowest-terms ``"p/q"``
string.  Anything else is rejected with a message naming the offending field.
The reader checks what only a document can get wrong (types, fields, keys,
the lengths of ``dims`` and ``inclusions``) and each matrix's declared shape
against its slot before building it; ``FIModule`` checks the rest.

Integer entries load as ``int`` and only ``"p/q"`` entries as ``Fraction``, so
an integral module stays in ``int`` arithmetic.  ``dumps_module``, the text
that ``save_module``, ``fi-calc representable`` and ``fi-calc free`` write, is
exactly ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline:
``json.dumps`` lays out the document with each matrix's index for its entries,
and ``_entries_dumps`` writes each entry list from the sparse columns, a run
of zeros as one pair ``(unit, count)``.  ``_text`` turns these pieces into
strings of bounded length, a long run ``_RUN_SLICE`` units at a time, and
``write_module`` writes them straight to a handle: the text is never held
whole.  ``save_module`` writes to a sibling temporary file that then
replaces the target, so a failed save leaves an existing file untouched.

``load_module`` reads the file's bytes once and has two routes.  The written
route takes bytes that are ASCII (``json.dumps`` escapes every other
character, so every written file is) and start as written text does.  It
reads them in that layout without parsing the dense lists and without
decoding them: it finds each entry list with ``bytes.find``, reads only its
nonzero entries (a nonzero entry starts with one of ``-"123456789`` after its
indentation, and its index is the number of commas before it), and hands the
decoded document around these scanned lists to the unchanged
``module_from_json``.  It keeps the module only if ``dumps_module`` gives
back exactly the bytes read, compared in the writer's strings of bounded
length, so that no second copy of the text is held.  That makes it sound: the
bytes are then ``json.dumps(module_to_json(module), indent=2,
sort_keys=True)`` and a newline, so ``json.loads`` would have read the same
document and the strict route the same module.  Any other bytes, and any
failure of the written route, go to the strict route: the bytes decoded as
UTF-8 with universal newlines, as a file read in text mode gives them, then
``json.loads`` and ``module_from_json``, which alone raise errors, so a
malformed file gets the same message on either path.  Outside the written
route, loading a dense list still visits only its nonzero entries once the
set of its entry types shows nothing but ints and non-empty strings.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from fractions import Fraction
from itertools import compress
from math import gcd
from pathlib import Path
from typing import Iterator

from ..exactla import SparseMatrix
from .core import FIModule, ModuleFormatError

_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")
_TOP_FIELDS = {
    "name",
    "max_degree",
    "generation_bound",
    "dims",
    "transpositions",
    "inclusions",
}
_MATRIX_FIELDS = {"rows", "cols", "entries"}
# json escapes newlines in strings, so only the layout starts such a line
_ENTRIES_LINE = re.compile(r'(\n *)"entries": ([0-9]+)')
_ENTRY_TYPES = {int, str}
# the opening of the written document and of each of its entry lists
_WRITTEN_START = b'{\n  "dims": ['
_ENTRIES_OPEN = b'"entries": ['
# a nonzero written entry: its first byte, and the whole entry
_NONZERO_STARTS = b'-"123456789'
_NONZERO_ENTRY = re.compile(rb'(-?[1-9][0-9]*)|"([^"\n]*)"')
_SPACE = ord(" ")
# the writer's strings: short pieces joined up to about _CHUNK characters,
# and long zero runs written _RUN_SLICE copies of a zero's text at a time;
# a saved file gathers _SAVE_BUFFER bytes per system call (the default
# 8 KB buffer made saving measurably slower than one joined write)
_CHUNK = 1 << 13
_RUN_SLICE = 512
_SAVE_BUFFER = 1 << 16


def _entry_out(value: int | Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _matrix_out(m: SparseMatrix) -> dict:
    entries: list = [0] * (m.rows * m.cols)
    for c, column in enumerate(m.columns):
        for r, v in column.items():
            entries[r * m.cols + c] = _entry_out(v)
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def _document(module: FIModule, matrix) -> dict:
    """The module's document, each matrix given as ``matrix(m)``."""
    return {
        "name": module.name,
        "max_degree": module.max_degree,
        "generation_bound": module.generation_bound,
        "dims": list(module.dims),
        "transpositions": {
            str(k): [matrix(g) for g in module.transpositions[k]]
            for k in range(2, module.max_degree + 1)
        },
        "inclusions": [matrix(m) for m in module.inclusions],
    }


def _entry_count(dims) -> int:
    """Matrix entries of a document with these dims: (k-1) d_k^2 + d_k d_{k+1} per k."""
    squares = sum((k - 1) * d * d for k, d in enumerate(dims) if k > 1)
    return squares + sum(a * b for a, b in zip(dims, dims[1:]))


def module_to_json(module: FIModule) -> dict:
    """The JSON-ready document for a module."""
    return _document(module, _matrix_out)


def _entries_dumps(m: SparseMatrix, pad: str) -> Iterator[str | tuple[str, int]]:
    """The row-major entry list of ``m`` as ``json.dumps(..., indent=2)``
    lays out a list at the depth of ``pad`` (a newline and the indentation),
    in pieces, each run of zeros a pair ``(unit, count)``: ``count`` copies
    of ``unit``."""
    n = m.rows * m.cols
    if not n:
        yield "[]"
        return
    inner = pad + "  "
    sep = "," + inner
    zero = "0" + sep
    nonzero = sorted(
        (r * m.cols + c, v) for c, column in enumerate(m.columns) for r, v in column.items()
    )
    yield "[" + inner
    pos = 0
    for idx, v in nonzero:
        v = _entry_out(v)
        yield zero, idx - pos
        entry = str(v) if type(v) is int else f'"{v}"'
        pos = idx + 1
        yield entry + sep if pos < n else entry
    if pos < n:
        yield zero, n - 1 - pos
        yield "0"
    yield pad + "]"


def _written(module: FIModule) -> Iterator[str | tuple[str, int]]:
    """The text of :func:`dumps_module` in pieces, each zero run a pair
    ``(unit, count)``, so that it can be written or compared without being
    held whole."""
    matrices: list[SparseMatrix] = []

    def indexed(m: SparseMatrix) -> dict:
        matrices.append(m)
        return {"rows": m.rows, "cols": m.cols, "entries": len(matrices) - 1}

    text = json.dumps(_document(module, indexed), indent=2, sort_keys=True)
    pos = 0
    try:
        for line in _ENTRIES_LINE.finditer(text):
            yield text[pos : line.start(2)]
            yield from _entries_dumps(matrices[int(line[2])], line[1])
            pos = line.end()
    except ValueError as exc:  # past the interpreter's integer digit limit
        raise ModuleFormatError(f"entry too long to write: {exc}") from exc
    yield text[pos:]
    yield "\n"


def _text(module: FIModule) -> Iterator[str]:
    """The text of :func:`dumps_module` in strings of bounded length: short
    pieces joined up to about ``_CHUNK`` characters, and a long zero run as
    one string of ``_RUN_SLICE`` units repeated."""
    batch: list[str] = []
    size = 0
    for piece in _written(module):
        if type(piece) is not str:
            unit, count = piece
            slices, count = divmod(count, _RUN_SLICE)
            if slices:
                yield "".join(batch)
                batch.clear()
                size = 0
                run = unit * _RUN_SLICE
                for _ in range(slices):
                    yield run
            piece = unit * count
        batch.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            yield "".join(batch)
            batch.clear()
            size = 0
    yield "".join(batch)


def dumps_module(module: FIModule) -> str:
    """The module's document as text: ``json.dumps(module_to_json(module),
    indent=2, sort_keys=True)`` and a newline.  An entry past the digit limit
    raises :class:`ModuleFormatError`, as loading one does."""
    return "".join(_text(module))


def write_module(module: FIModule, handle) -> None:
    """Write :func:`dumps_module` of the module to the text ``handle`` in
    strings of bounded length, never holding the text whole.  An entry past
    the digit limit raises :class:`ModuleFormatError` with part of the text
    written."""
    for piece in _text(module):
        handle.write(piece)


def save_module(module: FIModule, path) -> None:
    """Write the module to ``path``; identical modules produce identical bytes.

    The text goes to a sibling temporary file that then replaces ``path``,
    so a save that fails leaves an existing file as it was.  A ``path`` that
    exists but is not a regular file (a device or a pipe) is written directly.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as handle:
            write_module(module, handle)
        return
    partial = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        handle = open(partial, "x", buffering=_SAVE_BUFFER, encoding="utf-8")
    except OSError as exc:  # name the path asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            write_module(module, handle)
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
        raise


def _expect_natural(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ModuleFormatError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _entry_in(value, where: str) -> int | Fraction:
    if isinstance(value, bool):
        raise ModuleFormatError(f"{where}: boolean is not a matrix entry")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        match = _FRACTION_RE.fullmatch(value)
        if not match:
            raise ModuleFormatError(f"{where}: malformed entry {value!r}")
        try:
            p, q = int(match.group(1)), int(match.group(2))
        except ValueError as exc:  # past the interpreter's digit limit
            raise ModuleFormatError(f"{where}: entry has too many digits ({exc})") from exc
        if q == 0:
            raise ModuleFormatError(f"{where}: zero denominator in {value!r}")
        if q == 1:
            raise ModuleFormatError(
                f"{where}: {value!r} must be written as the integer {p}"
            )
        if gcd(abs(p), q) != 1:
            raise ModuleFormatError(f"{where}: {value!r} is not in lowest terms")
        if f"{p}/{q}" != value:
            raise ModuleFormatError(f"{where}: {value!r} has leading zeros")
        return Fraction(p, q)
    raise ModuleFormatError(f"{where}: entry {value!r} has unsupported type")


class _Scanned:
    """An entry list read off the written layout: its length and the
    ``(index, value)`` pairs of its nonzero entries, read from the bytes
    only as ``_matrix_in`` takes them, so no list of them is ever built.
    JSON never produces one, so only ``load_module``'s written route hands
    it to ``_matrix_in``."""

    __slots__ = ("count", "pairs")

    def __init__(self, count: int, pairs: Iterator[tuple[int, int | Fraction]]):
        self.count = count
        self.pairs = pairs

    def __len__(self) -> int:
        return self.count


def _scan_entries(raw: bytes, start: int, end: int) -> _Scanned:
    """The entry list of ``raw[start:end]``, the inside of its brackets as
    ``_entries_dumps`` lays it out: one entry per line after its indentation,
    so its length is one more than its commas."""
    count = raw.count(b",", start, end) + 1 if end > start else 0
    return _Scanned(count, _nonzero(raw, start, end))


def _nonzero(raw: bytes, start: int, end: int) -> Iterator[tuple[int, int | Fraction]]:
    """The ``(index, value)`` pairs of the nonzero entries of the entry list
    ``raw[start:end]``: each starts with a space and one of
    ``_NONZERO_STARTS``, and its index is the number of commas before it."""
    starts = []
    for ch in _NONZERO_STARTS:
        p = raw.find(ch, start, end)
        while p >= 0:
            if raw[p - 1] == _SPACE:
                starts.append(p)
            p = raw.find(ch, p + 1, end)
    starts.sort()
    idx, last = 0, start
    for p in starts:
        idx += raw.count(b",", last, p)
        last = p
        token = _NONZERO_ENTRY.match(raw, p, end)
        if token is None:
            raise ModuleFormatError("not in the written layout")
        yield idx, int(token[1]) if token[1] else _entry_in(token[2].decode(), "entries")


def _read_layout(raw: bytes) -> FIModule:
    """The module that ``raw`` describes if it is in the written layout:
    each entry list is scanned in place, and only the document around them
    is decoded and parsed.  Raises ``ValueError`` (a ``ModuleFormatError``,
    a JSON or an ``int()`` error) where ``raw`` is not in that layout."""
    scanned: list[_Scanned] = []
    pieces, pos = [], 0

    def hook(obj: dict) -> dict:
        i = obj.get("entries")
        if type(i) is int and 0 <= i < len(scanned):
            obj["entries"] = scanned[i]
        return obj

    while (start := raw.find(_ENTRIES_OPEN, pos)) >= 0:
        start += len(_ENTRIES_OPEN)
        end = raw.find(b"]", start)
        if end < 0:
            raise ModuleFormatError("not in the written layout")
        scanned.append(_scan_entries(raw, start, end))
        pieces += (raw[pos : start - 1], b"%d" % (len(scanned) - 1))
        pos = end + 1
    pieces.append(raw[pos:])
    return module_from_json(json.loads(b"".join(pieces).decode(), object_hook=hook))


def _writes(module: FIModule, raw: bytes) -> bool:
    """Whether ``dumps_module(module)`` is exactly ``raw``, compared in the
    writer's strings, so that the text is never held whole."""
    pos = 0
    for piece in _text(module):
        piece = piece.encode()
        if not raw.startswith(piece, pos):
            return False
        pos += len(piece)
    return pos == len(raw)


def _load_written(raw: bytes) -> FIModule | None:
    """The module of ``raw`` if ``raw`` is exactly what ``dumps_module``
    writes for it, else None; never raises on malformed bytes."""
    if not raw.startswith(_WRITTEN_START) or not raw.isascii():
        return None
    try:
        module = _read_layout(raw)
        return module if _writes(module, raw) else None
    except (ValueError, RecursionError):  # int(), json, ModuleFormatError
        return None


def _matrix_in(doc, where: str, rows: int, cols: int) -> SparseMatrix:
    if not isinstance(doc, dict):
        raise ModuleFormatError(f"{where}: matrix must be an object")
    extra = set(doc) - _MATRIX_FIELDS
    if extra:
        raise ModuleFormatError(f"{where}: unknown matrix fields {sorted(extra)}")
    missing = _MATRIX_FIELDS - set(doc)
    if missing:
        raise ModuleFormatError(f"{where}: missing matrix fields {sorted(missing)}")
    r = _expect_natural(doc["rows"], f"{where}.rows")
    c = _expect_natural(doc["cols"], f"{where}.cols")
    entries = doc["entries"]
    if not isinstance(entries, (list, _Scanned)) or len(entries) != r * c:
        raise ModuleFormatError(f"{where}: need a list of exactly rows*cols = {r * c} entries")
    if (r, c) != (rows, cols):
        raise ModuleFormatError(f"{where} must be {rows}x{cols}")
    mat = SparseMatrix(rows, cols)
    if isinstance(entries, _Scanned):
        pairs = entries.pairs
    else:
        indices = range(len(entries))
        types = set(map(type, entries))
        if types <= _ENTRY_TYPES and (str not in types or "" not in entries):
            # Every falsy entry is then the valid int 0: read only the others.
            indices = compress(indices, entries)
        pairs = ((idx, _entry_in(entries[idx], f"{where}.entries[{idx}]")) for idx in indices)
    for idx, v in pairs:
        if v:
            r, c = divmod(idx, cols)
            mat.columns[c][r] = v
    return mat


def module_from_json(doc) -> FIModule:
    """Parse a document produced by :func:`module_to_json`, strictly."""
    if not isinstance(doc, dict):
        raise ModuleFormatError("module document must be a JSON object")
    extra = set(doc) - _TOP_FIELDS
    if extra:
        raise ModuleFormatError(f"unknown fields {sorted(extra)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ModuleFormatError(f"missing fields {sorted(missing)}")
    if not isinstance(doc["name"], str):
        raise ModuleFormatError("name must be a string")
    max_degree = _expect_natural(doc["max_degree"], "max_degree")
    bound = _expect_natural(doc["generation_bound"], "generation_bound")
    dims_doc = doc["dims"]
    if not isinstance(dims_doc, list) or len(dims_doc) != max_degree + 1:
        raise ModuleFormatError(
            f"dims must list one dimension per degree 0..{max_degree}"
        )
    dims = tuple(_expect_natural(d, f"dims[{k}]") for k, d in enumerate(dims_doc))
    trans_doc = doc["transpositions"]
    if not isinstance(trans_doc, dict):
        raise ModuleFormatError("transpositions must be an object keyed by degree")
    expected = {str(k) for k in range(2, max_degree + 1)}
    if set(trans_doc) != expected:
        raise ModuleFormatError(
            f"transpositions must have exactly the keys {sorted(expected, key=int)}"
        )
    transpositions: list[list[SparseMatrix]] = [[] for _ in range(max_degree + 1)]
    for k in range(2, max_degree + 1):
        block = trans_doc[str(k)]
        if not isinstance(block, list):  # its length is FIModule's to check
            raise ModuleFormatError(f"transpositions[{k}] must list {k - 1} matrices")
        for i, m in enumerate(block):
            transpositions[k].append(_matrix_in(m, f"transpositions[{k}][{i}]", dims[k], dims[k]))
    inc_doc = doc["inclusions"]
    if not isinstance(inc_doc, list) or len(inc_doc) != max_degree:
        raise ModuleFormatError(f"inclusions must list {max_degree} matrices")
    inclusions = [
        _matrix_in(m, f"inclusions[{k}]", dims[k + 1], dims[k]) for k, m in enumerate(inc_doc)
    ]
    try:
        return FIModule(doc["name"], max_degree, bound, dims, transpositions, inclusions)
    except ValueError as exc:
        raise ModuleFormatError(str(exc)) from exc


def load_module(path) -> FIModule:
    """Read a module document from ``path``.

    Missing files surface as the usual ``OSError``; malformed content raises
    :class:`ModuleFormatError`.  Bytes in the written layout take the written
    route; everything else, and every error, the strict route.
    """
    raw = Path(path).read_bytes()
    module = _load_written(raw)
    if module is not None:
        return module
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModuleFormatError(f"not UTF-8: {exc}") from exc
    del raw  # hold the text alone while json.loads builds the document
    if "\r" in text:  # universal newlines, as a file opened in text mode reads
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModuleFormatError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # past the interpreter's integer digit limit
        raise ModuleFormatError(f"integer too long to read: {exc}") from exc
    except RecursionError as exc:
        raise ModuleFormatError("not valid JSON: nested too deeply to parse") from exc
    return module_from_json(doc)
