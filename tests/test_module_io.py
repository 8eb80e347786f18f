"""Tests for the strict JSON interchange format for module windows."""

import copy
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ficalc
import ficalc.fimod.io as module_io
from ficalc.cli import main
from ficalc.exactla import SparseMatrix
from ficalc.fimod import (
    FIModule,
    ModuleFormatError,
    dumps_module,
    free_module,
    load_module,
    module_from_json,
    module_to_json,
    representable,
    save_module,
    validate,
    zero_module,
)


@pytest.fixture
def doc():
    return module_to_json(representable(2, 5))


def test_roundtrip_preserves_module(tmp_path):
    for module in (representable(2, 5), free_module((1, 1), 5)):
        path = tmp_path / "mod.json"
        save_module(module, path)
        loaded = load_module(path)
        assert loaded.name == module.name
        assert loaded.dims == module.dims
        assert loaded.generation_bound == module.generation_bound
        assert validate(loaded).valid
        for k in range(module.max_degree + 1):
            for a, b in zip(module.transpositions[k], loaded.transpositions[k]):
                assert a.columns == b.columns
        for a, b in zip(module.inclusions, loaded.inclusions):
            assert a.columns == b.columns


def test_rewrite_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    module = free_module((2,), 4)
    save_module(module, first)
    save_module(load_module(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_document_layout(doc):
    assert set(doc) == {
        "name",
        "max_degree",
        "generation_bound",
        "dims",
        "transpositions",
        "inclusions",
    }
    assert set(doc["transpositions"]) == {"2", "3", "4", "5"}
    assert len(doc["transpositions"]["4"]) == 3  # k-1 generators in degree k
    assert len(doc["inclusions"]) == 5
    matrix = doc["inclusions"][2]
    assert set(matrix) == {"rows", "cols", "entries"}
    assert len(matrix["entries"]) == matrix["rows"] * matrix["cols"]


def _rejects(document, mutate):
    bad = copy.deepcopy(document)
    mutate(bad)
    with pytest.raises(ModuleFormatError):
        module_from_json(bad)


def test_rejects_unknown_top_level_field(doc):
    _rejects(doc, lambda d: d.__setitem__("extra", 1))


def test_rejects_missing_field(doc):
    _rejects(doc, lambda d: d.pop("dims"))


def test_rejects_boolean_masquerading_as_int(doc):
    _rejects(doc, lambda d: d.__setitem__("max_degree", True))


def test_rejects_generation_bound_outside_window(doc):
    _rejects(doc, lambda d: d.__setitem__("generation_bound", 9))


def test_rejects_wrong_dims_length(doc):
    _rejects(doc, lambda d: d["dims"].append(3))


def test_rejects_missing_transposition_block(doc):
    _rejects(doc, lambda d: d["transpositions"].pop("2"))


def test_rejects_stray_degree_one_block(doc):
    _rejects(doc, lambda d: d["transpositions"].__setitem__("1", []))


def test_rejects_unknown_matrix_field(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0].__setitem__("note", "x"))


def test_rejects_denominator_one_written_as_fraction(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].__setitem__(0, "1/1"))


def test_rejects_fraction_not_in_lowest_terms(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].__setitem__(0, "2/4"))


def test_rejects_zero_denominator(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].__setitem__(0, "1/0"))


@pytest.mark.parametrize(
    "text", ["1/3\n", "\u0661/3", "1/\u0663", "01/3", "1/03", "-01/3", " 1/3", "+1/3"]
)
def test_rejects_fraction_not_written_canonically(doc, text):
    # Each would otherwise load as 1/3 and save back as "1/3".
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].__setitem__(0, text))


def test_rejects_boolean_entry(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].__setitem__(0, True))


def test_rejects_float_entry(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].__setitem__(0, 1.5))


def test_rejects_wrong_entry_count(doc):
    _rejects(doc, lambda d: d["transpositions"]["3"][0]["entries"].pop())


def test_rejects_inclusion_shape_mismatch(doc):
    _rejects(doc, lambda d: d["inclusions"][0].__setitem__("rows", 7))


def test_fraction_entries_parse_and_roundtrip(doc, tmp_path):
    doc["inclusions"][2]["entries"][0] = "1/2"
    module = module_from_json(doc)
    assert module.inclusions[2].columns[0][0] == Fraction(1, 2)
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    reloaded = load_module(path)
    assert reloaded.inclusions[2].columns[0][0] == Fraction(1, 2)
    save_module(reloaded, path)
    assert json.loads(path.read_text())["inclusions"][2]["entries"][0] == "1/2"


@pytest.mark.parametrize("denominator", [1, 3])
def test_saving_an_overlong_entry_is_a_format_error(denominator, tmp_path):
    # the save half of the interpreter's 4,300-digit limit: refused as a
    # format error, as loading such an entry is
    module = representable(1, 3)
    entry = 10**5000
    module.inclusions[1].set(0, 0, entry if denominator == 1 else Fraction(entry, denominator))
    with pytest.raises(ModuleFormatError, match="entry too long to write: "):
        dumps_module(module)
    path = tmp_path / "module.json"
    save_module(representable(1, 3), path)
    saved = path.read_bytes()
    with pytest.raises(ModuleFormatError):
        save_module(module, path)
    # the failed save left the existing file as it was, and no partial file
    assert path.read_bytes() == saved
    assert os.listdir(tmp_path) == ["module.json"]


def test_a_save_that_cannot_start_names_the_path_asked_for(tmp_path, capsys):
    path = tmp_path / "missing" / "module.json"
    with pytest.raises(FileNotFoundError) as raised:
        save_module(representable(1, 3), path)
    assert raised.value.filename == str(path)
    argv = ["representable", "--n", "1", "--max-degree", "3", "--output", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"fi-calc representable: [Errno 2] No such file or directory: '{path}'\n"
    )


def test_saving_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old", encoding="utf-8")
    link.symlink_to(target)
    module = representable(2, 4)
    save_module(module, link)
    assert link.is_symlink()
    assert target.read_bytes() == _pinned_bytes(module)


def test_saving_to_a_pipe_writes_into_the_pipe(tmp_path):
    # a path that is not a regular file is written directly, never replaced
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = {}
    reader = threading.Thread(target=lambda: read.update(data=pipe.read_bytes()), daemon=True)
    reader.start()
    module = representable(2, 4)
    save_module(module, pipe)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert read["data"] == _pinned_bytes(module)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_module(tmp_path / "missing.json")


def test_garbage_json_raises_format_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ModuleFormatError):
        load_module(path)


def _pinned_bytes(module) -> bytes:
    return (json.dumps(module_to_json(module), indent=2, sort_keys=True) + "\n").encode()


def _fraction_module():
    doc = module_to_json(representable(2, 5))
    doc["inclusions"][2]["entries"][0] = "1/2"
    doc["transpositions"]["4"][1]["entries"][7] = "-3/5"
    return module_from_json(doc)


def _named_module(name):
    doc = module_to_json(free_module((1,), 3))
    doc["name"] = name
    return module_from_json(doc)


# names that mimic the layout: the writer splits json.dumps's text at its
# "entries" lines, and none of these may be taken for one
_LAYOUT_NAMES = {
    "quoted-name": 'say "héllo" \\ ☃ \t',
    "name-entries-line": '\n  "entries": 0',
    "name-entries-key": '"entries": 1',
    "name-entries-overrun": '\n      "entries": 99,\n',
    "name-backslashes": "back\\slash\\",
    "name-nul": "nul\x00byte",
    "name-non-ascii": "héllo ☃ \U0001d11e",
}


def rescaled(module, factor) -> FIModule:
    """An isomorphic copy with basis vector 0 of every degree scaled by
    ``factor``: each matrix becomes D^-1 M D with D = diag(factor, 1, ...)."""

    def scale(r, c):
        return Fraction(factor if c == 0 else 1, factor if r == 0 else 1)

    def conjugate(m):
        columns = [{r: x * scale(r, c) for r, x in col.items()} for c, col in enumerate(m.columns)]
        return SparseMatrix(m.rows, m.cols, columns)

    return FIModule(
        module.name,
        module.max_degree,
        module.generation_bound,
        module.dims,
        [[conjugate(g) for g in gens] for gens in module.transpositions],
        [conjugate(m) for m in module.inclusions],
    )


@pytest.mark.parametrize(
    "build",
    [
        *(lambda n=n, k=k: representable(n, k) for n, k in ((0, 0), (1, 1), (1, 2))),
        *(lambda k=k: zero_module(k) for k in (0, 1, 2)),
        lambda: free_module((2, 2), 9),
        _fraction_module,
        lambda: rescaled(free_module((2, 1), 6), 2),
        *(lambda name=name: _named_module(name) for name in _LAYOUT_NAMES.values()),
    ],
    ids=[
        "representable(0)-K0",
        "representable(1)-K1",
        "representable(1)-K2",
        "zero-K0",
        "zero-K1",
        "zero-K2",
        "free(2,2)-K9",
        "fractions",
        "rescaled",
        *_LAYOUT_NAMES,
    ],
)
def test_saved_bytes_are_the_indented_sorted_dump(build, tmp_path):
    module = build()
    path = tmp_path / "mod.json"
    save_module(module, path)
    assert path.read_bytes() == _pinned_bytes(module)
    assert dumps_module(load_module(path)).encode() == path.read_bytes()


def test_free_command_prints_the_saved_bytes(tmp_path, capsys):
    assert main(["free", "--lambda", "2,1", "--max-degree", "5"]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "mod.json"
    save_module(free_module((2, 1), 5), path)
    assert printed.encode() == path.read_bytes()


@pytest.mark.parametrize(
    "argv, module",
    [
        (["representable", "--n", "2", "--max-degree", "5"], representable(2, 5)),
        (["free", "--lambda", "2,1", "--max-degree", "5"], free_module((2, 1), 5)),
    ],
)
def test_generator_commands_print_the_indented_sorted_dump(argv, module, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == _pinned_bytes(module)


@pytest.mark.parametrize("bad", [False, 0.0, None, "", "0/1", "0/3"])
def test_first_bad_entry_after_leading_zeros_is_named(doc, bad):
    entries = doc["transpositions"]["3"][0]["entries"]
    idx = next(i for i, x in enumerate(entries) if x)
    assert 0 < idx < len(entries) - 1 and not any(entries[:idx])
    entries[idx] = bad
    entries[-1] = "0/1"  # a later bad entry must not be the one reported
    with pytest.raises(ModuleFormatError, match=re.escape(f"transpositions[3][0].entries[{idx}]:")):
        module_from_json(doc)


@pytest.mark.parametrize("module", [representable(2, 5), free_module((2, 1), 5)])
def test_integer_entries_load_as_int(module, tmp_path):
    path = tmp_path / "mod.json"
    save_module(module, path)
    loaded = load_module(path)
    pairs = list(zip(module.inclusions, loaded.inclusions))
    for k in range(module.max_degree + 1):
        pairs += zip(module.transpositions[k], loaded.transpositions[k])
    for built, read in pairs:
        assert read.columns == built.columns
        assert all(type(x) is int for column in read.columns for x in column.values())


_nonzero_entries = (
    st.integers(-(10**20), 10**20).filter(bool)
    | st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool)
)


def _draw_matrix(data, rows, cols):
    """A rows x cols matrix: all zero, fully dense, nonzero at the first and
    last index only, or a random mix with mostly zeros."""
    n = rows * cols
    kind = data.draw(st.sampled_from(["zero", "dense", "ends", "mixed"]))
    if kind == "zero":
        dense = [0] * n
    elif kind == "dense":
        dense = data.draw(st.lists(_nonzero_entries, min_size=n, max_size=n))
    elif kind == "ends":
        dense = [0] * n
        for idx in {0, n - 1} if n else ():
            dense[idx] = data.draw(_nonzero_entries)
    else:
        entry = st.just(0) | st.just(0) | st.just(0) | _nonzero_entries
        dense = data.draw(st.lists(entry, min_size=n, max_size=n))
    columns = [{r: dense[r * cols + c] for r in range(rows)} for c in range(cols)]
    return SparseMatrix(rows, cols, columns)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dumps_module_is_the_indented_sorted_dump(data):
    # Dimensions 0 next to positive ones give 0 x k and k x 0 inclusions; the
    # matrices need not form a valid module for the layout to be checked.
    max_degree = data.draw(st.integers(0, 4))
    dims = data.draw(st.lists(st.integers(0, 4), min_size=max_degree + 1, max_size=max_degree + 1))
    transpositions = [
        [_draw_matrix(data, d, d) for _ in range(max(k - 1, 0))] for k, d in enumerate(dims)
    ]
    inclusions = [_draw_matrix(data, dims[k + 1], dims[k]) for k in range(max_degree)]
    name = data.draw(st.text(max_size=6))
    bound = data.draw(st.integers(0, max_degree))
    module = FIModule(name, max_degree, bound, dims, transpositions, inclusions)
    text = dumps_module(module)
    assert text == json.dumps(module_to_json(module), indent=2, sort_keys=True) + "\n"
    assert dumps_module(module_from_json(json.loads(text))) == text


def test_module_files_do_not_use_the_locale_encoding(tmp_path):
    # With EncodingWarning an error, any read or write that falls back on the
    # locale encoding fails the command.
    env = {**os.environ, "PYTHONPATH": str(Path(ficalc.__file__).parents[1])}
    python = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    path = tmp_path / "mod.json"
    again = tmp_path / "again.json"
    script = (
        "import sys; from ficalc.fimod import load_module, save_module; "
        "save_module(load_module(sys.argv[1]), sys.argv[2])"
    )
    cli = ["-m", "ficalc.cli"]
    for argv in (
        cli + ["free", "--lambda", "2,1", "--max-degree", "4", "--output", str(path)],
        cli + ["validate", str(path)],
        ["-c", script, str(path), str(again)],
    ):
        done = subprocess.run(python + argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    assert again.read_bytes() == path.read_bytes()


def _strict_load(path):
    """``load_module`` with the written route turned off: json.loads and
    module_from_json alone."""
    with mock.patch.object(module_io, "_load_written", lambda raw: None):
        return load_module(path)


def _outcome(load, path):
    """The document of the loaded module, or the type and message raised."""
    try:
        return module_to_json(load(path))
    except Exception as exc:  # compared between the two routes
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "build",
    [
        *(lambda n=n: representable(n, 5) for n in (0, 1, 2, 3)),
        lambda: free_module((2, 1), 6),
        lambda: free_module((1, 1, 1), 5),
        lambda: rescaled(free_module((2, 1), 8), 2),
        lambda: representable(0, 0),
        lambda: representable(1, 1),
        lambda: representable(0, 1),
        *(lambda k=k: zero_module(k) for k in (0, 1, 3)),
        lambda: _named_module("é"),
    ],
    ids=[
        *(f"representable({n})-K5" for n in (0, 1, 2, 3)),
        "free(2,1)-K6",
        "free(1,1,1)-K5",
        "rescaled-free(2,1)-K8",
        "representable(0)-K0",
        "representable(1)-K1",
        "representable(0)-K1",
        "zero-K0",
        "zero-K1",
        "zero-K3",
        "escaped-non-ascii-name",
    ],
)
def test_saved_files_take_the_written_route_to_the_strict_module(build, tmp_path):
    path = tmp_path / "mod.json"
    save_module(build(), path)
    raw = path.read_bytes()
    assert module_io._load_written(raw) is not None
    loaded = load_module(path)
    assert dumps_module(loaded).encode() == raw
    assert module_to_json(loaded) == module_to_json(_strict_load(path))


_TOKEN_LINE = re.compile(r"^ *(-?[0-9]+|\"[^\"]*\"),?$", re.M)
_SCALAR_KEY_LINE = re.compile(r'^ *"[a-z_]+": [^\[{\n]*$', re.M)
_REPLACEMENTS = ["0", "1", "-1", '"1/2"', '"2/4"', "true", "1.0", "007"]
_WRITTEN = dumps_module(representable(2, 4))


def _edit_once(data, text: str) -> str:
    kind = data.draw(st.sampled_from(["token", "add-space", "drop-space", "duplicate-key"]))
    if kind == "token":
        token = data.draw(st.sampled_from(list(_TOKEN_LINE.finditer(text))))
        return text[: token.start(1)] + data.draw(st.sampled_from(_REPLACEMENTS)) + text[token.end(1) :]
    if kind == "add-space":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + data.draw(st.sampled_from([" ", "\n", "\t"])) + text[at:]
    if kind == "drop-space":
        at = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch in " \n"]))
        return text[:at] + text[at + 1 :]
    line = data.draw(st.sampled_from(list(_SCALAR_KEY_LINE.finditer(text))))
    return text[: line.start()] + line[0].rstrip(",") + ",\n" + text[line.start() :]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_an_edited_saved_file_loads_as_the_strict_route_reads_it(data):
    # Either the edit leaves the written layout, and the strict route runs,
    # or the written route accepts text that re-serializes to itself.
    text = _edit_once(data, _WRITTEN)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mod.json"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_module, path) == _outcome(_strict_load, path)


def test_loading_a_saved_module_never_parses_the_whole_text(tmp_path, monkeypatch):
    module = free_module((2, 1), 6)
    path = tmp_path / "mod.json"
    save_module(module, path)
    text = path.read_text(encoding="utf-8")
    lengths = []

    def loads(s, **kwargs):
        lengths.append(len(s))
        return json.loads(s, **kwargs)

    monkeypatch.setattr(
        module_io,
        "json",
        SimpleNamespace(loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError),
    )
    loaded = load_module(path)
    assert dumps_module(loaded) == text
    assert lengths and max(lengths) < len(text) // 10


def _crlf_copy(module) -> bytes:
    return dumps_module(module).replace("\n", "\r\n").encode()


def _raw_utf8_name(module) -> bytes:
    doc = {**module_to_json(module), "name": "héllo ☃"}
    return (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


@pytest.mark.parametrize("encode", [_crlf_copy, _raw_utf8_name], ids=["crlf", "raw-utf8-name"])
def test_other_encodings_of_a_saved_file_load_as_the_strict_route_reads_them(encode, tmp_path):
    module = free_module((2, 1), 5)
    path = tmp_path / "mod.json"
    path.write_bytes(encode(module))
    assert module_io._load_written(path.read_bytes()) is None
    loaded = load_module(path)
    assert module_to_json(loaded) == module_to_json(_strict_load(path))
    assert loaded.dims == module.dims
    assert [m.columns for m in loaded.inclusions] == [m.columns for m in module.inclusions]


def _traced_peak(call):
    """The peak and the final size of the memory that ``call`` allocates,
    with what it returns still alive."""
    tracemalloc.start()
    try:
        kept = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current


@pytest.mark.parametrize(
    "block, index, message",
    [
        (lambda d: d["transpositions"]["2"], 0, "transpositions[2][0] must be 2x2"),
        (lambda d: d["inclusions"], 1, "inclusions[1] must be 2x1"),
    ],
    ids=["transposition", "inclusion"],
)
def test_a_mis_shaped_matrix_is_refused_before_it_is_built(block, index, message):
    doc = module_to_json(representable(1, 3))
    block(doc)[index] = {"rows": 0, "cols": 10**6, "entries": []}

    def refused():
        with pytest.raises(ModuleFormatError) as exc:
            module_from_json(doc)
        assert str(exc.value) == message

    peak, _ = _traced_peak(refused)
    assert peak < 1 << 20  # a 0 x 10^6 matrix would hold 10^6 column dicts


def test_saving_and_loading_never_hold_a_second_copy_of_the_text(tmp_path):
    module = free_module((2, 1), 8)
    path = tmp_path / "mod.json"
    save_peak, _ = _traced_peak(lambda: save_module(module, path))
    size = path.stat().st_size
    assert save_peak < size / 10
    # the load holds the file's bytes once, the module it returns (about a
    # quarter of this file's size) and little besides
    load_peak, kept = _traced_peak(lambda: load_module(path))
    assert load_peak - kept < 1.1 * size
