"""End-to-end tests for the fi-calc command line driver."""

import gc
import hashlib
import json
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficalc import cli, fimod, nervehom, symrep
from ficalc.cli import full_report, main
from ficalc.combinat import build_poset
from ficalc.fimod import WindowError, coefficients
from ficalc.nervehom import complex_homology, connectivity_check, order_complex
from ficalc.symrep import StableRangeError, gn_dimension, kostka


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def make_module_file(tmp_path, capsys, *argv):
    path = tmp_path / "module.json"
    code = main([*argv, "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def test_representable_generates_valid_module(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "representable", "--n", "1", "--max-degree", "4"
    )
    doc = json.loads(path.read_text())
    assert doc["dims"] == [0, 1, 2, 3, 4]
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_free_generates_valid_module(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "free", "--lambda", "1,1", "--max-degree", "4"
    )
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["dims"] == [0, 0, 1, 3, 6]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["representable", "--n", "4", "--max-degree", "2"],
            "representable(4) is generated in degree 4, outside the window 0..2",
        ),
        (
            ["free", "--lambda", "3", "--max-degree", "2"],
            "free((3)) is generated in degree 3, outside the window 0..2",
        ),
    ],
)
def test_generators_outside_the_window_name_the_module(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"fi-calc {argv[0]}: {message}\n"


def test_generators_refuse_non_json_formats(capsys):
    code = main(["representable", "--n", "1", "--max-degree", "3", "--format", "csv"])
    assert code == 2


def test_validate_missing_file(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "nope.json")])
    assert code == 2


def test_validate_deeply_nested_file_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["validate", str(garbage)]) == 1
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fi-calc validate: not valid JSON: nested too deeply to parse\n"


def test_validate_flags_corrupted_module(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "representable", "--n", "2", "--max-degree", "4"
    )
    doc = json.loads(path.read_text())
    block = doc["transpositions"]["3"][0]
    block["entries"] = [0] * (block["rows"] * block["cols"])
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"]


def test_parameter_guard_and_override(tmp_path, capsys):
    assert main(["free", "--lambda", "2,2,2", "--max-degree", "6"]) == 2
    assert "--lambda 6 exceeds the default guard 5" in capsys.readouterr().err
    assert main(["free", "--lambda", "2", "--max-degree", "11"]) == 2
    assert "--max-degree 11 exceeds the default guard 10" in capsys.readouterr().err
    assert main(["representable", "--n", "1", "--max-degree", "11"]) == 2
    assert "--max-degree 11 exceeds the default guard 10" in capsys.readouterr().err
    path = make_module_file(
        tmp_path, capsys, "representable", "--n", "1", "--max-degree", "4"
    )
    assert main(["coefficients", str(path), "--max-index", "6"]) == 2
    assert "--max-index 6 exceeds the default guard 5" in capsys.readouterr().err
    code, out = run(
        capsys,
        "free", "--lambda", "2,2,2", "--max-degree", "6", "--allow-large",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "free((2,2,2))"
    assert doc["dims"] == [0, 0, 0, 0, 0, 0, 5]


@pytest.mark.parametrize(
    "argv,count",
    [
        (["representable", "--n", "4", "--max-degree", "9"], 104694336),
        (["representable", "--n", "4", "--max-degree", "8"], 26457408),
    ],
)
def test_module_commands_refuse_a_document_past_the_entry_guard(capsys, argv, count):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"fi-calc representable: the module document would hold {count} matrix "
        f"entries, over the default guard {cli.GUARD_ENTRIES}; pass --allow-large to override\n"
    )


@pytest.mark.parametrize(
    "build,params,count",
    [
        ("representable", (4, 7), 5289408),
        ("representable", (3, 10), 8477568),
        ("free_module", ((2, 2), 9), 727044),
        ("representable", (2, 5), None),
        ("free_module", ((2, 1), 6), None),
        ("representable", (0, 3), None),
    ],
)
def test_entry_count_is_the_documents_matrix_entries(build, params, count):
    # the printable corners stay under the guard; every count is the number
    # of entries the module's document holds
    module = getattr(fimod, build)(*params)
    doc = fimod.module_to_json(module)
    matrices = [m for block in doc["transpositions"].values() for m in block] + doc["inclusions"]
    assert fimod.io._entry_count(module.dims) == sum(m["rows"] * m["cols"] for m in matrices)
    if count is not None:
        assert fimod.io._entry_count(module.dims) == count <= cli.GUARD_ENTRIES


def test_entry_guard_counts_from_dims_and_yields_to_allow_large(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GUARD_ENTRIES", 100)
    for argv, count, name in [
        (["representable", "--n", "2", "--max-degree", "4"], 592, "representable(2)"),
        (["free", "--lambda", "2,1", "--max-degree", "4"], 216, "free((2,1))"),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"would hold {count} matrix entries, over the default guard 100;" in err
        assert err.count("\n") == 1
        code, out = run(capsys, *argv, "--allow-large")
        assert code == 0
        assert json.loads(out)["name"] == name


def test_gn_dimension_and_formats(capsys):
    code, out = run(capsys, "gn", "--n", "2", "--k", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == gn_dimension(2, 6)
    total = sum(
        c["multiplicity"] * c["specht_dimension"] for c in doc["characters"]
    )
    assert total == doc["dimension"]
    assert all(c["weight"] == 2 for c in doc["characters"])

    code, out = run(capsys, "gn", "--n", "2", "--k", "6", "--format", "markdown")
    assert code == 0
    assert out.startswith("# weight-2 layer at level 6")
    assert "| partition |" in out

    code, out = run(capsys, "gn", "--n", "2", "--k", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "table,layer dimension"


def test_kostka_command(capsys):
    code, out = run(capsys, "kostka", "--lambda", "3,1", "--mu", "2,1,1")
    assert code == 0
    assert json.loads(out)["kostka"] == kostka((3, 1), (2, 1, 1))


def test_malformed_partition_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kostka", "--lambda", "1,2", "--mu", "2,1"])
    assert info.value.code == 2


def test_output_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gn", "--n", "2", "--k", "5", "--output", str(a)]) == 0
    assert main(["gn", "--n", "2", "--k", "5", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_homology_command_with_certificate(capsys):
    code, out = run(capsys, "homology", "--n", "2", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [0, 5]
    assert doc["connected"] is True
    assert doc["wedge"] == {"degree": 1, "rank": 5}


def test_homology_below_certified_range_has_no_claim(capsys):
    code, out = run(capsys, "homology", "--n", "2", "--k", "2")
    assert code == 0
    assert "wedge" not in json.loads(out)


def test_homology_rejects_degenerate_sizes(capsys):
    assert main(["homology", "--n", "0", "--k", "3"]) == 2


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 3), (3, 5)])
def test_homology_document_equals_one_built_from_the_nerve(capsys, n, k):
    nerve = order_complex(build_poset(n, k))
    result = complex_homology(nerve)
    expected = {
        "operation": "homology",
        "n": n,
        "k": k,
        "vertices": nerve.vertex_count,
        "simplices": [len(batch) for batch in nerve.simplices],
        "euler_characteristic": nerve.euler_characteristic(),
        "connected": connectivity_check(n, k),
        "betti": list(result.betti),
        "torsion": [list(t) for t in result.torsion],
    }
    if k >= 2 * n - 1:
        expected["wedge"] = {"degree": n - 1, "rank": gn_dimension(n, k)}
    code, out = run(capsys, "homology", "--n", str(n), "--k", str(k))
    assert code == 0
    assert json.loads(out) == expected


def test_homology_never_builds_the_nerve_but_the_report_does(capsys, monkeypatch):
    def boom(poset):
        raise RuntimeError("nerve built")

    monkeypatch.setattr(cli, "order_complex", boom)
    code, out = run(capsys, "homology", "--n", "3", "--k", "5")
    assert code == 0
    assert json.loads(out)["wedge"] == {"degree": 2, "rank": gn_dimension(3, 5)}
    doc, _tables, passed = full_report(1, 3)
    cells = {c["cell"]: c for section in doc["sections"] for c in section["cells"]}
    assert not passed
    assert cells["poset symmetry"]["detail"] == "RuntimeError: nerve built"


def test_homology_reads_connectivity_off_reduced_h0(capsys, monkeypatch):
    # union-find over the poset's covers stays the independent oracle; the
    # command itself builds no poset
    expected = {(n, k): connectivity_check(n, k) for n in range(1, 4) for k in range(1, 7)}
    assert [k for k in range(1, 7) if not expected[1, k]] == [2, 3, 4, 5, 6]

    def boom(*args):
        raise RuntimeError("poset built")

    monkeypatch.setattr(cli, "connectivity_check", boom, raising=False)
    for module in (cli, nervehom):
        monkeypatch.setattr(module, "build_poset", boom)
    for (n, k), connected in expected.items():
        code, out = run(capsys, "homology", "--n", str(n), "--k", str(k))
        assert code == 0
        assert json.loads(out)["connected"] is connected, (n, k)


def test_decompose_and_predict_agree(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "free", "--lambda", "1,1", "--max-degree", "6"
    )
    code, out = run(capsys, "decompose", str(path), "--k", "5")
    assert code == 0
    direct = json.loads(out)["multiplicities"]
    assert direct == [
        {"partition": "4,1", "multiplicity": 1},
        {"partition": "3,1,1", "multiplicity": 1},
    ]
    code, out = run(capsys, "predict", str(path), "--k", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == direct
    assert doc["matches_direct"] is True


def test_predict_extrapolates_past_the_window(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "free", "--lambda", "1,1", "--max-degree", "6"
    )
    code, out = run(capsys, "predict", str(path), "--k", "12")
    assert code == 0
    doc = json.loads(out)
    assert "matches_direct" not in doc
    assert doc["multiplicities"] == [
        {"partition": "11,1", "multiplicity": 1},
        {"partition": "10,1,1", "multiplicity": 1},
    ]


def test_predict_below_stable_range(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "free", "--lambda", "1,1", "--max-degree", "6"
    )
    assert main(["predict", str(path), "--k", "3"]) == 2


def test_coefficients_command(tmp_path, capsys):
    path = make_module_file(
        tmp_path, capsys, "representable", "--n", "2", "--max-degree", "6"
    )
    code, out = run(capsys, "coefficients", str(path))
    assert code == 0
    doc = json.loads(out)
    assert [c["dims"][0] for c in doc["coefficients"]] == [1, 2, 2]
    assert doc["transition_ranks"] == [1, 2]


# sha256 of the stdout of the coefficient commands on two saved modules; the
# coefficient scan, the characters and the transitions all feed these bytes
COEFFICIENT_DIGESTS = {
    ("free", "coefficients"): "9a5d395c8ccb41df640109ef39fd20adba9793f6f8e0532b6126d73568a3c792",
    ("free", "predict"): "f165142bcd986f11bb974fa825a25e751cadc3bf39bed89d15ee841da0b11acb",
    ("representable", "coefficients"): "c95d0a527e0487ee3baf9d2d750a04dab12011ea8d4674eec4809130788faf1c",
    ("representable", "predict"): "f6600b8a79c1b361e859ae81e44b38a526d5220965fd9adae6e22f3b1e65ec39",
}
COEFFICIENT_MODULES = {
    "free": ["free", "--lambda", "2,2", "--max-degree", "9"],
    "representable": ["representable", "--n", "2", "--max-degree", "8"],
}


@pytest.mark.parametrize("module,command", sorted(COEFFICIENT_DIGESTS))
def test_coefficient_command_bytes_are_pinned(tmp_path, capsys, module, command):
    path = make_module_file(tmp_path, capsys, *COEFFICIENT_MODULES[module])
    extra = ["--k", "9"] if command == "predict" else []
    code, out = run(capsys, command, str(path), *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COEFFICIENT_DIGESTS[module, command]


def test_report_passes_at_desk_scale(capsys):
    code, out = run(capsys, "report", "--n-max", "1", "--k-max", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["sections"]) == 8
    for section in doc["sections"]:
        assert all(cell["passed"] for cell in section["cells"])


def test_report_markdown_default_and_verdict(capsys):
    code, out = run(capsys, "report", "--n-max", "1", "--k-max", "3")
    assert code == 0
    assert out.startswith("# report at n_max=1, k_max=3: PASS")
    assert "| PASS |" in out
    assert "FAIL" not in out


def test_failed_cross_check_exits_1_with_message(capsys, monkeypatch):
    monkeypatch.setattr(symrep, "specht_dimension", lambda lam: 0)
    assert main(["gn", "--n", "2", "--k", "5"]) == 1
    assert "routes disagree" in capsys.readouterr().err


def test_report_guard(capsys):
    assert main(["report", "--n-max", "6", "--k-max", "3"]) == 2
    assert "--n-max 6 exceeds the default guard 5" in capsys.readouterr().err
    assert main(["report", "--n-max", "2", "--k-max", "11"]) == 2
    assert "--k-max 11 exceeds the default guard 10" in capsys.readouterr().err


@pytest.mark.parametrize("n_max,k_max", [("-1", "3"), ("2", "-1")])
def test_report_rejects_negative_scales(capsys, n_max, k_max):
    assert main(["report", "--n-max", n_max, "--k-max", k_max]) == 2
    assert "--n-max >= 0 and --k-max >= 0" in capsys.readouterr().err


def test_report_passes_at_every_small_window():
    # scales whose windows cannot hold some cell's module emit no such cell
    for n_max in range(0, 6):
        for k_max in range(0, 4):
            doc, _, passed = full_report(n_max, k_max)
            failing = [c for s in doc["sections"] for c in s["cells"] if not c["passed"]]
            assert passed and not failing, (n_max, k_max, failing)


# sha256 of the report's stdout; any change to which cells run at a scale, to
# a label or to a detail string changes these bytes
REPORT_DIGESTS = {
    (0, 0, "json"): "adc0c0a9621e959d89e83b1032dddf20815411e54b160f2e9aa09bd5ab26d7bd",
    (1, 3, "json"): "daf02b1f5eedeebbd52aeb7b870f999253f992905fe00b18f5dbc038ad8a2d23",
    (2, 2, "json"): "70697d8c38b85ed2607fca4f11cbf5d5c3a57469e8353b5184c6e0acf766c1d0",
    (2, 5, "json"): "9e9236f3ec9a226d660b13af9ab7696fd9702f67445d1fd0b9ed69a038265c8c",
    (3, 7, "json"): "a5f503ca85bdf4f5256fd64ccc5fbfbddd140821c5bc35df5a4b667bab741d0a",
    (5, 6, "json"): "117877830db68f3f8f183003a89574aa53bf7428a3475671fb1408c5fd19390d",
    (1, 3, "markdown"): "27d03f7611fbf20e41bfe0bd6cd58058c06b997e0297653e7c90c9e9a4f2e648",
    (3, 7, "markdown"): "e6e9fd2f048144d3802aa6db2d8025305b6f3d17186d08e52dae05a5ae6e6585",
    (1, 3, "csv"): "3ae707884e0e4153fe3c1948445afe2b63d1d447105af0648ea209f94b078d11",
    (3, 7, "csv"): "635e709300537d62b35fd131e3839bca41a12fc29248ba038574026f4efba4cc",
}


@pytest.mark.parametrize("n_max,k_max,fmt", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(capsys, n_max, k_max, fmt):
    code, out = run(capsys, "report", "--n-max", str(n_max), "--k-max", str(k_max), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[n_max, k_max, fmt]


def test_report_builds_each_module_once_per_call(monkeypatch):
    counts = {"representable": 0, "free_module": 0, "CubeStage": 0, "action_matrix": 0}
    built = []  # a weak reference to each module
    for name in ("representable", "free_module"):
        def counted(*args, name=name, build=getattr(cli, name)):
            counts[name] += 1
            module = build(*args)
            built.append(weakref.ref(module))
            return module

        monkeypatch.setattr(cli, name, counted)

    class CountedStage(coefficients.CubeStage):
        def __init__(self, *args):
            counts["CubeStage"] += 1
            super().__init__(*args)

        def action_matrix(self, *args):
            counts["action_matrix"] += 1
            return super().action_matrix(*args)

    monkeypatch.setattr(coefficients, "CubeStage", CountedStage)
    # with the cycle collector off, reference counting alone frees each module
    gc.disable()
    try:
        assert full_report(3, 7)[2]
        assert len(built) == 18 and all(ref() is None for ref in built)
    finally:
        gc.enable()
    # each stage keeps its homology generators: 10 distinct (stage, generator,
    # degree) of the report's modules, where building them on every trace took
    # 20, and 1 of a derivative; a profile's transitions share their stages:
    # 104 stages of the report's modules, where building them per transition
    # took 108, and 70 more of the derivatives the shift cells scan
    assert counts == {
        "representable": 13, "free_module": 5, "CubeStage": 174, "action_matrix": 11
    }
    # a second call starts cold: no module or stage outlives the first
    assert full_report(3, 7)[2]
    assert counts == {
        "representable": 26, "free_module": 10, "CubeStage": 348, "action_matrix": 22
    }


def test_crashing_cell_is_a_failing_cell(capsys, monkeypatch):
    def boom(n, k):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "wedge_certificate", boom)
    code, out = run(capsys, "report", "--n-max", "1", "--k-max", "3", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    wedge, *others = doc["sections"]
    assert wedge["section"] == "Wedge of spheres"
    assert [c["cell"] for c in wedge["cells"]] == ["P(1,1)", "P(1,2)", "P(1,3)"]
    for cell in wedge["cells"]:
        assert cell["passed"] is False and cell["detail"] == "RuntimeError: boom"
    assert len(others) == 7
    assert all(cell["passed"] for section in others for cell in section["cells"])


@pytest.mark.parametrize(
    "command", [["coefficients", "--max-index", "-1"], ["coefficients", "--max-index", "-2"]]
)
def test_negative_max_index_is_a_usage_error(tmp_path, capsys, command):
    path = make_module_file(
        tmp_path, capsys, "representable", "--n", "1", "--max-degree", "4"
    )
    assert main([command[0], str(path), *command[1:]]) == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lam, message",
    [
        ("1,2", "partition must be weakly decreasing: (1, 2)"),
        ("3,0", "partition parts must be positive: (3, 0)"),
        ("a,b", "'a,b' is not a comma-separated list of integers"),
    ],
)
def test_a_malformed_partition_is_a_usage_error(capsys, lam, message):
    with pytest.raises(SystemExit) as exc:
        main(["kostka", "--lambda", lam, "--mu", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"fi-calc kostka: error: argument --lambda: {message}\n")


def test_predict_reads_every_coefficient_up_to_the_generation_bound(tmp_path, capsys):
    path = make_module_file(tmp_path, capsys, "representable", "--n", "2", "--max-degree", "7")
    code, out = run(capsys, "predict", str(path), "--k", "12")
    assert code == 0
    dimension = sum(
        row["multiplicity"] * symrep.specht_dimension(tuple(map(int, row["partition"].split(","))))
        for row in json.loads(out)["multiplicities"]
    )
    assert dimension == 12 * 11  # one basis vector of E(12) per injection 2 -> 12
    with pytest.raises(SystemExit) as exc:
        main(["predict", str(path), "--k", "12", "--max-index", "1"])
    assert exc.value.code == 2


def test_predict_reports_a_prediction_the_direct_decomposition_refutes(tmp_path, capsys, monkeypatch):
    path = make_module_file(tmp_path, capsys, "representable", "--n", "1", "--max-degree", "4")
    monkeypatch.setattr(
        cli, "dictionary_prediction", lambda profile, k: symrep.RepDecomposition(k, {(k,): 1})
    )
    assert main(["predict", str(path), "--k", "3"]) == 1
    assert capsys.readouterr().err == (
        "fi-calc predict: prediction at k=3 disagrees with the direct decomposition of representable(1)\n"
    )


@pytest.mark.parametrize(
    "error,code",
    [
        (cli.UsageError("bad flag"), 2),
        (cli.ModuleFormatError("bad file"), 1),
        (cli.NotACharacterError("not a character"), 1),
        (cli.NotStabilizedError("no two stages agree", []), 1),
        (cli.InstabilityError("boundaries escape"), 1),
        (cli.DictionaryInapplicableError("not free"), 1),
        (cli.TheoremViolationError("wrong rank"), 1),
        (cli.CrossCheckError("routes disagree"), 1),
        (cli.ComplexInvalidError(0, "d . d != 0 entering degree 0"), 1),
        (StableRangeError("below the stable range"), 2),
        (WindowError("outside the window"), 2),
        (FileNotFoundError(2, "No such file or directory"), 2),
        (ValueError("some other value"), 2),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_each_error_class_has_its_exit_code_and_one_line(capsys, monkeypatch, error, code):
    def handler(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_gn", handler)
    assert main(["gn", "--n", "2", "--k", "5"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fi-calc gn: {error}\n"


def test_module_file_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fi-calc validate: not UTF-8: ") and err.count("\n") == 1


def _module_doc_with_entry(tmp_path, capsys, entry: str) -> Path:
    """A saved representable(1, 3) whose first inclusion entry is ``entry``,
    written as raw JSON text."""
    path = make_module_file(tmp_path, capsys, "representable", "--n", "1", "--max-degree", "3")
    doc = json.loads(path.read_text())
    doc["inclusions"][1]["entries"][0] = "ENTRY"
    path.write_text(json.dumps(doc).replace('"ENTRY"', entry))
    return path


def test_module_file_with_an_overlong_integer_is_a_format_error(tmp_path, capsys):
    path = _module_doc_with_entry(tmp_path, capsys, "7" * 5000)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fi-calc validate: integer too long to read: ") and err.count("\n") == 1


def test_module_file_with_an_overlong_fraction_is_a_format_error(tmp_path, capsys):
    path = _module_doc_with_entry(tmp_path, capsys, '"%s/2"' % ("7" * 5000))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fi-calc validate: inclusions[1].entries[0]: ")
    assert "too many digits" in err and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _field_paths(node, prefix=()):
    """Every field of a JSON document, as the key path that reaches it."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_module_documents_never_escape(data):
    # One field of a saved representable(1, 3) is replaced or deleted; the
    # validate and decompose commands must answer with an exit code.
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "module.json")
        assert main(["representable", "--n", "1", "--max-degree", "3", "--output", path]) == 0
        doc = json.loads(Path(path).read_text())
        field = data.draw(st.sampled_from(list(_field_paths(doc))))
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[field[-1]]
        else:
            parent[field[-1]] = data.draw(json_values)
        Path(path).write_text(json.dumps(doc))
        assert main(["validate", path]) in {0, 1, 2}
        assert main(["decompose", path, "--k", "2"]) in {0, 1, 2}
