"""Tests for manifests, the operation registry, reports, and the CLI."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import schurmult
from schurmult import bench, hankel, medgraph
from schurmult.bench import (
    DEFAULTS,
    ExperimentManifest,
    built_in_manifest,
    manifest_from_json,
    parse_graph,
    run_manifest,
    write_reports,
)
from schurmult.cli import main
from schurmult.hankel import class_spec, s1_estimate
from schurmult.medgraph import cayley_ball
from schurmult.mlab import cb_norm_sdp, radial_kernel
from schurmult.serialize import cb_result_to_json
from schurmult.symbols import make_symbol


def small_manifest(op, grid, **kw):
    return ExperimentManifest("t", op, tuple(grid), **kw)


# ---------------------------------------------------------------- manifests


def test_manifest_rejects_unknown_operation():
    with pytest.raises(ValueError, match="unknown operation"):
        small_manifest("hankel.no_such_op", [])


def test_manifest_rejects_bad_sizes():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_manifest("hankel.rank_one_geom", [], sizes=(64, 64, 128))
    with pytest.raises(ValueError, match="strictly increasing"):
        small_manifest("hankel.rank_one_geom", [], sizes=(256, 128))


def test_manifest_rejects_unknown_symbol():
    row = {"symbol": "NOT_A_SYMBOL", "level": 1, "tag": "A"}
    with pytest.raises(ValueError, match="unknown symbol"):
        small_manifest("hankel.s1_estimate", [row])


def test_manifest_round_trip_from_json():
    text = json.dumps({
        "experiment": "demo",
        "operation": "hankel.rank_one_geom",
        "grid": [{"level": 1, "r": 0.5, "K": 40}],
        "sizes": [32, 64],
        "tol": 1e-9,
        "seed": 7,
    })
    m = manifest_from_json(text)
    assert m.operation == "hankel.rank_one_geom"
    assert m.sizes == (32, 64)
    assert m.tol == 1e-9 and m.seed == 7
    assert m.grid[0]["r"] == 0.5


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "manifest_schema.json")
                    .read_text(encoding="utf-8"))


def test_schema_operation_enum_is_the_registry():
    assert SCHEMA["properties"]["operation"]["enum"] == sorted(bench._OPERATIONS)


GRID_ITEM = SCHEMA["properties"]["grid"]["items"]


def test_schema_grid_keys_are_the_parameter_tables():
    tables = [table for _, table in bench._OPERATIONS.values()]
    assert GRID_ITEM["additionalProperties"] is False
    assert set(GRID_ITEM["properties"]) == set().union(*tables)


def test_schema_types_agree_with_the_conversions():
    strings = {"symbol": "GEOM", "tag": "A", "graph": "T3ball(1)"}
    for _, table in bench._OPERATIONS.values():
        for name, (convert, _) in table.items():
            kind = GRID_ITEM["properties"][name]["type"]
            if kind == "integer":
                assert type(convert(3)) is int and convert(3.0) == 3, name
                with pytest.raises(ValueError):
                    convert(1.5)
            elif kind == "number":
                assert type(convert(1)) is float, name
            elif kind == "array":
                assert isinstance(convert([3, 4]), (tuple, list)), name
                with pytest.raises(ValueError):
                    convert(3)
            else:
                assert kind == "string", name
                convert(strings[name])
                if "enum" in GRID_ITEM["properties"][name]:
                    with pytest.raises(ValueError):
                        convert("D")


def test_schema_properties_are_the_keys_the_loader_accepts():
    assert SCHEMA["additionalProperties"] is False
    full = {"experiment": "demo", "operation": "hankel.rank_one_geom", "grid": [],
            "sizes": [32, 64], "tol": 1e-9, "out": "demo", "seed": 3}
    assert set(SCHEMA["properties"]) == set(full)
    assert manifest_from_json(json.dumps(full)).out == "demo"
    for key in ("sied", "jobs"):
        with pytest.raises(ValueError, match=f"unknown manifest keys \\['{key}'\\]"):
            manifest_from_json(json.dumps(dict(full, **{key: 1})))
    with pytest.raises(ValueError, match="JSON object, got list"):
        manifest_from_json(json.dumps([full]))


@pytest.mark.parametrize("raw, message", [
    ({"experiment": "x", "operation": "hankel.rank_one_geom", "sed": 4},
     "unknown manifest keys ['sed']"),
    ({"experiment": "x", "operation": "hankel.rank_one_geom", "grid": 5}, "not iterable"),
    ([], "JSON object, got list"),
    ({"experiment": "x", "operation": "hankel.rank_one_geom",
      "grid": [{"level": 1, "r": 0.5, "k": 3}]}, "takes no 'k'"),
    ({"experiment": "x", "operation": "hankel.rank_one_geom",
      "grid": [{"level": 1.5, "r": 0.5}]}, "1.5 is not an integer"),
    ({"experiment": "x", "operation": "hankel.s1_estimate",
      "grid": [{"symbol": "GEOM", "params": [0.5], "level": 1, "tag": "D"}]},
     "class tag must be one of A, B, C, got 'D'"),
])
def test_cli_run_refuses_malformed_manifests(tmp_path, raw, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    res = CliRunner().invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert message in res.output


def test_built_in_manifests_exist():
    assert len(built_in_manifest("inclusions").grid) == 36
    assert len(built_in_manifest("geom-norms").grid) == 9
    with pytest.raises(ValueError):
        built_in_manifest("nope")


# ---------------------------------------------------------------- graph exprs


def test_parse_graph_tree_ball_sizes():
    assert parse_graph("T3ball(2)").size == 10
    assert parse_graph("T4ball(1)").size == 5
    assert parse_graph(" T3ball( 2 ) ".replace(" ", "")).size == 10


def test_parse_graph_product_and_cayley():
    g = parse_graph("product(T3ball(1), T3ball(1))")
    assert g.size == 16
    assert parse_graph("cayley(2)").size == cayley_ball(2).size


def test_parse_graph_errors():
    for expr in ("noparens", "foo(2)", "T2ball(1)", "product()"):
        with pytest.raises(ValueError):
            parse_graph(expr)


# ---------------------------------------------------------------- running


def test_geom_norms_rows_all_match(tmp_path):
    result = run_manifest(built_in_manifest("geom-norms"), out_dir=tmp_path)
    assert result.exit_code == 0
    assert len(result.rows) == 9
    for row in result.rows:
        assert row.verdicts["agreement"] == "MATCH"
        assert row.values["error"] <= DEFAULTS["tol"]
    assert result.csv_path.exists() and result.json_path.exists()


def test_csv_report_is_byte_identical(tmp_path):
    manifest = built_in_manifest("geom-norms")
    a = run_manifest(manifest, out_dir=tmp_path / "a")
    b = run_manifest(manifest, out_dir=tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()


def test_json_report_records_settings(tmp_path):
    result = run_manifest(built_in_manifest("geom-norms"), out_dir=tmp_path)
    payload = json.loads(result.json_path.read_text())
    assert payload["defaults"]["sizes"] == list(DEFAULTS["sizes"])
    assert payload["seed"] == 0
    assert payload["exit_code"] == 0
    assert all("wall_time" in row for row in payload["rows"])


def test_mismatch_row_fails_run(tmp_path):
    grid = ({"level": 1, "r": 0.9, "K": 3},)   # truncation error ~0.9^8
    manifest = small_manifest("hankel.rank_one_geom", grid, tol=1e-12)
    result = run_manifest(manifest, out_dir=tmp_path)
    assert result.exit_code == 1
    assert result.rows[0].status == "fail"
    assert result.rows[0].verdicts["agreement"] == "MISMATCH"


def test_refusal_row_is_error_not_fail():
    # uncentered symbol: the witness builder refuses, the run does not "fail"
    grid = ({"symbol": "PARITY", "params": [], "N": 1, "radius": 2, "K": 8},)
    result = run_manifest(small_manifest("mlab.tree_product_witness", grid))
    assert result.exit_code == 0
    assert result.rows[0].status == "error"
    assert "split_radial" in result.rows[0].message


def test_median_row_draws_the_per_triple_sequence(monkeypatch):
    # one batched draw of (triples, 3) is the sequence of per-triple draws
    seen = []

    def recording(cx, x, y, z):
        seen.append((cx.graph.size, np.column_stack([x, y, z])))
        return medgraph.median(cx, x, y, z)

    monkeypatch.setattr(bench, "median", recording)
    grid = ({"degrees": [3, 3], "radius": 1, "triples": 300},)
    (row,) = run_manifest(small_manifest("medgraph.median", grid, seed=11)).rows
    assert row.status == "ok" and row.verdicts == {"median": "UNIQUE"}
    ((n, drawn),) = seen
    rng = np.random.default_rng(11)
    assert drawn.tolist() == [rng.integers(0, n, size=3).tolist() for _ in range(300)]


def test_serre_row_builds_its_coset_tree_once(monkeypatch):
    sizes = []
    build = medgraph.graph_from_edges

    def recording(labels, edges, distances=None):
        g = build(labels, edges, distances)
        sizes.append(g.size)
        return g

    monkeypatch.setattr(medgraph, "graph_from_edges", recording)
    (row,) = run_manifest(small_manifest("medgraph.serre", ({"R": 2},))).rows
    assert row.status == "ok"
    # the Cayley ball (31 vertices), then one coset tree (46 vertices)
    assert sizes == [31, 46]


def test_complex_product_witness_row_stays_complex():
    # I_POWER(1.0) used to trip the complex-to-float cast and report a section
    # mismatch; its step-2 differences decay only like n^-2, so now the tail
    # check refuses it.  I_POWER(6.0) decays fast enough to certify.
    grid = ({"symbol": "I_POWER", "params": [6.0], "N": 2, "radius": 2, "K": 8},
            {"symbol": "I_POWER", "params": [1.0], "N": 2, "radius": 2, "K": 8})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_manifest(small_manifest("mlab.tree_product_witness", grid)).rows
    assert rows[0].status == "ok"
    assert rows[0].verdicts == {"reproduction": "WITHIN_TAIL"}
    assert rows[0].values["reproduction_error"] <= rows[0].values["tail_bound"]
    assert "does not match" not in rows[1].message
    assert rows[1].message.startswith("TailBoundExceededError")


def test_unexpected_exceptions_become_error_rows():
    grid = ({"symbol": "GEOM", "params": [0.5], "level": 1, "tag": "B"},
            {"symbol": "GEOM", "params": [0.5], "tag": "B"},
            {"symbol": "POWER", "params": [1.5], "level": 1, "tag": "B"})
    result = run_manifest(small_manifest("hankel.s1_estimate", grid,
                                         sizes=(16, 32)))
    assert [r.status for r in result.rows] == ["ok", "error", "ok"]
    assert result.rows[1].message == "KeyError: 'level'"
    assert result.exit_code == 0


def test_symbol_arguments_are_refused_on_load():
    grid = ({"symbol": "GEOM", "params": [0.5], "level": 1, "tag": "B"},
            {"symbol": "I_POWER", "params": [], "level": 1, "tag": "B"})
    with pytest.raises(ValueError, match=r"^grid row 1: bad 'params': .*alpha"):
        small_manifest("hankel.s1_estimate", grid)
    res = CliRunner().invoke(main, ["classes", "--symbol", "GEOM", "--params", "r=abc",
                                    "--n", "1", "--class", "A"])
    assert res.exit_code == 2
    assert "grid row 0: bad 'params': bad operand type for abs(): 'str'" in res.output


def test_broken_tail_row_is_assertion_fail():
    grid = ({"symbol": "GEOM", "params": [0.9], "N": 1, "radius": 2,
             "K": 8, "j_tail": 2},)
    result = run_manifest(small_manifest("mlab.tree_product_witness", grid,
                                         tol=1e-6))
    assert result.exit_code == 1
    assert result.rows[0].status == "fail"


def test_jobs_env_is_respected(tmp_path):
    result = run_manifest(built_in_manifest("geom-norms"), out_dir=tmp_path, jobs=2)
    assert result.exit_code == 0
    # parallel execution must not reorder rows
    levels = [row.params["level"] for row in result.rows]
    assert levels == sorted(levels)


def test_write_reports_table_symbol(tmp_path):
    # complex table entries must survive the CSV and JSON writers
    grid = ({"symbol": "TABLE", "params": [[0.0, 0.5j, 0.25], "ZERO"],
             "level": 1, "tag": "A"},)
    result = run_manifest(small_manifest("hankel.s1_estimate", grid,
                                         sizes=(16, 32)))
    assert result.rows[0].status == "ok"
    csv_path, json_path = write_reports(result, tmp_path)
    header = csv_path.read_text().splitlines()[0]
    assert "estimate" in header and "status" in header
    payload = json.loads(json_path.read_text())
    assert payload["rows"][0]["params"]["params"][0][1] == [0.0, 0.5]


@pytest.fixture
def solver_calls(monkeypatch):
    """Count the eigvalsh and SVD calls that trace norms make."""
    calls = []
    for name in ("eigvalsh", "svd"):
        def counted(*args, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_inclusions_compute_each_section_once_per_run(solver_calls):
    # 36 rows of 4 sections took 144 eigensolver or SVD calls.  PARITY's 16
    # step-2 sections (A and C, levels 1 and 2) are zero and take none; the
    # level-1 C sections of the other five symbols are their A sections.
    # Sizes of one row that cut to one block solve it once: GEOM's five
    # distinct rows each cut to one block at all four sizes
    manifest = built_in_manifest("inclusions")
    repeats = 0
    for row in manifest.grid:
        if (row["level"], row["tag"]) == (1, "C"):
            continue
        spec = class_spec(make_symbol(row["symbol"], *row["params"]), row["level"], row["tag"])
        detail = s1_estimate(spec, manifest.sizes, manifest.tol).detail
        if "zero" not in detail["paths"]:
            repeats += len(manifest.sizes) - len(set(detail["cuts"]))
    assert repeats == 5 * 3
    solver_calls.clear()
    first = run_manifest(manifest)
    calls = len(solver_calls)
    assert calls == 144 - 16 - 5 * 4 - repeats
    second = run_manifest(built_in_manifest("inclusions"))
    # nothing survives a run: the second computes every section again
    assert len(solver_calls) == 2 * calls
    assert hankel._MEMO.get() is None
    assert [r.values for r in first.rows] == [r.values for r in second.rows]


def test_threaded_inclusions_csv_is_byte_identical(tmp_path):
    one = run_manifest(built_in_manifest("inclusions"), out_dir=tmp_path / "j1", jobs=1)
    two = run_manifest(built_in_manifest("inclusions"), out_dir=tmp_path / "j2", jobs=2)
    assert one.csv_path.read_bytes() == two.csv_path.read_bytes()


def test_memo_tells_tables_apart_by_their_values():
    # both symbols are TABLE(5, ZERO) and compare equal; their sections differ
    tables = ([1.0, 0.5, 0.25, 0.125, 0.0625], [1.0, -0.5, 0.25, 0.75, 0.0625])
    grid = [{"symbol": "TABLE", "params": [values, "ZERO"], "level": 1, "tag": "B"}
            for values in tables]
    rows = run_manifest(small_manifest("hankel.s1_estimate", grid, sizes=(4, 8))).rows
    symbols = [make_symbol("TABLE", values, "ZERO") for values in tables]
    assert symbols[0] == symbols[1]
    assert rows[0].values["estimate"] != rows[1].values["estimate"]
    for row, symbol in zip(rows, symbols):
        est = s1_estimate(class_spec(symbol, 1, "B"), (4, 8), 1e-3)
        assert row.values["estimate"] == est.values[-1]


# ---------------------------------------------------------------- cli


def invoke(*args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_cli_classes_verdict_line():
    res = invoke("classes", "--symbol", "ALT_POWER", "--params", "alpha=2.5",
                 "--n", "2", "--class", "B")
    assert res.exit_code == 0
    assert "CONVERGENT" in res.output


def test_cli_norms_match():
    res = invoke("norms", "--n", "2", "--params", "r=0.9")
    assert res.exit_code == 0
    assert "MATCH" in res.output


def test_cli_graphs_serre():
    res = invoke("graphs", "--check", "serre", "--r", "2")
    assert res.exit_code == 0
    assert "doubling=PASS" in res.output and "partition=PASS" in res.output


def test_cli_graphs_median_uses_the_radius():
    res = invoke("graphs", "--check", "median", "--r", "3")
    assert res.exit_code == 0
    assert "median=UNIQUE" in res.output and "vertices=492" in res.output


def test_cli_sdp_emits_json():
    res = invoke("sdp", "--graph", "T3ball(1)", "--symbol", "GEOM",
                 "--params", "r=0.5", "--tol", "1e-3")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["upper"] - payload["lower"] <= 1e-3 + 1e-12
    assert payload["witness"]["reproduction_error"] <= 1e-8


def test_cli_witness_tail_and_reproduction():
    res = invoke("witness", "--symbol", "GEOM", "--params", "r=0.5",
                 "--n", "1", "--radius", "2", "--k", "12")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["reproduction_error"] <= payload["tail_bound"] + 1e-9


def test_cli_run_writes_reports(tmp_path):
    res = invoke("run", "geom-norms", "--out", str(tmp_path))
    assert res.exit_code == 0
    assert (tmp_path / "geom-norms.csv").exists()
    assert (tmp_path / "geom-norms.json").exists()


def test_cli_run_manifest_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "experiment": "file-demo",
        "operation": "hankel.rank_one_geom",
        "grid": [{"level": 1, "r": 0.5, "K": 40}],
        "out": "file-demo",
    }))
    res = invoke("run", str(path), "--out", str(tmp_path))
    assert res.exit_code == 0
    assert (tmp_path / "file-demo.csv").exists()


def test_cli_usage_errors_exit_two():
    runner = CliRunner()
    assert runner.invoke(main, ["classes"]).exit_code == 2
    assert runner.invoke(main, ["run", "no-such-manifest"]).exit_code == 2
    assert runner.invoke(
        main, ["sdp", "--graph", "foo(1)", "--symbol", "GEOM",
               "--params", "r=0.5"]).exit_code == 2
    for args, message in (
            (["classes", "--symbol", "FOO", "--n", "1", "--class", "A"],
             "unknown symbol id 'FOO'"),
            (["classes", "--symbol", "GEOM", "--params", "0.5", "--n", "1",
              "--class", "A", "--sizes", "16,8"], "strictly increasing"),
            (["norms", "--params", "r=abc"], "bad 'r'"),
            (["norms", "--params", "r=0.5,s=1"], "takes one ratio r")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and message in res.output, args


def test_cli_witness_refusal_exits_one_with_message():
    res = CliRunner().invoke(main, ["witness", "--symbol", "PARITY"],
                             catch_exceptions=False)
    assert res.exit_code == 1
    assert "split_radial" in res.output


def test_cli_witness_refuses_parity_on_products():
    res = CliRunner().invoke(main, ["witness", "--symbol", "PARITY", "--n", "2"],
                             catch_exceptions=False)
    assert res.exit_code == 1
    assert "split_radial" in res.output


def test_cli_sdp_json_is_the_library_result():
    res = invoke("sdp", "--graph", "T3ball(1)", "--symbol", "GEOM",
                 "--params", "r=0.5", "--tol", "1e-3")
    kernel = radial_kernel(parse_graph("T3ball(1)"), make_symbol("GEOM", 0.5))
    assert res.output == cb_result_to_json(cb_norm_sdp(kernel, tol=1e-3)) + "\n"


def test_cli_failing_row_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "experiment": "bad",
        "operation": "hankel.rank_one_geom",
        "grid": [{"level": 1, "r": 0.9, "K": 3}],
        "tol": 1e-12,
        "out": "bad",
    }))
    res = CliRunner().invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 1


def test_cli_sdp_json_records_solver_detail(tmp_path):
    res = invoke("sdp", "--graph", "T3ball(1)", "--symbol", "GEOM",
                 "--params", "r=0.5", "--tol", "1e-3")
    detail = json.loads(res.output)["witness"]["detail"]
    # the tree-ball layout: sphere block (2 x 2) and one depth-0 block (1 x 1,
    # two copies), for M + B and M - B
    assert detail["blocks"] == [2, 1, 2, 1]
    assert detail["degeneracies"] == [1, 2, 1, 2]
    assert detail["eigh_calls"] > 0 and detail["lifted_eigh_calls"] >= 0
    assert detail["dual_pad"] >= 0.0 and detail["residual_allowance"] >= 0.0
    # the solver detail stays out of the CSV
    result = run_manifest(small_manifest(
        "mlab.cb_norm_sdp", [{"symbol": "GEOM", "params": [0.5],
                              "graph": "T3ball(1)", "tol": 1e-3}]), out_dir=tmp_path)
    csv_text = result.csv_path.read_text(encoding="utf-8")
    assert "residual_allowance" not in csv_text and "eigh_calls" not in csv_text


def test_python_dash_m_schurmult_runs_the_cli(tmp_path):
    src = str(Path(schurmult.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "schurmult", "run", "geom-norms", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "geom-norms.csv").read_text(encoding="utf-8").strip()
