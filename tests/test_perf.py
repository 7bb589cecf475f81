"""Tests for the ``repro.perf`` benchmark harness."""

import json

import pytest

from repro.perf.cli import main
from repro.perf.harness import run_benchmark, run_cell
from repro.perf.opcount import LAYERS, count_ops, layer_of


def test_run_cell_counts_all_records():
    cell = run_cell("nocache", "gcc", records_per_core=50, num_cores=2,
                    scale=0.05, repeats=1, preset="tiny")
    assert cell.records == 100
    assert cell.best_seconds > 0
    assert cell.records_per_sec == pytest.approx(cell.records / cell.best_seconds)
    assert cell.instructions > 0


def test_run_cell_rejects_bad_repeats():
    with pytest.raises(ValueError, match="repeats"):
        run_cell("nocache", "gcc", records_per_core=10, repeats=0, preset="tiny")
    with pytest.raises(ValueError, match="preset"):
        run_cell("nocache", "gcc", records_per_core=10, preset="bogus")


def test_run_benchmark_payload_schema():
    payload = run_benchmark(
        schemes=["nocache", "banshee"],
        workloads=["gcc"],
        records_per_core=50,
        num_cores=2,
        scale=0.05,
        repeats=1,
        preset="tiny",
    )
    assert payload["name"] == "hotpath"
    assert [cell["scheme"] for cell in payload["cells"]] == ["nocache", "banshee"]
    aggregate = payload["aggregate"]
    assert aggregate["total_records"] == 200
    assert aggregate["geomean_records_per_sec"] > 0
    assert aggregate["min_records_per_sec"] <= aggregate["geomean_records_per_sec"]
    # The payload must be JSON-serialisable as-is.
    json.dumps(payload)


def test_cli_smoke_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main([
        "--smoke", "--preset", "tiny", "--scale", "0.05",
        "--schemes", "nocache", "--workloads", "gcc",
        "--output", str(out), "--quiet",
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["repeats"] == 1
    assert payload["params"]["records_per_core"] <= 500
    assert len(payload["cells"]) == 1
    assert "geomean" in capsys.readouterr().out


def test_run_cell_records_engine_mode():
    scalar = run_cell("nocache", "gcc", records_per_core=50, num_cores=1,
                      scale=0.05, repeats=1, preset="tiny", engine_mode="scalar")
    batch = run_cell("nocache", "gcc", records_per_core=50, num_cores=1,
                     scale=0.05, repeats=1, preset="tiny", engine_mode="batch")
    assert scalar.engine_mode == "scalar"
    assert batch.engine_mode == "batch"
    assert scalar.to_dict()["engine_mode"] == "scalar"
    # Identical simulations: the two modes must report identical work.
    assert (scalar.records, scalar.instructions, scalar.cycles) == \
        (batch.records, batch.instructions, batch.cycles)


def test_run_cell_rejects_unknown_engine_mode():
    with pytest.raises(ValueError, match="engine mode"):
        run_cell("nocache", "gcc", records_per_core=10, repeats=1,
                 preset="tiny", engine_mode="turbo")


def test_run_benchmark_payload_records_engine_mode():
    payload = run_benchmark(
        schemes=["nocache"], workloads=["gcc"], records_per_core=50,
        num_cores=1, scale=0.05, repeats=1, preset="tiny", engine_mode="scalar",
    )
    assert payload["params"]["engine_mode"] == "scalar"
    assert payload["cells"][0]["engine_mode"] == "scalar"


# ------------------------------------------------------------------ comparison


def _payload(cells, **params):
    return {
        "name": "hotpath",
        "params": params,
        "cells": [
            {"scheme": scheme, "workload": workload,
             "records_per_sec": rps, "engine_mode": mode}
            for scheme, workload, rps, mode in cells
        ],
    }


def test_compare_payloads_ratios_and_noise_band():
    from repro.perf.compare import compare_payloads

    old = _payload([
        ("nocache", "gcc", 100000.0, "scalar"),
        ("banshee", "gcc", 50000.0, "scalar"),
        ("banshee", "mcf", 40000.0, "scalar"),
    ], engine_mode="scalar")
    new = _payload([
        ("nocache", "gcc", 200000.0, "batch"),   # 2.00x -> faster
        ("banshee", "gcc", 51000.0, "batch"),    # 1.02x -> inside the band
        ("banshee", "lsh", 90000.0, "batch"),    # unmatched
    ], engine_mode="batch")
    report = compare_payloads(old, new, noise=0.05)
    rows = {(row["scheme"], row["workload"]): row for row in report["rows"]}
    assert rows[("nocache", "gcc")]["flag"] == "faster"
    assert rows[("banshee", "gcc")]["flag"] == ""
    assert report["only_in_old"] == [("banshee", "mcf")]
    assert report["only_in_new"] == [("banshee", "lsh")]
    assert report["flagged"] == 1
    assert report["geomean_ratio"] == pytest.approx((2.0 * 1.02) ** 0.5)
    assert report["old_params"]["engine_mode"] == "scalar"


def test_compare_payloads_flags_regressions():
    from repro.perf.compare import compare_payloads

    old = _payload([("nocache", "gcc", 100000.0, "scalar")])
    new = _payload([("nocache", "gcc", 80000.0, "scalar")])
    report = compare_payloads(old, new, noise=0.05)
    assert report["rows"][0]["flag"] == "slower"
    assert report["geomean_ratio"] == pytest.approx(0.8)


def test_compare_payloads_requires_overlap():
    from repro.perf.compare import compare_payloads

    with pytest.raises(ValueError, match="nothing to compare"):
        compare_payloads(_payload([("a", "x", 1.0, "scalar")]),
                         _payload([("b", "y", 1.0, "scalar")]))
    with pytest.raises(ValueError, match="noise"):
        compare_payloads(_payload([("a", "x", 1.0, "scalar")]),
                         _payload([("a", "x", 1.0, "scalar")]), noise=-0.1)


def test_cli_compare_reports_ratio(tmp_path, capsys):
    import json as _json

    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(_json.dumps(_payload(
        [("nocache", "gcc", 100000.0, "scalar")], engine_mode="scalar")))
    new_path.write_text(_json.dumps(_payload(
        [("nocache", "gcc", 250000.0, "batch")], engine_mode="batch")))
    rc = main(["--compare", str(old_path), str(new_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2.50x" in out
    assert "faster" in out
    assert "[scalar -> batch]" in out
    assert "geomean ratio 2.50x" in out


def test_cli_compare_rejects_non_payloads(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    rc = main(["--compare", str(bogus), str(bogus)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_engine_flag_is_recorded(tmp_path):
    import json as _json

    out = tmp_path / "bench.json"
    rc = main([
        "--smoke", "--preset", "tiny", "--scale", "0.05", "--cores", "1",
        "--schemes", "nocache", "--workloads", "gcc",
        "--engine", "scalar", "--output", str(out), "--quiet",
    ])
    assert rc == 0
    payload = _json.loads(out.read_text())
    assert payload["params"]["engine_mode"] == "scalar"
    assert payload["cells"][0]["engine_mode"] == "scalar"


def test_count_ops_is_deterministic_and_layers_sum_to_the_total():
    first = count_ops("alloy", "lbm", 150, num_cores=2, scale=0.05)
    second = count_ops("alloy", "lbm", 150, num_cores=2, scale=0.05)
    assert first.layers == second.layers
    assert first.records == 300
    assert set(first.layers) == set(LAYERS)
    assert sum(ops for ops, _ in first.layers.values()) == first.bytecodes
    assert sum(calls for _, calls in first.layers.values()) == first.calls
    # The miss path runs through every simulator layer.
    for layer in ("sim", "cache", "dramcache", "dram"):
        ops, calls = first.layers[layer]
        assert ops > 0 and calls > 0, layer


def test_count_ops_layer_map_follows_the_design_layers():
    assert layer_of("repro.sim.batch") == "sim"
    assert layer_of("repro.sim.stats") == "other"
    assert layer_of("repro.dram.device") == "dram"
    assert layer_of("repro.dramcache.alloy") == "dramcache"
    assert layer_of("repro.core.banshee") == "dramcache"
    assert layer_of("repro.memctrl.controller") == "dramcache"
    assert layer_of("repro.trace.format") == "workloads"
    assert layer_of("") == "other"


def test_cli_count_ops_prints_per_layer_table(capsys):
    assert main(["--count-ops", "--schemes", "nocache", "--workloads", "gcc",
                 "--records", "100", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "# count-ops nocache/gcc: 100 records" in out
    for layer in LAYERS + ("total",):
        assert f"\n{layer} " in out
