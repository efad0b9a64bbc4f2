"""Self-test of the benchmark: ``python -m pytest bench/tests``.

Not collected by tier-1 (its ``testpaths`` is ``tests``).  Every workload
runs at 1/20 size through the same code path as the real run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import spec  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCALE = "0.05"


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench-out")


@pytest.fixture(scope="module")
def runs(out_dir):
    """(completed process, result line, result document) per (workload, trace)."""
    done = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _bench("--workload", name, "--seed", "0", "--seconds", "0", "--trace",
                          str(trace), "--scale", SCALE, "--out", str(out_dir))
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            doc = json.loads((out_dir / f"{'trace-' if trace else ''}{name}.json").read_text())
            done[name, trace] = proc, line, doc
    return done


def test_manifest_obeys_the_contract_and_matches_the_tables():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert MANIFEST["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END if m.name in spec.CONTRACT
    ]
    assert MANIFEST["per_layer"] == [
        {"name": name, "unit": unit,
         "better": "higher" if name in spec.HIGHER_IS_BETTER else "lower"}
        for name, unit, *_ in spec.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in MANIFEST[key])
    # every workload has every contract metric, and every table row has a home
    assert all(set(spec.BY_NAME[n].applies) == set(WORKLOADS) for n in spec.CONTRACT)
    assert all(set(m.applies) <= set(WORKLOADS) for m in spec.END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(runs, name):
    _proc, line, doc = runs[name, 0]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(v["value"] != 0 for v in line["metrics"].values())
    expected = {m.name: (m.unit, m.clock) for m in spec.END_TO_END if name in m.applies}
    assert {k: (v["unit"], v["clock"]) for k, v in doc["metrics"].items()} == expected
    assert doc["repeats"] >= 2 and doc["scale"] == float(SCALE)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_sums_to_its_wall(runs, out_dir, name):
    _proc, line, doc = runs[name, 1]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["per_layer"]
    }
    assert doc["absent"] == [] and doc["hook_errors"] == {}
    # layer self times + the unattributed rest account for the traced wall
    assert sum(doc["self_s_run"].values()) == pytest.approx(doc["traced_wall_s"], rel=0.02)
    spans = [json.loads(row) for row in (out_dir / f"trace-{name}.jsonl").read_text().splitlines()]
    assert 0 < len(spans) <= 2000
    assert all(set(s) == {"id", "parent", "name", "start", "end", "workload"} for s in spans)


def test_layer_contrasts_the_workloads_were_chosen_for(runs):
    def layer(name, metric):
        return runs[name, 1][1]["metrics"][metric]["value"]

    # model sharing touches the store once per node (the bootstrap load), never per epoch
    assert layer("cluster_ms", "core.store.calls") == 8
    assert layer("cluster_ms", "core.store.rows_offered") == 0
    assert layer("cluster_ds", "core.store.calls") > 8
    assert layer("cluster_ds", "core.store.rows_offered") > 0
    assert layer("serve_single_cold", "serve.fleet.router.calls") == 0
    assert layer("serve_fleet_peak", "serve.fleet.router.calls") > 0
    assert layer("fleet_sim_ds", "tee.enclave.ecalls") == 0
    assert layer("cluster_cold_numpy", "tee.crypto.x25519.calls") > 0


def test_untraced_run_imports_nothing_from_the_tracer(out_dir):
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['bench', '--workload', 'cluster_cold_numpy', '--seconds', '0', "
        f"'--scale', '{SCALE}', '--out', {str(out_dir / 'untraced')!r}]\n"
        "try:\n    runpy.run_module('bench', run_name='__main__')\n"
        "except SystemExit as done:\n    assert done.code == 0\n"
        "assert 'bench.layers' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_compare_of_a_file_with_itself_is_all_within(runs, out_dir, capsys):
    from bench.compare import compare_files

    results = out_dir / "results.json"
    results.write_text(json.dumps({"workloads": {n: runs[n, 0][2] for n in WORKLOADS}}))
    assert compare_files(str(results), str(results)) == 0
    rows = [row for row in capsys.readouterr().out.splitlines()[1:-1]]
    assert len(rows) == sum(len(m.applies) for m in spec.END_TO_END)
    assert all(" within " in row for row in rows)


def test_compare_flags_a_regression_beyond_the_bound(runs, out_dir, capsys):
    from bench.compare import compare_files

    base = {n: runs[n, 0][2] for n in WORKLOADS}
    slow = json.loads(json.dumps(base))
    wall = slow["cluster_ds"]["metrics"]["wall_s"]
    wall["value"] *= 1.5
    wall["repeats"] = [v * 1.5 for v in wall["repeats"]]
    a, b = out_dir / "a.json", out_dir / "b.json"
    a.write_text(json.dumps({"workloads": base}))
    b.write_text(json.dumps({"workloads": slow}))
    assert compare_files(str(a), str(b)) == 1
    assert " worse " in capsys.readouterr().out
    assert compare_files(str(b), str(a)) == 0  # the other way round it is a gain
    assert " better " in capsys.readouterr().out


def test_a_failed_check_exits_non_zero(monkeypatch, out_dir, capsys):
    from bench import worker, workloads

    monkeypatch.setattr(workloads, "RMSE_CEILING", 0.0)
    code = worker.run_workload("cluster_cold_numpy", 0, 0.0, False, float(SCALE),
                               out_dir / "failed")
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and line["correct"] is False


def test_a_target_that_no_longer_resolves_is_absent_not_an_error(monkeypatch):
    from bench import layers

    gone = [("tee.crypto.workers.seal_parallel", "tee.crypto.aead.self_s", None),
            ("core.cluster.RexCluster.run_legacy", "core.cluster.self_s", None)]
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS[:3] + gone)
    tracer = layers.Tracer("selftest")
    tracer.install()
    try:
        assert tracer.absent == [pattern for pattern, *_ in gone]
        assert "data.movielens.generate_movielens" in tracer.wrapped
    finally:
        tracer.uninstall()


def test_ruff_is_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff is not installed here")
    proc = subprocess.run(["ruff", "check", "bench"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
