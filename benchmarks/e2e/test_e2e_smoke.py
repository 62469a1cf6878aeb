"""Smoke test of the end-to-end benchmark: every workload at 5% length.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``; takes about two minutes.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from spec import (
    END_TO_END,
    PER_LAYER,
    REPORTED,
    RUN_SECONDS,
    UNITS,
    WORKLOAD_BUDGET_S,
    WORKLOADS,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
#: Measured seconds of a smoke run: 5% of a full one.
SMOKE_SECONDS = 0.05 * RUN_SECONDS


def _shm():
    from repro.parallel.transport import SEGMENT_PREFIX
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:
        return set()


def _run(out, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "0", "--seconds", str(SMOKE_SECONDS),
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        full = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), full, proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    shm_before = _shm()
    untraced = _run(tmp / "plain.json")
    traced = _run(tmp / "traced.json", "--trace")
    return {"untraced": untraced, "traced": traced, "shm": shm_before}


@pytest.mark.parametrize("mode,metrics", [("untraced", END_TO_END),
                                          ("traced", PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(runs, mode, metrics):
    last, _, stdout = runs[mode]
    for wl in WORKLOADS:
        for name, unit, *_ in metrics:
            entry = last["metrics"][f"{wl}/{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], float)
            assert f"\n{wl} {name} " in "\n" + stdout
    assert len(last["metrics"]) == len(WORKLOADS) * len(metrics)
    if mode == "untraced":
        for wl in WORKLOADS:
            for name, unit, _ in REPORTED:
                assert f"\n{wl} {name} " in "\n" + stdout


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_no_request_fails(runs, mode):
    last, full, _ = runs[mode]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for wl, res in full["workloads"].items():
        assert res["failures"] == {}, wl
        assert res["details"]["error_rate"] == 0.0, wl


def test_trace_files_load_with_bounded_self_times(runs):
    from repro.obs import read_jsonl
    _, full, _ = runs["traced"]
    for wl, res in full["workloads"].items():
        records = read_jsonl(res["trace_file"])
        names = {r["name"] for r in records}
        assert {"request", "engine.execute", "core.solve"} <= names, wl
        ids = {r["id"] for r in records}
        assert len(ids) == len(records)
        for r in records:
            assert r["parent"] is None or r["parent"] in ids
            duration = r["end"] - r["start"]
            assert 0.0 <= r["attrs"]["self_s"] <= duration + 1e-12, r
    batches = [r for r in read_jsonl(
        full["workloads"]["serve_hot"]["trace_file"])
        if r["name"] == "serve.batch"]
    assert batches and all(r["attrs"]["request_ids"] for r in batches)


def test_set_up_fits_the_time_budget(runs):
    """A run's time beyond its measured seconds (start, input generation,
    set-ups, checks) must leave a full run within the budget."""
    for mode in ("untraced", "traced"):
        _, full, _ = runs[mode]
        for wl, res in full["workloads"].items():
            extra = res["wall_s"] - SMOKE_SECONDS
            assert extra < WORKLOAD_BUDGET_S - RUN_SECONDS, (mode, wl, extra)


def test_scratch_and_shared_memory_are_clean(runs):
    assert not glob.glob(os.path.join(ROOT, ".e2e_work-*"))
    assert _shm() <= runs["shm"]


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, w["why"]) for name, w in WORKLOADS.items()]
    assert [tuple(m.values()) for m in bench["end_to_end"]] == END_TO_END
    assert [tuple(m.values()) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER]
    named = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(named)) == len(named)
    assert set(UNITS) == set(named) | {name for name, *_ in REPORTED}


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _result_file(path, scale):
    metrics = {name: 10.0 * scale for name, *_ in END_TO_END}
    reported = {name: 10.0 * scale for name, *_ in REPORTED}
    path.write_text(json.dumps({"trace": 0, "workloads": {
        "serve_hot": {"metrics": metrics, "reported": reported}}}))
    return str(path)


def _verdicts(out):
    return [line.split()[-1] for line in out.splitlines()
            if line.startswith("  serve_hot")]


def test_compare_modes(tmp_path, capsys):
    import compare
    parent = [_result_file(tmp_path / f"p{i}.json", 1.0 + 0.001 * i)
              for i in range(10)]
    halved = [_result_file(tmp_path / f"h{i}.json", 0.5) for i in range(10)]
    doubled = [_result_file(tmp_path / f"d{i}.json", 2.0) for i in range(10)]
    assert compare.main(["agree", "--a", *parent, "--b", *parent]) == 0
    assert compare.main(["agree", "--a", *parent, "--b", *halved]) == 1
    capsys.readouterr()
    # Order: setup_s, peak_rss_mb (bounded), then latency_p50_ms,
    # latency_tail_ms, throughput_rps, cpu_ms_per_req (reported).
    # Halving every number is a gain on the lower-is-better metrics and
    # worse throughput; doubling is the reverse.
    assert compare.main(["pairs", "--parent", *parent,
                         "--change", *halved]) == 1
    assert _verdicts(capsys.readouterr().out) == [
        "gain", "gain", "gain", "gain", "WORSE", "gain"]
    assert compare.main(["pairs", "--parent", *parent,
                         "--change", *doubled]) == 1
    assert _verdicts(capsys.readouterr().out) == [
        "REGRESSION", "REGRESSION", "WORSE", "WORSE", "gain", "WORSE"]
    with pytest.raises(SystemExit):
        compare.main(["pairs", "--parent", *parent[:5],
                      "--change", *halved[:5]])
