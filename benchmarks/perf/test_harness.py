"""Self-test of the benchmark harness (not part of tier-1).

Run with ``python -m pytest benchmarks/perf -q``.  Everything here uses the
``--smoke`` profile (levels cut, 2-3 steps), so it checks the harness, not
the program's speed: names and finiteness of every metric, span structure,
wrapper removal, and that counts repeat exactly between two runs.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _smoke_set(out_dir) -> dict:
    """One full smoke run (six untraced + six traced children)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seconds", "0.2", "--out",
         str(out_dir)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(os.path.join(out_dir, "results.json")) as fh:
        results = json.load(fh)
    results["out_dir"] = str(out_dir)
    for run in results["runs"]:
        name = (f"{run['workload']}.seed{run['seed']}"
                f".trace{run['trace']}.json")
        with open(os.path.join(out_dir, name)) as fh:
            run["detail"] = json.load(fh)
    return results


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    return [_smoke_set(tmp_path_factory.mktemp(f"smoke{k}")) for k in (0, 1)]


def test_every_workload_ran_and_is_correct(smoke_sets):
    for results in smoke_sets:
        seen = {(r["workload"], r["trace"]) for r in results["runs"]}
        assert seen == {(w, t) for w in WORKLOADS for t in (0, 1)}
        for r in results["runs"]:
            assert r["correct"], r["detail"]["check"]["problems"]
            assert r["failed"] == 0 and r["attempted"] >= 1


def test_every_named_metric_is_present_and_finite(smoke_sets):
    for r in smoke_sets[0]["runs"]:
        declared = BENCH["per_layer"] if r["trace"] else BENCH["end_to_end"]
        assert list(r["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = r["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), m["name"]
            if not r["trace"]:
                assert got["value"] > 0, (r["workload"], m["name"])


def test_provenance_in_every_output(smoke_sets):
    keys = {"nproc", "cpu_model", "python", "numpy", "scipy", "numba",
            "threads", "commit", "seed"}
    assert keys <= set(smoke_sets[0]["provenance"])
    for r in smoke_sets[0]["runs"]:
        assert keys <= set(r["detail"]["provenance"])
        assert set(r["detail"]["provenance"]["threads"].values()) == {"1"}


def _counts(results: dict) -> dict:
    """Everything in a result set that must repeat exactly."""
    out = {}
    for r in results["runs"]:
        key = (r["workload"], r["trace"])
        out[key] = {
            "attempted_per_unit": r["attempted"] // len(r["detail"]["samples"]),
            "layer_counts": {
                name: m["value"] for name, m in r["metrics"].items()
                if m["unit"] == "count"
            },
            "units": [
                (u.get("n_elems"), u.get("counts"))
                for u in r["detail"]["samples"][:1]
            ],
        }
    return out


def test_two_smoke_runs_agree_exactly_on_every_count(smoke_sets):
    assert _counts(smoke_sets[0]) == _counts(smoke_sets[1])


def test_layers_separate_as_designed(smoke_sets):
    layers = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
              for r in smoke_sets[0]["runs"] if r["trace"]}
    assert layers["cavity2d"]["chns.ch.time_s"] == 0
    assert layers["cavity2d"]["la.newton.iterations"] == 0
    for blk in ("ns", "pp", "vu"):
        assert layers["spinodal2d"][f"chns.{blk}.time_s"] == 0
        assert layers["cavity2d"][f"chns.{blk}.time_s"] > 0
    for w in WORKLOADS:
        cycles = layers[w]["amr.remesh.cycles"]
        assert (cycles > 0) == (w == "jet2d_amr"), w
    for w in ("bubble2d", "spinodal2d", "cavity2d", "bubble3d"):
        assert layers[w]["fem.plan.symbolic.builds"] == 1, w
    assert layers["batch2d"]["scenarios.store.bytes"] > 0
    assert layers["batch2d"]["runtime.spawn_s"] > 0


def test_trace_files_written(smoke_sets):
    r = next(r for r in smoke_sets[0]["runs"]
             if r["workload"] == "jet2d_amr" and r["trace"])
    for kind in ("chrome", "obs"):
        path = os.path.join(smoke_sets[0]["out_dir"],
                            f"jet2d_amr.seed0.trace1.{kind}.json")
        with open(path) as fh:
            assert json.load(fh)
    assert r["detail"]["layer_table"]["amr.remesh"]["calls"] > 0
    assert {row["block"] for row in r["detail"]["obs_crosscheck"]} == {
        "ch", "ns", "pp", "vu"}


def test_compare_prints_a_row_per_workload_and_metric(smoke_sets, tmp_path):
    paths = []
    for k, results in enumerate(smoke_sets):
        slim = {"provenance": results["provenance"], "runs": [
            {key: val for key, val in r.items() if key != "detail"}
            for r in results["runs"]]}
        paths.append(tmp_path / f"set{k}.json")
        paths[-1].write_text(json.dumps(slim))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    rows = [ln for ln in proc.stdout.splitlines()[1:] if ln.strip()]
    assert len(rows) == len(WORKLOADS) * (len(BENCH["end_to_end"]) + 1)
    assert all(ln.split()[-1] in ("improved", "regressed", "unchanged",
                                  "unresolved") for ln in rows)


# ------------------------------------------------------- in-process checks


def _benchmark_modules():
    """The benchmark's own modules, imported the way ``run.py`` sees them:
    from its directory, with the program's ``src`` on the path."""
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    if getattr(sys.modules.get("trace"), "__file__", None) != os.path.join(
            HERE, "trace.py"):
        sys.modules.pop("trace", None)  # not the standard library's
    import measure
    import trace
    import workloads

    assert trace.__file__ == os.path.join(HERE, "trace.py")
    return workloads, measure, trace


@pytest.mark.parametrize("workload", ["bubble2d", "jet2d_amr", "cavity2d"])
def test_spans_nest_and_wrappers_are_removed(workload):
    W, measure, T = _benchmark_modules()
    spec = W.generate(workload, 0, smoke=True)
    probe = T.Instrumentation(T.Tracer())
    probe.install()
    patched = list(probe.patched)
    probe.remove()
    assert len(patched) > 40
    assert T.restored(patched)

    unit = measure.run_traced_unit(spec, measure.HostClock())
    assert unit["span_problems"] == []
    assert unit["wrappers_restored"]
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)

    tracer = unit["tracer"]
    selfs = T.self_times(tracer)
    assert min(selfs) >= -1e-9
    roots = sum(s[T.END] - s[T.START] for s in tracer.spans if s[T.PARENT] < 0)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)
    # compensated layer times add up to the compensated end-to-end ones
    table = unit["layer_table"]
    assert table["bench.setup"]["time_s"] == pytest.approx(unit["setup_s"],
                                                           rel=2e-2)
    assert table["bench.step"]["time_s"] == pytest.approx(sum(unit["walls"]),
                                                          rel=2e-2)
    assert {s[T.NAME] for s in tracer.spans if s[T.PARENT] < 0} == {
        "bench.setup", "bench.step"}
    assert unit["layers"]["trace.unattributed_frac"] < 0.2


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "bubble2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
