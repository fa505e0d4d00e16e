"""Tests of the benchmark itself: generators, checks, tracer and runner contract.

Run from the repository root with `python -m pytest -q bench/tests`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from z2nsuper import GSeries, Morphism, cli  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def small_batch(wl, seed, count):
    return wl.make_batch(seed, count)[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, workdir):
    wl = workloads.WORKLOADS[name](workdir)
    count = min(3, len(wl.classes))
    first = [j.text for j in small_batch(wl, 7, count)]
    again = [j.text for j in small_batch(wl, 7, count)]
    other = [j.text for j in small_batch(wl, 8, count)]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_match_untraced_and_calls_repeat(name, workdir):
    wl = workloads.WORKLOADS[name](workdir)
    jobs = small_batch(wl, 3, 1 if name != "findim_search" else 4)
    plain = [run.run_job(wl, job) for job in jobs]
    calls = []
    for _ in range(2):
        tr = tracer.Tracer()
        traced = [run.run_job(wl, job, tr) for job in jobs]
        assert [o.digest for o in traced] == [o.digest for o in plain]
        assert not any(o.problems for o in plain + traced)
        # the self-time books close exactly: self times telescope to the
        # inclusive time of the top-level calls
        assert tr.self_ns_total() == tr.top_ns
        assert tr.top_ns <= sum(o.wall_ns for o in traced)
        metrics = tr.layer_metrics()
        calls.append({k: v for k, v in metrics.items() if k.endswith((".calls", ".pairs"))})
    assert calls[0] == calls[1]
    assert any(calls[0].values())


def test_tracer_restores_every_binding():
    import z2nsuper
    from z2nsuper import coeffexpr, morphisms, splitting

    before = (morphisms.compose, splitting.compose, z2nsuper.compose,
              coeffexpr.CoeffExpr.__add__, coeffexpr.CoeffExpr.__radd__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert splitting.compose is morphisms.compose is z2nsuper.compose
        assert splitting.compose is not before[0]
        assert coeffexpr.CoeffExpr.__radd__ is coeffexpr.CoeffExpr.__add__
    finally:
        tr.uninstall()
    after = (morphisms.compose, splitting.compose, z2nsuper.compose,
             coeffexpr.CoeffExpr.__add__, coeffexpr.CoeffExpr.__radd__)
    assert all(a is b for a, b in zip(before, after))


def test_negative_control_is_rejected(workdir):
    wl = workloads.SplitVerify(workdir)
    job = small_batch(wl, 5, 1)[0]
    assert wl.run(job) == (0, 0)
    with open(wl.path("result.txt")) as fh:
        result = fh.read()
    bad = workloads.corrupt_iso(result)
    assert bad != result
    path = wl.path("bad.txt")
    with open(path, "w") as fh:
        fh.write(bad)
    assert cli.main(["verify", "--atlas", job.data, "--result", path,
                     "-o", wl.path("bad-report.txt")]) == 1
    assert wl.check(job, (0, 0)) == []


def test_template_oracle_detects_a_wrong_coefficient(workdir):
    wl = workloads.TemplateJacobian(workdir)
    job = small_batch(wl, 2, 1)[0]
    out = wl.run(job)
    assert wl.check(job, out) == []
    a, b, composed, jac, blocks = out
    name = next(v for v, s in composed.images.items() if s.terms)
    img = composed.images[name]
    mu = sorted(img.terms)[-1]
    broken = dict(composed.images)
    broken[name] = img + GSeries.monomial(img.sig, img.order, mu, 1)
    bad = Morphism(composed.source, composed.target, broken, composed.order)
    assert wl.check(job, (a, b, bad, jac, blocks))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_the_result_line(trace):
    p = run_bench(ROOT, "--workload", "findim_search", "--seed", "4",
                  "--seconds", "0.5", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = set(run.END_TO_END_UNITS) if trace == "0" else set(tracer.metric_units())
    assert set(result["metrics"]) == names
    if trace == "1":
        notes = dict(ln.split(" ", 1) for ln in p.stdout.splitlines()
                     if ln.split(" ", 1)[0] in ("traced_wall_ns", "self_ns_total",
                                                "unattributed_ns"))
        assert (int(notes["self_ns_total"]) + int(notes["unattributed_ns"])
                == int(notes["traced_wall_ns"]))


@pytest.mark.parametrize("name", ["split_verify", "findim_search"])
def test_digests_repeat_across_processes(name):
    digests = []
    for _ in range(2):
        p = run_bench(ROOT, "--workload", name, "--seed", "6", "--seconds", "0.5", "--trace", "0")
        assert p.returncode == 0, p.stderr
        digests.append([ln for ln in p.stdout.splitlines()
                        if ln.startswith(("inputs_sha256", "outputs_sha256"))])
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = run_bench(str(tmp_path), "--workload", "findim_search", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
