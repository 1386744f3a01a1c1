"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "exact": lambda seed, wd: workloads.exact_ops(seed)[::15],
    "matrix": lambda seed, wd: workloads.matrix_ops(seed, ((16, 5), (32, 5))),
    "roundtrip": lambda seed, wd: workloads.roundtrip_ops(seed, ((8, 6), (16, 6))),
    "survey": lambda seed, wd: workloads.survey_ops(seed, wd)[::3],
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("seed", (1, 2))
def test_traced_and_untraced_passes_agree(workload, seed, tmp_path):
    ops = TINY[workload](seed, str(tmp_path))
    plain, traced, layers = run.measure(ops, 0.0, tracing.Tracer())
    assert [p[2] for p in plain + traced] == [0, 0]
    assert plain[0][3] == traced[0][3]
    assert set(layers[0]) == set(tracing.METRIC_UNITS)
    assert not hasattr(workloads.reps.verify_relations, "__wrapped__")


def test_tracer_sees_calls_through_every_import_site():
    ops = workloads.exact_ops(3)[:5]
    tr = tracing.Tracer()
    _, _, layers = run.measure(ops, 0.0, tr)
    # phase is only called through algebra's own binding of it
    assert layers[0]["epsring.phase_calls"] > 0
    assert layers[0]["epsring.mul_calls"] > layers[0]["algebra.nf_mul_calls"] > 0
    names = set(tr.names)
    assert {"parser.fold", "algebra.nf_mul", "epsring.phase"} <= names


def test_seeds_make_the_same_op_mix(tmp_path):
    for workload in run.WORKLOADS:
        mixes = [workloads.op_mix(workloads.make_ops(workload, seed, str(tmp_path)))
                 for seed in (1, 2)]
        assert mixes[0] == mixes[1]
        assert sum(mixes[0].values()) >= 100


def test_broken_checks_are_counted(tmp_path):
    ops = TINY["exact"](1, str(tmp_path)) + [
        workloads.reduce_op("assoc", "5/8", "[x,y] - i*eps*z", expected="1"),
        workloads.reduce_op("assoc", "5/8", "x +"),
        workloads.cli_op(["topology", "--R", "0.5"], expected_exit=1),
    ]
    _, _, failed, _ = run.run_pass(ops)
    assert failed == 3


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_result_lines_carry_every_metric_with_its_unit():
    digests = []
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run_bench(ROOT, "--workload", "survey", "--seed", "5",
                         "--seconds", "0", "--trace", trace)
        assert out.returncode == 0, out.stderr
        *_, info, last = out.stdout.splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        info = json.loads(info)
        assert info["provenance"]["seed"] == 5
        assert info["provenance"]["blas_threads_env"] == "1"
        digests.append(info["digest"])
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench(str(tmp_path), "--workload", "exact", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
