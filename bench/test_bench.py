"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
COUNT_UNITS = {"count/op", "count/setup", "B/op"}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def traced_counts(workload: str, seed: int) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or name.endswith("hit_ratio")}


@pytest.mark.parametrize("workload", ["session", "bulk", "corpus"])
def test_traced_counts_repeat_for_one_seed(workload):
    first = traced_counts(workload, 5)
    assert first == traced_counts(workload, 5)
    assert first["curve.point_add.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "session", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_sees_names_imported_by_value_and_restores_them():
    from hyhlab import attacks, curve, fixtures, hyh
    original = hyh.scalar_mul
    config = hyh.SchemeConfig(params=fixtures.load(fixtures.F23_N7))
    tracer = Tracer()
    tracer.install()
    try:
        assert hyh.scalar_mul is not original and curve.scalar_mul is hyh.scalar_mul
        hyh.keypair_from_secret(config, 3)
    finally:
        tracer.uninstall()
    assert hyh.scalar_mul is original and curve.scalar_mul is original
    assert attacks.ConfirmationOracle.query.__name__ == "query"
    calls, total_s, self_s = tracer.stats["hyh.keypair_from_secret"]
    assert calls == 1 and 0 < self_s < total_s
    assert tracer.stats["curve.scalar_mul"][0] == 1
    assert tracer.stats["curve.point_add"][0] > 0
