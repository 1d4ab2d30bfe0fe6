"""The benchmark's tracer (bench/tracer.py) wraps the library from outside
and reads some of its results, so a library change can crash a traced
benchmark run that no other test makes. This runs the tracer over what the
benchmark's workloads run: ``demo all`` on params_good and a strict
secp160r1 round trip."""

import importlib
import importlib.util
import pathlib

from hyhlab import cli, fixtures, hyh

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer_module) -> dict:
    """Every callable a layer module binds, by (module, name)."""
    return {(layer, key): obj
            for layer in tracer_module.LAYERS
            for key, obj in vars(importlib.import_module(f"hyhlab.{layer}")).items()
            if callable(obj)}


def test_traced_workloads_run_and_restore_the_library():
    tracer_module = _load_tracer()
    before = _bindings(tracer_module)
    scenarios = dict(cli.SCENARIOS)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        summary = cli.run_demo_all(fixtures.load(fixtures.GOOD), 7)
        config = hyh.SchemeConfig(params=fixtures.load(fixtures.SECP160R1),
                                  mode=hyh.STRICT)
        alice = hyh.keypair_from_secret(config, 5)
        bob = hyh.keypair_from_secret(config, 7)
        sct = hyh.signcrypt(config, alice.d, bob.U, b"traced", rng_seed=1)
        message = hyh.unsigncrypt(config, bob.d, alice.U, sct)
    finally:
        tracer.uninstall()
    assert summary["paper_successes"] == 6 and summary["strict_successes"] == 0
    assert message == b"traced"
    assert tracer.stats["cli.run_demo_all"][0] == 1
    assert _bindings(tracer_module) == before
    assert cli.SCENARIOS == scenarios
