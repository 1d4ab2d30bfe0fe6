#!/usr/bin/env python3
"""The hyhlab benchmark.

    python3 bench/run.py --workload {corpus,session,bulk} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it uses the hyhlab sources under
``src/``. Load is a closed loop with one client: the next op starts when the
previous one has been checked.

- ``corpus``: each op is ``python -m hyhlab --params params_good.json
  --seed S demo all`` in a fresh interpreter, because ``count_points`` and
  ``validate_domain_params`` are cached and a CLI user starts cold. Point
  counting and the invalid-curve search dominate; scalars are 14-bit.
- ``session``: secp160r1 round trips (signcrypt + unsigncrypt) of 16-1024 B
  messages, half in paper mode and half in strict; 1 delivery in 8 is
  tampered and must be rejected. Time goes to full-width ``scalar_mul``.
- ``bulk``: the same keys and mode split with 1 MiB messages, so the
  keystream, the per-byte XOR and hashing take most of the time.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs under the tracer in ``tracer.py`` and reports the
per-layer metrics, per op, from cycles that alternate traced and untraced,
which also gives the tracing overhead. Before the result it prints the
environment and every figure it measured, by name and with its unit. The
last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``, whose metrics are the end-to-end ones in ``END_TO_END`` or,
traced, the per-layer ones.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import MODES, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "session", "bulk")
SETUP_RUNS = 7
ATTACK_NAMES = ("ephemeral", "nonce-reuse", "invalid-curve", "uks",
                "forward-secrecy", "degenerate-key")
# A gated metric must come from every workload, so the other figures are
# printed only: corpus has no signcrypt or plaintext and too few ops for a
# p90, failures are the result's "failed", and throughput, the inverse of
# mean latency with one client, moves more than the median under load from
# other tenants of a shared host.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}
FIGURE_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "samples": "count", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "fail_ratio": "ratio", "peak_rss_mib": "MiB",
    "signcrypt_p50_ms.paper": "ms", "signcrypt_p50_ms.strict": "ms",
    "unsigncrypt_p50_ms.paper": "ms", "unsigncrypt_p50_ms.strict": "ms",
    "plaintext_mib_per_s": "MiB/s", "traced_op_p50_ms": "ms", "untraced_op_p50_ms": "ms",
}

CALLS = (
    "numtheory.mod_inverse", "numtheory.factor", "numtheory.sqrt_mod",
    "numtheory.crt_combine", "curve.point_add", "curve.scalar_mul",
    "curve.validate_public_key", "curve.count_points", "hyh.hash_bytes",
    "hyh.public_verify", "attacks.confirmation_mac", "attacks.ConfirmationOracle.query",
)
SELF_MS = (
    "numtheory.mod_inverse", "numtheory.factor", "curve.point_add", "curve.scalar_mul",
    "curve.count_points", "curve.find_invalid_curves", "hyh.signcrypt", "hyh.unsigncrypt_trace",
    "hyh.keystream", "hyh.hash_bytes", "hyh.public_verify",
    "attacks.invalid_curve_attack", "attacks.degenerate_key_demo",
)
AMOUNTS = {
    "curve.point_add.doublings": "count/op",
    "hyh.keystream.bytes": "B/op",
    "hyh.hash_bytes.bytes": "B/op",
}
SETUP_CALLS = ("paramcheck.validate_domain_params",)
SETUP_SELF_MS = ("paramcheck.validate_domain_params", "fixtures.load")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count/op" for name in CALLS}
    units.update({f"{name}.self_ms": "ms/op" for name in SELF_MS})
    units.update(AMOUNTS)
    units["curve.find_invalid_curves.hit_ratio"] = "ratio"
    units.update({f"{name}.calls": "count/setup" for name in SETUP_CALLS})
    units.update({f"{name}.self_ms": "ms/setup" for name in SETUP_SELF_MS})
    units.update({f"cli.scenario.{attack}.{mode}.ms": "ms/op"
                  for attack in ATTACK_NAMES for mode in MODES})
    units["cli.startup_ms"] = "ms/op"
    units["tracer.overhead_ratio"] = "ratio"
    return units


def per_layer(stats: dict, amounts: dict, ops: int, setup_stats: dict,
              startup_ms: float, overhead: float) -> dict[str, float]:
    def get(table, name, i):
        return table.get(name, [0, 0.0, 0.0])[i]

    values = {f"{n}.calls": get(stats, n, 0) / ops for n in CALLS}
    values.update({f"{n}.self_ms": get(stats, n, 2) * 1e3 / ops for n in SELF_MS})
    values.update({n: amounts.get(n, 0) / ops for n in AMOUNTS})
    candidates = amounts.get("curve.find_invalid_curves.candidates", 0)
    values["curve.find_invalid_curves.hit_ratio"] = (
        amounts.get("curve.find_invalid_curves.hits", 0) / candidates if candidates else 0.0)
    values.update({f"{n}.calls": get(setup_stats, n, 0) for n in SETUP_CALLS})
    values.update({f"{n}.self_ms": get(setup_stats, n, 2) * 1e3 for n in SETUP_SELF_MS})
    values.update({f"cli.scenario.{a}.{m}.ms": get(stats, f"cli.scenario.{a}.{m}", 1) * 1e3 / ops
                   for a in ATTACK_NAMES for m in MODES})
    values["cli.startup_ms"] = startup_ms
    values["tracer.overhead_ratio"] = overhead
    return values


# --- statistics --------------------------------------------------------------

def ms(seconds: float) -> float:
    return seconds * 1e3


def p50_ms(samples: list[float]) -> float:
    return ms(statistics.median(samples))


def p90_ms(samples: list[float]) -> float | None:
    """The 90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=10)[-1]
    return ms(cut) if sum(s > cut for s in samples) >= 10 else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            run_cycle) -> tuple[float, float | None]:
    """Run whole cycles until they have taken ``seconds``; return that time
    and, untraced, the median set-up time.

    With tracing, cycles alternate traced and untraced, at least one of
    each. Untraced, SETUP_RUNS fresh interpreters are set up between cycles
    spread over the run, outside the measured time, so set-up is sampled
    under the same machine load as the ops; one set-up before the first
    cycle warms the bytecode cache.
    """
    import workloads
    setups = []
    if not trace:
        workloads.setup_seconds(workload, seed)
    busy = 0.0
    cycle = 0
    while True:
        start = time.perf_counter()
        run_cycle(trace and cycle % 2 == 0)
        busy += time.perf_counter() - start
        cycle += 1
        if not trace and busy >= len(setups) * seconds / SETUP_RUNS:
            setups.append(workloads.setup_seconds(workload, seed))
        if busy >= seconds and (not trace or cycle >= 2):
            break
    while not trace and len(setups) < SETUP_RUNS:
        setups.append(workloads.setup_seconds(workload, seed))
    return busy, statistics.median(setups) if setups else None


# --- workloads ---------------------------------------------------------------

def run_round_trips(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from hyhlab import hyh

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    keys = workloads.setup(workload, seed)
    setup_stats = _snapshot(tracer)
    configs = {mode: hyh.SchemeConfig(params=keys.params, mode=mode) for mode in MODES}
    cycle = workloads.round_trips(workload, seed)
    done = []   # (traced, op, result or None)

    def run_cycle(traced):
        if tracer and traced:
            tracer.install()
        try:
            for op in cycle:
                try:
                    done.append((traced, op, workloads.round_trip(keys, configs, op)))
                except Exception:
                    traceback.print_exc()
                    done.append((traced, op, None))
        finally:
            if tracer and traced:
                tracer.uninstall()

    elapsed, setup_s = measure(workload, seed, seconds, trace, run_cycle)
    finished = [(t, op, r) for t, op, r in done if r is not None]
    failed = sum(r is None or not r.ok for _, _, r in done)
    figures = op_figures([r.signcrypt_s + r.unsigncrypt_s for _, _, r in finished],
                         len(done), failed, elapsed, setup_s,
                         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for step in ("signcrypt", "unsigncrypt"):
        for m in MODES:
            figures[f"{step}_p50_ms.{m}"] = p50_ms(
                [getattr(r, f"{step}_s") for _, op, r in finished if op.mode == m])
    if workload == "bulk":
        plain = sum(op.length for _, op, r in done if r is not None and r.ok)
        figures["plaintext_mib_per_s"] = plain / (1 << 20) / elapsed
    if not trace:
        return _result(len(done), failed, figures)
    overhead = _overhead(figures, [(t, r.signcrypt_s + r.unsigncrypt_s) for t, _, r in finished])
    traced_ops = sum(t for t, _, _ in done)
    return _result(len(done), failed, figures, per_layer(
        tracer.stats, tracer.amounts, traced_ops, setup_stats, 0.0, overhead))


def run_corpus(seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    workloads.setup("corpus", seed)
    setup_stats = _snapshot(tracer)
    demo_seeds = workloads.corpus_seeds(seed)
    first_output = {}
    done = []   # (traced, child, ok)

    def run_cycle(traced):
        for demo_seed in demo_seeds:
            child = workloads.demo_all(demo_seed, traced)
            ok = workloads.demo_ok(child, demo_seed, first_output)
            if not ok:
                sys.stderr.write(child.stderr.decode(errors="replace"))
            done.append((traced, child, ok))

    elapsed, setup_s = measure("corpus", seed, seconds, trace, run_cycle)
    failed = sum(not ok for _, _, ok in done)
    figures = op_figures([child.wall_s for _, child, _ in done], len(done), failed,
                         elapsed, setup_s, max(child.peak_rss_mib for _, child, _ in done))
    if not trace:
        return _result(len(done), failed, figures)
    stats, amounts, startup = {}, {}, []
    for traced, child, ok in done:
        if not (traced and ok):
            continue
        totals = json.loads(child.stderr.decode().splitlines()[-1])
        for name, row in totals["stats"].items():
            into = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                into[i] += v
        for name, v in totals["amounts"].items():
            amounts[name] = amounts.get(name, 0) + v
        startup.append(child.wall_s - totals["stats"]["cli.run_demo_all"][1])
    overhead = _overhead(figures, [(t, child.wall_s) for t, child, _ in done])
    return _result(len(done), failed, figures, per_layer(
        stats, amounts, max(len(startup), 1), setup_stats,
        ms(statistics.fmean(startup)) if startup else 0.0, overhead))


def _snapshot(tracer) -> dict:
    """Set-up totals so far; the tracer then starts over for the ops."""
    if tracer is None:
        return {}
    tracer.uninstall()
    stats = {name: list(row) for name, row in tracer.stats.items()}
    tracer.reset()
    return stats


def _overhead(figures: dict, timed: list[tuple[bool, float]]) -> float:
    traced = p50_ms([s for t, s in timed if t])
    untraced = p50_ms([s for t, s in timed if not t])
    figures["traced_op_p50_ms"] = traced
    figures["untraced_op_p50_ms"] = untraced
    return traced / untraced


def op_figures(latency: list[float], attempted: int, failed: int, elapsed: float,
               setup_s: float | None, peak_rss_mib: float) -> dict:
    figures = {
        "setup_s": setup_s,
        "ops_per_s": (attempted - failed) / elapsed,
        "samples": len(latency),
        "op_p50_ms": p50_ms(latency),
        "op_p90_ms": p90_ms(latency),
        "fail_ratio": failed / attempted,
        "peak_rss_mib": peak_rss_mib,
    }
    return {name: value for name, value in figures.items() if value is not None}


def _result(attempted: int, failed: int, figures: dict, layers: dict | None = None) -> dict:
    metrics = layers if layers is not None else {k: figures[k] for k in END_TO_END}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "figures": figures}


# --- environment and output ----------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hyhlab" / "__init__.py").is_file():
        print(f"error: no hyhlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    trace = bool(args.trace)
    if args.workload == "corpus":
        result = run_corpus(args.seed, args.seconds, trace)
    else:
        result = run_round_trips(args.workload, args.seed, args.seconds, trace)

    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
           "commit": git_commit(), "seed": args.seed}
    print(f"{args.workload} trace={args.trace} seconds={args.seconds} env {json.dumps(env)}")
    for name, value in result["figures"].items():
        print(f"  {name:44} {value!r:>24} {FIGURE_UNITS[name]}")
    units = per_layer_units() if trace else END_TO_END
    if trace:
        for name, value in result["metrics"].items():
            print(f"  {name:44} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
