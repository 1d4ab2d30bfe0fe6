"""Workloads of the hyhlab benchmark: set-up, seeded inputs, ops and their checks.

Every input is derived from the workload seed; hyhlab receives only the
generated keys, messages and seeds. Inputs form a fixed cycle that a run
repeats until its time is up, always finishing the cycle it is in. So a run
holds the same mix of modes and tamperings however long it lasts, and two
traced runs with one seed make exactly the same calls per op.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from hyhlab import fixtures, hyh
from hyhlab.curve import CurveParams

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PARAMS_GOOD = ROOT / "src" / "hyhlab" / "fixtures" / "params_good.json"

FIXTURE = {"corpus": fixtures.GOOD, "session": fixtures.SECP160R1, "bulk": fixtures.SECP160R1}
MESSAGE_BYTES = {"session": (16, 1024), "bulk": (1 << 20, 1 << 20)}
ATTACKS = 6
CORPUS_SEEDS = 3
CHILD_TIMEOUT_S = 120

# One cycle of round trips. Modes alternate, so half the ops run in each.
# One delivery in eight is tampered, and each mode sees each kind of
# tampering once: "C" flips a byte of C, "R" moves R off the curve.
CYCLE = 32
TAMPER = {6: "C", 15: "R", 22: "R", 31: "C"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@dataclasses.dataclass(frozen=True)
class Setup:
    params: CurveParams
    alice: hyh.KeyPair
    bob: hyh.KeyPair


def setup(workload: str, seed: int) -> Setup:
    """Load the workload's fixture and make its two key pairs with strict
    ``hyh.gen``, so the domain parameters are validated on the way."""
    params = fixtures.load(FIXTURE[workload])
    strict = hyh.SchemeConfig(params=params, mode=hyh.STRICT)
    rng = random.Random(seed)
    alice = hyh.gen(strict, rng_seed=rng.getrandbits(64))
    bob = hyh.gen(strict, rng_seed=rng.getrandbits(64))
    return Setup(params, alice, bob)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until its set-up is done."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(CHILD), "setup", workload, str(seed)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


# --- session and bulk: signcrypt + unsigncrypt round trips -----------------

@dataclasses.dataclass(frozen=True)
class RoundTrip:
    mode: str
    length: int
    message_seed: int
    nonce_seed: int
    tamper: str | None
    flip_at: int

    def message(self) -> bytes:
        return random.Random(self.message_seed).randbytes(self.length)


def round_trips(workload: str, seed: int) -> list[RoundTrip]:
    low, high = MESSAGE_BYTES[workload]
    rng = random.Random(seed)
    cycle = []
    for i in range(CYCLE):
        length = rng.randint(low, high)
        cycle.append(RoundTrip(
            mode=hyh.PAPER if i % 2 == 0 else hyh.STRICT,
            length=length,
            message_seed=rng.getrandbits(64),
            nonce_seed=rng.getrandbits(64),
            tamper=TAMPER.get(i),
            flip_at=rng.randrange(length + hyh.TAG_LEN),
        ))
    return cycle


@dataclasses.dataclass(frozen=True)
class RoundTripResult:
    ok: bool
    signcrypt_s: float
    unsigncrypt_s: float


def round_trip(keys: Setup, configs: dict, op: RoundTrip) -> RoundTripResult:
    """One signcrypt and one unsigncrypt. An honest delivery must give the
    message back; a tampered one must be rejected."""
    config = configs[op.mode]
    message = op.message()
    clock = time.perf_counter
    t0 = clock()
    sct = hyh.signcrypt(config, keys.alice.d, keys.bob.U, message, rng_seed=op.nonce_seed)
    t1 = clock()
    if op.tamper:
        sct = _tampered(sct, op, keys.params)
    t2 = clock()
    out = hyh.unsigncrypt(config, keys.bob.d, keys.alice.U, sct)
    t3 = clock()
    ok = out is None if op.tamper else out == message
    return RoundTripResult(ok, t1 - t0, t3 - t2)


def _tampered(sct: hyh.SigncryptedText, op: RoundTrip,
              params: CurveParams) -> hyh.SigncryptedText:
    if op.tamper == "C":
        c = bytearray(sct.C)
        c[op.flip_at] ^= 0x01
        return dataclasses.replace(sct, C=bytes(c))
    x, y = sct.R
    q = params.q
    y = (y + 1) % q
    while (y * y - (x * x * x + params.a * x + params.b)) % q == 0:
        y = (y + 1) % q
    return dataclasses.replace(sct, R=(x, y))


# --- corpus: `demo all` in a fresh interpreter -----------------------------

def corpus_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 1 << 31) for _ in range(CORPUS_SEEDS)]


@dataclasses.dataclass(frozen=True)
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mib: float


def demo_all(demo_seed: int, traced: bool) -> Child:
    """``python -m hyhlab --params params_good.json --seed S demo all``; the
    traced form runs the same command line under the tracer."""
    argv = ["--params", str(PARAMS_GOOD), "--seed", str(demo_seed), "demo", "all"]
    entry = [str(CHILD), "demo"] if traced else ["-m", "hyhlab"]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *entry, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # The child's stderr is a few kilobytes at most, so reading the two
        # pipes in turn cannot block it.
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err, time.perf_counter() - start,
                 usage.ru_maxrss / 1024)


def demo_ok(child: Child, demo_seed: int, first_output: dict) -> bool:
    """Exit 0, every paper-mode attack lands, no strict-mode attack lands,
    and stdout is byte-identical to the first op with the same seed."""
    if child.returncode != 0:
        return False
    try:
        summary = json.loads(child.stdout)
    except ValueError:
        return False
    if summary.get("paper_successes") != ATTACKS or summary.get("strict_successes") != 0:
        return False
    return first_output.setdefault(demo_seed, child.stdout) == child.stdout
