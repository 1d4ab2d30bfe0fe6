#!/usr/bin/env python3
"""Fingerprint the CLI's attack corpus, so two trees can be compared.

Runs ``hyhlab.cli.main`` in-process on every bundled parameter fixture and
seeds 0, 1, 2, 3, 5, 11 and 42: ``demo all``, then each attack on the
victims it stages from the seed, in paper and in strict mode (819 runs),
and then ``params validate`` once per fixture (9 runs). Output is JSON, so
no wall time is printed. Each run prints one line,

    <sha256 of exit code, stdout, stderr> <fixture> <argv>

and each of the two groups ends in a digest over its runs: ``all runs``
for the attack corpus, a name older outputs share, and ``params validate
runs``. An exception that escapes ``main`` is a result too: its type and
message stand in for the exit code.

hyhlab is imported from PYTHONPATH, and the script takes no options, so
the same file run against two checkouts compares with diff:

    PYTHONPATH=src python scripts/cli_sweep.py > after.txt
    PYTHONPATH=../parent/src python scripts/cli_sweep.py > before.txt
    diff before.txt after.txt

It takes a few seconds. tests/test_cli_sweep.py runs it in-process and
compares its output with tests/golden/cli_sweep.txt.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from importlib import resources

from hyhlab import cli

SEEDS = (0, 1, 2, 3, 5, 11, 42)


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = cli.main(argv)
        except (Exception, SystemExit) as exc:
            result = f"{type(exc).__name__}: {exc}"
    blob = json.dumps([result, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def main():
    bundled = resources.files("hyhlab") / "fixtures"
    names = sorted(p.name for p in bundled.iterdir() if p.name.endswith(".json"))
    attack_runs = []
    for name in names:
        for seed in SEEDS:
            attack_runs.append((name, ["--seed", str(seed), "demo", "all"]))
            attack_runs += [(name, ["--seed", str(seed), "--mode", mode, "attack",
                                    attack])
                            for attack in cli.ATTACK_NAMES for mode in ("paper", "strict")]
    validate_runs = [(name, ["params", "validate"]) for name in names]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # contextlib.chdir would do, but it needs Python 3.11
        os.chdir(tmp)
        try:
            for name in names:
                # a relative --params path keeps the checkout out of the output
                with open(name, "wb") as fh:
                    fh.write((bundled / name).read_bytes())
            for runs, label in ((attack_runs, "all runs"),
                                (validate_runs, "params validate runs")):
                total = hashlib.sha256()
                for name, argv in runs:
                    fixture = name.removesuffix(".json")
                    line = f"{run(['--params', name, *argv])} {fixture} {' '.join(argv)}"
                    print(line)
                    total.update(line.encode() + b"\n")
                print(f"{total.hexdigest()} {label}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
