"""Entry points the benchmark runs in fresh interpreters.

    python3 bench/child.py setup WORKLOAD SEED
        Do the workload's set-up, then print the monotonic clock and exit.
    python3 bench/child.py demo HYHLAB-ARGS...
        Run ``hyhlab.cli.main(HYHLAB-ARGS)`` under the tracer. stdout is the
        CLI's own; the tracer's totals go to stderr as one JSON line.
"""

import json
import sys
import time


def main() -> int:
    command, *rest = sys.argv[1:]
    if command == "setup":
        import workloads
        workload, seed = rest
        workloads.setup(workload, int(seed))
        print(time.monotonic())
        return 0
    if command == "demo":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        from hyhlab import cli
        code = cli.main(rest)
        sys.stdout.flush()
        print(json.dumps({"stats": tracer.stats, "amounts": tracer.amounts}), file=sys.stderr)
        return code
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
