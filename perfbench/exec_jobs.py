"""Run harness jobs through ``execute_job`` in a fresh process.

``passes.py`` re-runs daemon jobs here, outside the daemon, to check their
digests and to time each job without the service around it. A separate
process shares no warm caches with the daemon or the pass.

    python3 perfbench/exec_jobs.py < jobs.json

stdin is a JSON list of ``[key, kind, params]``; each job prints one JSON
line: ``{"key", "s", "result"}`` or ``{"key", "error"}``.
"""

import json
import sys
import time


def main() -> None:
    from repro.harness.jobs import execute_job

    for key, kind, params in json.load(sys.stdin):
        start = time.monotonic()
        try:
            row = {"key": key, "result": execute_job(kind, params)}
        except Exception as exc:
            row = {"key": key, "error": f"{type(exc).__name__}: {exc}"}
        row["s"] = time.monotonic() - start
        sys.stdout.write(json.dumps(row) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
