"""Traced ``qgeomcap`` process for the cli_cold traced pass.

Usage: python3 perfbench/cli_child.py SPANS_FILE TASK_ID <qgeomcap args...>

Times ``import qgeomcap``, wraps the layer boundaries, runs ``cli.main`` on
the remaining arguments and writes one header line (import time, counters)
followed by the spans as JSON lines. Exits with the CLI's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import qgeomcap  # noqa: E402

import_s = time.perf_counter() - t0

import metrics  # noqa: E402
import spans  # noqa: E402


def main():
    path, task = sys.argv[1], int(sys.argv[2])
    rec = spans.Recorder()
    rec.task_id = task
    metrics.install(rec)
    try:
        return qgeomcap.cli.main(sys.argv[3:])
    finally:
        rec.restore()
        rec.write_jsonl(path, header={"import_s": import_s, "counters": rec.counters})


if __name__ == "__main__":
    sys.exit(main())
