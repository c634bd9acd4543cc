"""Run one sqcflow CLI task under the tracer.

    python perfbench/traced_task.py SUMMARY_JSON CLI_ARG...

Behaves like ``python -m sqcflow.cli CLI_ARG...`` (same artifacts, stdout
and exit code) and writes the span summary of the process to SUMMARY_JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
