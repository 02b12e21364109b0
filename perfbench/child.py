"""Child process of the benchmark: one timed ``rdsdiag`` run.

Usage: ``python3 child.py TIMING_FILE MODE [CLI ARGS...]``, with ``src`` of
the checkout on ``PYTHONPATH``.  MODE is

- ``import``: import ``rdsdiag.cli`` and stop (a warm-up);
- ``run``: then call ``cli.main`` with the CLI arguments;
- ``trace``: the same, with every layer boundary traced.

TIMING_FILE receives a JSON object with ``time.monotonic()`` readings taken
after the import and after ``main`` returned, the exit code, and in trace
mode the spans and counts.  The parent reads the spawn time from the same
system-wide clock, so set-up time covers interpreter start plus import.
"""

import json
import sys
import time


def main() -> int:
    timing_file, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import rdsdiag.cli

    record = {"imported": time.monotonic()}
    code = 0
    if mode == "run":
        code = rdsdiag.cli.main(cli_args)
    elif mode == "trace":
        import warnings

        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = tracer.wrap("cli.main", rdsdiag.cli.main)(cli_args)
        record.update(tracer.to_json())
        record["warnings"] = len(caught)
    record["main_done"] = time.monotonic()
    record["exit_code"] = code
    with open(timing_file, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
