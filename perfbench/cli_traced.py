"""The schurcalc entry point with tracing installed.

Behaves like the ``schurcalc`` console script, and on exit writes the
import time and the trace summary as JSON to the file named by the
PERFBENCH_TRACE_OUT environment variable.

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/cli_traced.py lr 2,1 2,1 3,2,1
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import schurcalc.cli

    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return schurcalc.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "trace": tracer.summary()}, fh)


if __name__ == "__main__":
    sys.exit(main())
