"""One API session: run a batch of queries in this fresh interpreter.

Reads {"queries": [...], "trace": bool} as JSON on stdin and writes one
JSON document to stdout: the import time, the batch wall time (first query
sent to last answer encoded), each query's latency, each answer's digest
(or the error it raised), the speed probes with the index of the probe
taken last before each query, and, when tracing, the trace summary.
Queries run one at a time; encoding an answer is not part of its latency,
and the probes are part of neither.

    python3 perfbench/session_worker.py < request.json
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    request = json.load(sys.stdin)
    start = time.perf_counter()
    import schurcalc.cli  # noqa: F401  (the import a user of the package pays)

    import_s = time.perf_counter() - start

    import answers
    import speed

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies, digests, errors = [], [], []
    probes, probe_at, probing = [speed.probe()], [], 0.0
    last_probe = first = time.perf_counter()
    for query in request["queries"]:
        if time.perf_counter() - last_probe >= speed.PROBE_EVERY_S:
            begun = time.perf_counter()
            probes.append(speed.probe())
            last_probe = time.perf_counter()
            probing += last_probe - begun
        probe_at.append(len(probes) - 1)
        sent = time.perf_counter()
        try:
            result = answers.call(query)
        except Exception as exc:  # a failed query is recorded, not fatal
            latencies.append(time.perf_counter() - sent)
            digests.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - sent)
        digests.append(answers.digest(answers.encode(query, result)))
        errors.append(None)
    batch_s = time.perf_counter() - first - probing
    probes.append(speed.probe())

    json.dump(
        {
            "import_s": import_s,
            "batch_s": batch_s,
            "latencies": latencies,
            "digests": digests,
            "errors": errors,
            "probes": probes,
            "probe_at": probe_at,
            "trace": tracer.summary() if tracer else None,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
