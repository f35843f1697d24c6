"""One measured operation of a workload, in a fresh interpreter.

Run as `python3 perfbench/worker.py SPEC_JSON`, with the checkout's `src`
on PYTHONPATH. It times `import dravlid.cli` and the build of the
workload's backend through the public constructors (the fixed cost of every
CLI invocation), then runs the workload's CLI commands through
`dravlid.cli.main` and times them. With "trace" set it also installs the
tracer and reports per-layer numbers. It prints one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def build_backend(spec: dict):
    from dravlid.backends import BaselineBackend, LiveBackend
    from dravlid.cache import ResponseCache
    from dravlid.transport import ChatTransport, RetryPolicy, TokenBucket

    if spec["kind"] == "baseline":
        return BaselineBackend()
    transport = ChatTransport(
        base_url=spec["base_url"],
        api_key=spec["api_key"],
        retry=RetryPolicy(base_delay=spec["retry_base_delay"]),
        rate_limiter=TokenBucket(spec["rate_limit"]),
    )
    return LiveBackend(
        cache=ResponseCache(spec["cache"]),
        transport=transport,
        max_workers=spec["max_workers"],
    )


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import dravlid.cli

    imported = time.perf_counter()
    backend = build_backend(spec["backend"])
    built = time.perf_counter()
    del backend

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    exit_codes = []
    sink = io.StringIO()
    start_commands = time.perf_counter()
    for argv in spec["commands"]:
        with contextlib.redirect_stdout(sink):
            exit_codes.append(dravlid.cli.main(argv))
    wall = time.perf_counter() - start_commands

    result = {
        "dravlid_file": dravlid.cli.__file__,
        "import_s": imported - start,
        "build_s": built - imported,
        "wall_s": wall,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
