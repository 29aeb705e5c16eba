"""Program-side launcher: run one request through a user-facing path.

Usage (``PYTHONPATH`` must hold the repository's ``src``)::

    python perfbench/launch.py [--trace SPANS] cli ARG...
    python perfbench/launch.py [--trace SPANS] job REQUEST CACHE_DIR OUTPUT
    python perfbench/launch.py [--trace SPANS] serve ARG...
    python perfbench/launch.py direct REQUEST OUTPUT
    python perfbench/launch.py stats CACHE_DIR

``cli`` hands ``ARG...`` to the ``python -m repro`` entry point,
``serve`` runs ``python -m repro serve ARG...`` until SIGINT, ``job``
runs a ``JobRequest`` document through ``JobRunner.run`` on a store and
writes the result JSON, ``direct`` runs it store-less and writes the
bytes ``GET /jobs/{id}/result`` would serve, and ``stats`` prints
``ResultStore.stats()`` as JSON.

The launcher prints ``ready <t>`` once imports and registries are loaded,
``done <t>`` when the request has completed, and ``rss_kb <n>`` (peak
resident memory) on stdout, with ``t`` on the system-wide monotonic
clock the benchmark also reads.  With ``--trace SPANS`` it wraps the
program's public calls (see ``tracer.py``) and writes the recorded spans
to ``SPANS`` after ``done``.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path


def _request(path: str):
    from repro.jobs import JobRequest

    return JobRequest.from_dict(json.loads(Path(path).read_text()))


def _cli(args: list[str]) -> int:
    import repro.cli

    return repro.cli.main(args)


def _job(args: list[str]) -> int:
    from repro.jobs import JobRunner

    request, cache_dir, output = args
    with JobRunner(cache_dir=cache_dir) as runner:
        job = runner.run(_request(request))
    Path(output).write_text(job.result.to_json() + "\n")
    return 0


def _direct(args: list[str]) -> int:
    from repro.jobs import JobRunner

    request, output = args
    with JobRunner() as runner:
        job = runner.run(_request(request))
    Path(output).write_bytes(
        json.dumps(job.result.to_dict(), sort_keys=True).encode("utf-8")
    )
    return 0


def _stats(args: list[str]) -> int:
    from repro.experiments.store import ResultStore

    (cache_dir,) = args
    print(json.dumps(ResultStore(cache_dir, readonly=True).stats()))
    return 0


MODES = {
    "cli": _cli,
    "serve": lambda args: _cli(["serve", *args]),
    "job": _job,
    "direct": _direct,
    "stats": _stats,
}


def main(argv: list[str]) -> int:
    # A parent that runs in the background starts us with SIGINT ignored;
    # ``serve`` stops cleanly (and spans get written) only on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans = None
    if argv[:1] == ["--trace"]:
        spans, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    import repro.cli

    repro.cli.build_parser()  # loads every registry, as the CLI does
    recorder = None
    if spans is not None:
        import tracer  # this file's directory is sys.path[0]

        recorder = tracer.install()
    print(f"ready {time.monotonic()!r}", flush=True)
    try:
        code = MODES[mode](args)
    finally:
        print(f"done {time.monotonic()!r}", flush=True)
        if recorder is not None:
            recorder.dump(spans)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"rss_kb {usage.ru_maxrss}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
