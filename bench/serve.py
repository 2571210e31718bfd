"""Run a simulation service for the ``service_mix`` workload.

Starts a :class:`repro.service.server.SimulationService` (serial backend,
result store in ``--store``) on an ephemeral port, writes
``{"host", "port", "cpu_s"}`` to ``--ready`` once it listens, and serves
until SIGTERM.  It then writes its CPU seconds to ``--report``, so the
pass can count the service's CPU over the timed region.  With
``--spans`` it wraps the layer boundaries first and writes its spans
there on exit.

Usage: python bench/serve.py --store DIR --ready FILE --report FILE
       [--spans DIR --run-id ID]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from pathlib import Path


def _write(path: Path, doc: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="service")
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder(args.spans, args.run_id)
        spans.install(recorder)
    from repro.service.server import ServiceConfig, SimulationService

    service = SimulationService(ServiceConfig(store=args.store, backend="serial"))
    host, port = service.start()
    _write(Path(args.ready), {"host": host, "port": port, "cpu_s": time.process_time()})
    try:
        while not stop.wait(0.2):
            pass
    finally:
        service.stop()
        if recorder is not None:
            recorder.dump()
        _write(Path(args.report), {"cpu_s": time.process_time()})


if __name__ == "__main__":
    main()
