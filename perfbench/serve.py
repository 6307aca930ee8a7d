"""The traced daemon of ``service-mixed``: ``repro serve`` with spans.

``python3 perfbench/serve.py ADDRESS SPANS_PATH`` installs the span
wrappers of ``tracing.py`` and then runs exactly what
``python -m repro serve ADDRESS`` runs — the default daemon, no tier
flags.  When the daemon stops (the ``shutdown`` verb) the spans kept in
memory are written to ``SPANS_PATH`` as one JSON object.
"""

from __future__ import annotations

import atexit
import json
import sys

import tracing
from repro import cli
import repro.service.daemon  # noqa: F401  (bind job kinds before wrapping)
import repro.service.worker  # noqa: F401


def main(argv) -> int:
    address, spans_path = argv
    recorder = tracing.Recorder()
    tracing.install(recorder)

    def dump() -> None:
        spans, counts = recorder.drain()
        with open(spans_path, "w") as handle:
            json.dump({"spans": spans, "counts": counts}, handle)

    atexit.register(dump)
    return cli.main(["serve", address])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
