"""Start ``python -m repro.runtime serve`` with the traced pass's wrappers.

Usage::

    PYTHONPATH=src python3 lifecycle_bench/launcher.py SPANS.json serve --listen ...

Installs the same wrappers as the in-process traced pass, enters the
``repro.runtime`` CLI with the remaining arguments, and writes every
span and counted event to ``SPANS.json`` when the server shuts down
(SIGINT).
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from layers import install_layers
    from spans import Recorder

    from repro.runtime.cli import main as cli_main

    recorder = Recorder()
    install_layers(recorder)
    stop_gc = recorder.watch_gc()
    try:
        return cli_main(cli_args)
    finally:
        stop_gc()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
