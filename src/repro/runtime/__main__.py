"""Entry point for ``python -m repro.runtime``.

The ``__main__`` guard is load-bearing: under the ``spawn`` start
method (the default on macOS), the process-pool workers of ``sweep
--workers`` re-import the parent's main module, and an unguarded
``sys.exit(main())`` would re-enter the CLI inside every worker.
"""

import sys

from repro.runtime.cli import main

if __name__ == "__main__":
    sys.exit(main())
