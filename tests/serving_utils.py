"""The one ``serve --listen`` subprocess harness.

The parity suite, the cluster tests, and the cluster benchmark all
drive *live* serving subprocesses; this module is the single copy of
the spawn/teardown logic (ephemeral port, "listening on" handshake,
hang guard) so a change to the server's ready line or startup behavior
is fixed in one place.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import repro


def spawn_listen(*extra_args: str, deadline_s: float = 60.0):
    """A live ``serve --listen`` subprocess on an ephemeral port.

    Returns ``(process, host, port)``; the caller owns termination
    (see :func:`terminate`).
    """
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runtime",
            "serve",
            "--listen",
            "127.0.0.1:0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + deadline_s
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        if proc.poll() is not None:
            raise RuntimeError(f"serve --listen died: {line}")
    else:  # pragma: no cover - hang guard
        proc.kill()
        raise RuntimeError("serve --listen never reported its port")
    address = line.split("listening on ", 1)[1].split(" ")[0]
    host, port = address.rsplit(":", 1)
    return proc, host, int(port)


def terminate(procs, timeout: float = 10.0) -> None:
    """Terminate spawned servers, politely and in parallel.

    A server that ignores SIGTERM past ``timeout`` (wedged event loop,
    blocked executor thread) is escalated to ``kill()`` and always
    reaped with a final ``wait()`` — a leaked subprocess outlives the
    test run and holds its port.  Each reaped server's stdout pipe is
    closed.
    """
    for proc in procs:
        proc.terminate()
    stubborn = []
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            stubborn.append(proc)
    for proc in stubborn:
        proc.kill()
    for proc in stubborn:
        proc.wait()
    for proc in procs:
        if proc.stdout is not None:
            proc.stdout.close()


__all__ = ["spawn_listen", "terminate"]
