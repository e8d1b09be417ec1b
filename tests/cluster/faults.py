"""Fault-injection helpers for the replicated cluster tests.

One place for the machinery every failover test needs: spawning a
*replicated* topology (each host owns its primary shards PLUS every
shard it seconds, over one shared store), SIGKILL-ing a chosen host —
immediately or mid-batch from a timer thread — and persisting the
router's failover telemetry stream to a JSONL file when the
``FAILOVER_TELEMETRY`` environment variable names one (how the CI
``cluster-failover`` job captures the stream as an artifact).
"""

from __future__ import annotations

import json
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster.placement import ClusterMap
from tests.serving_utils import spawn_listen, terminate


@dataclass
class FaultCluster:
    """Live replicated serving hosts plus the map that routes to them."""

    procs: list
    cluster_map: ClusterMap
    _dead: set = field(default_factory=set)

    @property
    def hosts(self) -> tuple[str, ...]:
        return self.cluster_map.hosts

    def kill(self, host: str) -> str:
        """SIGKILL one host by address — no shutdown handler runs, the
        socket just vanishes, exactly like a machine loss."""
        index = self.hosts.index(host)
        proc = self.procs[index]
        if host not in self._dead:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
            self._dead.add(host)
        return host

    def kill_after(self, host: str, delay_s: float) -> threading.Thread:
        """Kill ``host`` from a timer thread — the caller starts a batch
        and joins the thread after, so the kill lands mid-flight."""
        timer = threading.Timer(delay_s, self.kill, args=(host,))
        timer.start()
        return timer

    def close(self) -> None:
        terminate(
            [
                proc
                for host, proc in zip(self.hosts, self.procs)
                if host not in self._dead
            ]
        )


def spawn_replicated(
    n_hosts: int = 3,
    n_shards: int = 8,
    *,
    store_root=None,
    deadline_s: float = 60.0,
) -> FaultCluster:
    """``n_hosts`` live hosts with replica-union shard ownership.

    With ``store_root`` the hosts serve one shared store (and advertise
    its recorded epoch); without, each host runs an in-memory registry
    at ``n_shards``.  Host order defines replica order, so the launch
    groups come from a map of placeholder addresses in that order: the
    ports are only known once each host is up.
    """
    layout = ClusterMap(tuple(f"host-{i}:{i}" for i in range(n_hosts)), n_shards)
    procs, hosts = [], []
    try:
        for placeholder in layout.hosts:
            args = ["--own-shards", layout.replica_own_shards_arg(placeholder)]
            if store_root is not None:
                args += ["--artifacts", str(store_root)]
            else:
                args += ["--shards", str(n_shards)]
            proc, host, port = spawn_listen(*args, deadline_s=deadline_s)
            procs.append(proc)
            hosts.append(f"{host}:{port}")
    except BaseException:
        terminate(procs)
        raise
    return FaultCluster(procs, ClusterMap(tuple(hosts), n_shards))


def env_telemetry_sink() -> Optional[Callable[[dict], None]]:
    """A router ``telemetry_sink`` appending JSON lines to the file
    named by ``FAILOVER_TELEMETRY``, or ``None`` when unset."""
    path = os.environ.get("FAILOVER_TELEMETRY")
    if not path:
        return None
    lock = threading.Lock()

    def sink(event: dict) -> None:
        with lock, open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(event, sort_keys=True) + "\n")

    return sink


__all__ = [
    "FaultCluster",
    "env_telemetry_sink",
    "spawn_replicated",
]
