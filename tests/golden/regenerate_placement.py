"""Regenerate the golden placement fixture (``tests/golden/placement.json``).

Placement (``site_key → shard_index``) is the one function the store,
the sweep fleet, the shard-owning serving hosts, and the router client
must all compute identically — a refactor that silently remaps shards
would orphan every stored artifact and misroute every request.  This
fixture freezes the SHA-1 assignment for all corpus sites at the
default shard count; ``tests/cluster/test_placement.py`` asserts the
live function reproduces it bit-for-bit.

Since replication the fixture also carries an ``epochs`` table: for
each reference topology (epoch 0: 8 shards / 3 hosts; epoch 1, the
post-``migrate`` shape: 16 shards / 3 hosts) it pins every site's
shard AND its replica set ``[primary, secondary]`` (host *indexes*
into the epoch's host list).  A silent change to replica derivation
would strand the secondary copy of every artifact exactly the way a
shard remap strands the primary.

Only regenerate after an *intentional*, migration-accompanied placement
change:

    PYTHONPATH=src python tests/golden/regenerate_placement.py
"""

from __future__ import annotations

import json
import pathlib
import sys

GOLDEN_PATH = pathlib.Path(__file__).parent / "placement.json"

# The reference topologies pinned per epoch: (n_shards, n_hosts).
# Epoch 1 is the documented ``migrate`` target shape — double the
# shards over the same host count.
EPOCH_TOPOLOGIES = {0: (8, 3), 1: (16, 3)}


def build_golden() -> dict:
    from repro.cluster.placement import (
        DEFAULT_SHARDS,
        REPLICATION_FACTOR,
        replica_indexes,
        shard_index,
    )
    from repro.sites.corpus import build_corpus

    site_ids = [spec.site_id for spec in build_corpus()]
    sites = {site_id: shard_index(site_id, DEFAULT_SHARDS) for site_id in site_ids}
    epochs = {}
    for epoch, (n_shards, n_hosts) in sorted(EPOCH_TOPOLOGIES.items()):
        placed = {}
        for site_id in site_ids:
            shard = shard_index(site_id, n_shards)
            placed[site_id] = {
                "shard": shard,
                "replicas": list(replica_indexes(shard, n_hosts)),
            }
        epochs[str(epoch)] = {
            "n_shards": n_shards,
            "n_hosts": n_hosts,
            "sites": placed,
        }
    return {
        "description": (
            "Frozen SHA-1 site_key -> shard_index assignment for every "
            "corpus site at the default shard count, plus per-epoch "
            "replica placement (shard + [primary, secondary] host "
            "indexes) for the reference topologies.  Changing any entry "
            "orphans stored artifacts and requires an explicit store "
            "migration.  Regenerate with: PYTHONPATH=src python "
            "tests/golden/regenerate_placement.py"
        ),
        "n_shards": DEFAULT_SHARDS,
        "sites": sites,
        "replication": REPLICATION_FACTOR,
        "epochs": epochs,
    }


def main() -> int:
    payload = build_golden()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"{len(payload['sites'])} site placements frozen to {GOLDEN_PATH} "
        f"({len(payload['epochs'])} epochs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
