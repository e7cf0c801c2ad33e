"""repro.gateway — the sharded asyncio HTTP front door over solver shards.

Requests hash-shard by canonical instance key across a fleet of
:class:`~repro.serve.SolverService` worker processes, with admission
control, 429-backpressure, per-tenant token-bucket quotas, one direct
``solve`` op per admitted request, supervised shard restart
(:mod:`~repro.gateway.supervisor`) and a choice of mod-N or
consistent-hash-ring routing (:mod:`~repro.gateway.routing`).  Wire
format is ``repro-wire/1`` (:class:`repro.api.SolveRequest` /
:class:`repro.api.SolveResult`).  See ``docs/GATEWAY.md``.
"""

from repro.gateway.core import Gateway
from repro.gateway.routing import (
    HashRing,
    QuotaManager,
    TokenBucket,
    ring_movement,
    ring_shard_for_key,
    shard_for_key,
)
from repro.gateway.shard import InlineShard, ProcessShard, ShardError, ShardLink
from repro.gateway.supervisor import ShardIncident, ShardSupervisor

__all__ = [
    "Gateway",
    "HashRing",
    "InlineShard",
    "ProcessShard",
    "QuotaManager",
    "ShardError",
    "ShardIncident",
    "ShardLink",
    "ShardSupervisor",
    "TokenBucket",
    "ring_movement",
    "ring_shard_for_key",
    "shard_for_key",
]
