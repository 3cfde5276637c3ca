"""Deterministic seed derivation for trees, bootstraps, and routing coins.

Every random decision in the library draws from a stream derived from a
single master seed via a splitmix64 chain.  Derivation is purely
functional, so any stream can be re-created in isolation: training tree
17 of a forest does not depend on trees 0..16 having been trained first,
which is what makes worker-count-independent parallel training possible.

Stream tags (documented here and in the README):

    master --(BOOTSTRAP, b)--> bootstrap draw for tree b
    master --(TREE, b)-------> growth rng for tree b (mtry, random masks)
    master --(REPLICATION, r)-> forest master seed for replication r
    master --(COIN, r, b, v)--> routing coin base for tree b, node v;
                                xor-mixed with the observation id gives
                                the uniform used by Majority/Random.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Stream tags.  Values are arbitrary but frozen: changing them changes
# every derived seed, which would silently break recorded experiments.
BOOTSTRAP = 0xB0
TREE = 0x7E
REPLICATION = 0x4E
COIN = 0xC0


def _mix(z: int) -> int:
    """splitmix64 finalizer on a python int, modulo 2**64."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _field_to_int(field: int | str) -> int:
    if isinstance(field, str):
        digest = hashlib.blake2b(field.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return int(field) & _MASK64


def derive(master: int, *fields: int | str) -> int:
    """Derive a child seed from ``master`` and a path of tag fields."""
    state = _mix(int(master) & _MASK64)
    for field in fields:
        state = _mix(state ^ _mix(_field_to_int(field)))
    return state


def stream(master: int, *fields: int | str) -> np.random.Generator:
    """A numpy Generator seeded at the derived position."""
    return np.random.default_rng(derive(master, *fields))


def _mix_array(z: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a uint64 array."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _to_unit(z: int) -> float:
    # 53 high-quality bits -> [0, 1)
    return (z >> 11) * (2.0**-53)


@dataclass(frozen=True)
class Coins:
    """Stateless uniform source keyed by (tree, node, observation).

    The same (master, replication, tree, node, observation) tuple always
    yields the same coin, no matter how many coins were drawn before it,
    so routing one observation never perturbs another and replaying a
    heuristic reproduces its exact decisions.
    """

    master: int
    replication: int = 0

    def uniform(self, tree_id: int, node_id: int, obs_id: int) -> float:
        base = derive(self.master, COIN, self.replication, tree_id, node_id)
        return _to_unit(_mix(base ^ (int(obs_id) & _MASK64)))

    def uniforms(self, tree_ids, node_ids, obs_ids) -> np.ndarray:
        """:meth:`uniform` of every (tree, node, observation) triple of the
        broadcast arrays, mixed in one uint64 pass from the shared
        ``(master, COIN, replication)`` prefix."""
        words = [np.atleast_1d(ids).astype(np.uint64) for ids in (tree_ids, node_ids, obs_ids)]
        state = np.uint64(derive(self.master, COIN, self.replication))
        for field in words[:2]:
            state = _mix_array(state ^ _mix_array(field))
        return (_mix_array(state ^ words[2]) >> np.uint64(11)) * (2.0**-53)
