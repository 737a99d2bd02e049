"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.env.config import EnvConfig
from repro.env.guessing_game import CacheGuessingGameEnv


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long-running end-to-end test (deselect with -m 'not slow')")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fa4_lru_config() -> CacheConfig:
    """A 4-way fully-associative LRU cache (the paper's most common setting)."""
    return CacheConfig.fully_associative(4, rep_policy="lru")


@pytest.fixture
def dm4_config() -> CacheConfig:
    """A 4-set direct-mapped cache."""
    return CacheConfig.direct_mapped(4)


@pytest.fixture
def simple_env_config(fa4_lru_config) -> EnvConfig:
    """Victim accesses 0 or nothing; attacker can reach 0-4 (Table V setting)."""
    return EnvConfig(cache=fa4_lru_config, attacker_addr_s=0, attacker_addr_e=4,
                     victim_addr_s=0, victim_addr_e=0, victim_no_access_enable=True,
                     window_size=12, max_steps=12, warmup_accesses=0, seed=7)


@pytest.fixture
def simple_env(simple_env_config) -> CacheGuessingGameEnv:
    return CacheGuessingGameEnv(simple_env_config)


@pytest.fixture
def prime_probe_env_config() -> EnvConfig:
    """Disjoint attacker/victim ranges on a direct-mapped cache (prime+probe)."""
    return EnvConfig(cache=CacheConfig.direct_mapped(4), attacker_addr_s=4, attacker_addr_e=7,
                     victim_addr_s=0, victim_addr_e=3, victim_no_access_enable=False,
                     window_size=24, max_steps=24, warmup_accesses=0, seed=3)
