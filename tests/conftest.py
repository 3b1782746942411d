import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def one_cpu(monkeypatch):
    """This process's affinity set read as one CPU, so every sweep runs as
    one shard in this process and a spy sees every call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """This process's affinity set read as two CPUs, so the split sweeps
    fork their second shard whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
