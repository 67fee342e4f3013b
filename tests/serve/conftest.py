"""Shared fixtures for the serving tests.

Workloads and services are session-scoped: dataset loading and engine
construction dominate test time, and a service's answers do not depend
on the requests before them (the pool memoizes work, never answers:
that is what the determinism tests verify).
"""

import pytest

from repro.serve import (
    AdmissionConfig,
    QueryService,
    ServingWorkload,
    WorkloadConfig,
)


@pytest.fixture(scope="session")
def workload() -> ServingWorkload:
    return ServingWorkload(WorkloadConfig())


@pytest.fixture(scope="session")
def service():
    svc = QueryService(
        workers=2, admission=AdmissionConfig(max_queue=10_000)
    )
    yield svc
    svc.close()
