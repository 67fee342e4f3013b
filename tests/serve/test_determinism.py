"""The serving determinism property: responses are bit-identical to
direct engine calls, with or without the interval filter, under
concurrency.

This is the acceptance property of the serving layer: admission,
pooling, and threading may change *when* a query runs and *which* engine
runs it - never *what* it answers.
"""

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionConfig,
    QueryRequest,
    QueryService,
    ServingEngine,
    WorkloadConfig,
    canonical_results,
)


@pytest.fixture(scope="module")
def reference(workload):
    """Direct engine calls, no serving layer: the ground truth."""
    return ServingEngine(worker_id=99, workload=workload)


def _direct(reference: ServingEngine, request: QueryRequest):
    return canonical_results(reference.execute(request).results)


class TestBitIdentityAcrossBackends:
    def test_all_ops_match_direct_calls(self, workload, reference):
        svc = QueryService(
            workload=WorkloadConfig(),
            workers=2,
            admission=AdmissionConfig(max_queue=1000),
        )
        try:
            requests = [
                QueryRequest(op="selection", query_index=i)
                for i in range(len(workload.queries))
            ]
            requests.append(QueryRequest(op="join"))
            requests.append(
                QueryRequest(
                    op="within_distance", distance=workload.base_distance
                )
            )
            for request in requests:
                resp = svc.submit(request)
                assert resp.status == "ok"
                assert canonical_results(resp.results) == _direct(
                    reference, request
                ), f"request={request}"
        finally:
            svc.close()

    def test_interval_filter_matches_direct_calls(self, workload, reference):
        """The interval second filter changes work, never answers: an
        intervals-on service must answer exactly like the intervals-off
        reference engine."""
        svc = QueryService(
            workload=WorkloadConfig(use_intervals=True),
            workers=1,
            admission=AdmissionConfig(max_queue=1000),
        )
        try:
            assert svc.describe()["use_intervals"] is True
            for request in (
                QueryRequest(op="selection", query_index=0),
                QueryRequest(op="join"),
            ):
                resp = svc.submit(request)
                assert resp.status == "ok"
                assert canonical_results(resp.results) == _direct(
                    reference, request
                )
        finally:
            svc.close()

    @pytest.mark.parametrize("name", ["engine", "resolution", "interval_level", "cache"])
    def test_fixed_settings_are_not_fields(self, name):
        # The served engine is the 8 x 8 hardware engine, the interval
        # filter runs at the default level (IntervalGrid checks a level),
        # and the pool always memoizes through one shared bundle.
        with pytest.raises(TypeError, match=name):
            WorkloadConfig(**{name: None})

    def test_serial_backend_is_gone(self):
        # One refinement path: no geometry backend is selectable at all.
        with pytest.raises(TypeError, match="backend"):
            WorkloadConfig(backend="serial")


class TestBitIdentityUnderConcurrency:
    def test_interleaved_clients_get_identical_answers(
        self, service, workload, reference
    ):
        rng = random.Random(1234)
        requests = []
        for _ in range(24):
            kind = rng.random()
            if kind < 0.7:
                requests.append(
                    QueryRequest(
                        op="selection",
                        query_index=rng.randrange(len(workload.queries)),
                    )
                )
            elif kind < 0.9:
                requests.append(QueryRequest(op="join"))
            else:
                requests.append(
                    QueryRequest(
                        op="within_distance",
                        distance=workload.base_distance
                        * rng.choice([0.5, 1.0]),
                    )
                )
        expected = [_direct(reference, r) for r in requests]
        responses = [None] * len(requests)

        def client(idx: int) -> None:
            responses[idx] = service.submit(requests[idx])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(requests))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for request, resp, want in zip(requests, responses, expected):
            assert resp.status == "ok"
            assert canonical_results(resp.results) == want, request

    def test_repeated_submission_is_stable(self, service):
        request = QueryRequest(op="selection", query_index=5)
        first = service.submit(request)
        for _ in range(5):
            again = service.submit(request)
            assert again.results == first.results


class TestPropertyBased:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_valid_request_matches_direct(
        self, data, service, workload, reference
    ):
        op = data.draw(st.sampled_from(["selection", "join", "within_distance"]))
        if op == "selection":
            request = QueryRequest(
                op="selection",
                query_index=data.draw(
                    st.integers(0, len(workload.queries) - 1)
                ),
            )
        elif op == "within_distance":
            factor = data.draw(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
            )
            request = QueryRequest(
                op="within_distance",
                distance=workload.base_distance * factor,
            )
        else:
            request = QueryRequest(op="join")
        resp = service.submit(request)
        assert resp.status == "ok"
        assert canonical_results(resp.results) == _direct(reference, request)
