"""The percentile rule and the calibration arithmetic."""

import signal
import time

import pytest

import timing


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    samples = [float(i) for i in range(199)]
    with pytest.raises(timing.TooFewSamples):
        timing.percentile(samples, 95.0)
    samples.append(199.0)
    assert timing.percentile(samples, 95.0) == 189.0
    with pytest.raises(timing.TooFewSamples):
        timing.percentile(samples, 99.0)
    assert timing.percentile([float(i) for i in range(1000)], 99.0) == 989.0


def test_median_needs_no_tail():
    assert timing.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    with pytest.raises(timing.TooFewSamples):
        timing.percentile([], 50.0)


def test_summary_omits_unsupported_tails():
    segments = [timing.Segment([0.01] * 8, 0.08, timing.CAL_REF_MS)] * 25
    summary = timing.summarize(segments)
    assert summary.samples == 200
    assert summary.p95_cms == pytest.approx(10.0)
    assert summary.p99_cms is None
    assert summary.throughput_ops_cs == pytest.approx(100.0)


def test_calibrated_value_is_monotone_in_injected_slowdown():
    # The op alone slows down: the calibrated value must grow with it.
    op_only = [timing.calibrated(1.0 * f, timing.CAL_REF_MS) for f in (1, 1.2, 2, 5)]
    assert op_only == sorted(op_only) and len(set(op_only)) == 4
    # The whole host slows down (op and slices alike): no change.
    whole_host = [
        timing.calibrated(1.0 * f, timing.CAL_REF_MS * f) for f in (1, 1.2, 2, 5)
    ]
    assert whole_host == pytest.approx([1.0] * 4)
    with pytest.raises(ValueError):
        timing.calibrated(1.0, 0.0)


class _FakeSampler:
    """Reports a scripted calibration and slice time per segment."""

    def __init__(self, cal_ms, slice_s):
        self.script = list(zip(cal_ms, slice_s))
        self.marks = 0

    def mark(self):
        self.marks += 1
        return self.marks - 1

    def cal_ms_since(self, mark):
        return self.script[mark][0]

    def slice_s_since(self, mark):
        return self.script[mark][1]


def test_run_segments_calibrates_every_segment_on_its_own_slices():
    segments = timing.run_segments(
        lambda index: ([0.5], 0.5, {"index": index}),
        2,
        _FakeSampler(cal_ms=[0.3, 0.6], slice_s=[0.0, 0.5]),
        first_index=3,
    )
    assert [seg.cal_ms for seg in segments] == [0.3, 0.6]
    assert [seg.extra["index"] for seg in segments] == [3, 4]
    # Slower slices inside the same raw time: a smaller calibrated time.
    assert segments[0].wall_cs > segments[1].wall_cs
    # A clock that ran through the slices saw 0.5 s of them in 1.0 s.
    assert segments[0].inclusive_cs(1.0) == pytest.approx(timing.calibrated(1.0, 0.3))
    assert segments[1].inclusive_cs(1.0) == pytest.approx(timing.calibrated(0.5, 0.6))


def test_trimmed_mean_ignores_the_tails():
    values = [1.0] * 8 + [0.0, 100.0]
    assert timing.trimmed_mean(values) == 1.0
    assert timing.trimmed_mean([2.0, 4.0]) == 3.0


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def test_sampler_samples_while_work_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with timing.Sampler() as sampler:
        mark = sampler.mark()
        wall = time.perf_counter()
        _, raw, cal_ms = sampler.timed(lambda: _spin(0.2))
        wall = time.perf_counter() - wall
        assert sampler.mark() - mark >= sampler.MIN_SLICES
        assert 0.0 < cal_ms < 100.0
        # The sampler's clock stood still during the slices.
        assert raw < wall
        assert wall - raw == pytest.approx(sampler.slice_s_since(mark), abs=0.02)
        with pytest.raises(RuntimeError):
            sampler.cal_ms_since(sampler.mark())
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_bracketed_work_runs_paused_between_idle_bursts():
    with timing.Sampler() as sampler:
        def work():
            first = sampler.mark()
            _spin(0.05)
            return first, sampler.mark()

        start = sampler.mark()
        (first, last), raw, cal_ms = sampler.bracketed(work)
        # One burst before, none inside, one after.
        assert first - start == sampler.BURST_SLICES
        assert last == first
        assert sampler.mark() - last == sampler.BURST_SLICES
        assert raw == pytest.approx(0.05, abs=0.03) and cal_ms > 0.0
        # Sampling resumed.
        assert signal.getitimer(signal.ITIMER_REAL)[1] == sampler.PERIOD_S


def test_segments_beside_the_main_thread_are_calibrated_by_bursts():
    with timing.Sampler() as sampler:
        (segment,) = timing.run_segments(
            lambda index: ([0.25, 0.25], 0.3, {}), 1, sampler, beside=True
        )
    assert segment.slice_s == 0.0 and segment.cal_ms > 0.0
    assert segment.inclusive_cs(1.0) == timing.calibrated(1.0, segment.cal_ms)
