"""Counters describing how refinement work was distributed.

The paper's analysis hinges on *where* pairs get resolved: by the linear
point-in-polygon step, by the cheap hardware filter, or by the expensive
software segment/distance test.  These counters let tests assert the
filtering behaviour and let benchmarks report it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RefinementStats:
    """Outcome counters for a batch of pairwise refinement tests."""

    pairs_tested: int = 0
    #: Pairs rejected before any geometry test ran: the refinement-local
    #: MBR/locate prefilter failed (no shared window, or - for containment -
    #: the candidate MBR/anchor vertex already disproved containment).
    prefilter_drops: int = 0
    #: Resolved positively by the software point-in-polygon step
    #: (Algorithm 3.1 step 1): overlap or containment witnessed by a vertex.
    pip_hits: int = 0
    #: Polygon edges visited by point-in-polygon scans (for cost modeling).
    pip_edges: int = 0
    #: Pairs that skipped the hardware test because ``n + m <= sw_threshold``.
    threshold_bypasses: int = 0
    #: Hardware tests executed.
    hw_tests: int = 0
    #: Pairs the hardware test proved negative (filtered away).
    hw_rejects: int = 0
    #: Distance tests that exceeded the device line-width limit and fell
    #: back to software (section 4.4).
    width_limit_fallbacks: int = 0
    #: Software segment-intersection sweeps executed (step 3).
    sw_segment_tests: int = 0
    #: Software minDist computations executed.
    sw_distance_tests: int = 0
    #: Hardware MAYBE verdicts the exact software test then answered the
    #: other way - the filter's false positives (a conservative filter has
    #: no false negatives, so this is its entire error budget).
    hw_false_positives: int = 0
    #: Pairs answered positive overall.
    positives: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    @property
    def hw_filter_rate(self) -> float:
        """Fraction of executed hardware tests that proved disjointness."""
        return self.hw_rejects / self.hw_tests if self.hw_tests else 0.0
