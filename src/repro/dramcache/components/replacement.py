"""Frequency-based replacement with sampled counter updates (Algorithm 1).

:class:`SampledFrequencyPolicy` is the decision of *what* to do once an
access is sampled: bump the page's frequency counter, start tracking it as
a candidate, or (when a candidate's counter exceeds the coldest cached
page's counter by the replacement threshold) order a replacement.  The
decision of *whether* to sample — rate = recent miss rate × sampling
coefficient (Section 4.2.1), so a cache that is already working well stops
paying metadata traffic — runs for every access and is written out in
:meth:`repro.core.banshee.BansheeCache.access`.

The policy operates purely on :class:`~repro.core.frequency.FrequencySetMetadata`
state and the deterministic RNG — it decides, the scheme executes (traffic
charging, residency updates, PTE remaps).  This keeps the RNG draw order
identical to the original monolithic implementation, which the hot-path
goldens pin.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.frequency import FrequencySetMetadata
from repro.sim.stats import StatsSet
from repro.util.rng import DeterministicRng


class SampledFrequencyPolicy:
    """The per-set counter update and replacement decision of Algorithm 1."""

    __slots__ = ("metadata", "threshold", "stats", "_rng")

    def __init__(
        self,
        metadata: List[FrequencySetMetadata],
        threshold: int,
        rng: DeterministicRng,
        stats: StatsSet,
    ) -> None:
        self.metadata = metadata
        self.threshold = threshold
        self.stats = stats
        self._rng = rng

    def update(self, set_index: int, page: int) -> Optional[Tuple[int, int]]:
        """Run one sampled counter update for ``page``.

        Returns ``(candidate_index, victim_way)`` when the policy orders a
        replacement (the candidate's counter beat the coldest cached page by
        more than the threshold), else ``None``.
        """
        meta = self.metadata[set_index]
        cached_way = meta.find_cached(page)
        candidate_index = meta.find_candidate(page)

        if cached_way is not None:
            meta.increment(meta.cached[cached_way])
        elif candidate_index is not None:
            slot = meta.candidates[candidate_index]
            meta.increment(slot)
            min_way, min_count = meta.min_cached()
            if slot.count > min_count + self.threshold:
                # One decision tuple per ordered replacement (threshold-gated,
                # rare by design).  # repro: allow[hotpath-alloc]
                return (candidate_index, min_way)
        else:
            self._track_new_candidate(meta, page)
        return None

    def _track_new_candidate(self, meta: FrequencySetMetadata, page: int) -> None:
        """Lines 17-23 of Algorithm 1: probabilistically start tracking ``page``."""
        if not meta.candidates:
            return
        index = self._rng.randint(0, len(meta.candidates))
        victim = meta.candidates[index]
        probability = 1.0 if not victim.valid or victim.count == 0 else 1.0 / victim.count
        if self._rng.chance(probability):
            meta.install_candidate(index, page, count=1)
            self.stats.inc("candidate_installs")
