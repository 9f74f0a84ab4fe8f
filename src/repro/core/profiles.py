"""Performance points and routine profiles.

The profiling algorithms produce, for every routine activation, a tuple
``(routine, thread, input_size, cost)`` — the paper's *performance
points*.  Points for the same routine, thread and input size are
aggregated: the cost plots of the paper show, for each distinct observed
input size, the **maximum** cost over all activations with that size
(worst-case cost plots), and the evaluation metrics additionally need
activation counts and drms/rms sums.

Profiles are thread-sensitive — points from different threads are kept
distinct and can be merged in a subsequent step (Section 3), which
:func:`merge_thread_profiles` implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = [
    "PointStats",
    "RoutineProfile",
    "ProfileSet",
    "merge_thread_profiles",
]


@dataclass
class PointStats:
    """Aggregated cost statistics for one (routine, input size) pair."""

    calls: int = 0
    max_cost: int = 0
    min_cost: int = 0
    total_cost: int = 0

    def add(self, cost: int) -> None:
        if self.calls == 0:
            self.min_cost = cost
            self.max_cost = cost
        else:
            if cost < self.min_cost:
                self.min_cost = cost
            if cost > self.max_cost:
                self.max_cost = cost
        self.calls += 1
        self.total_cost += cost

    @property
    def mean_cost(self) -> float:
        if self.calls == 0:
            return 0.0
        return self.total_cost / self.calls

    def merged_with(self, other: "PointStats") -> "PointStats":
        if self.calls == 0:
            hi, lo = other.max_cost, other.min_cost
        elif other.calls == 0:
            hi, lo = self.max_cost, self.min_cost
        else:
            hi = self.max_cost if self.max_cost >= other.max_cost else other.max_cost
            lo = self.min_cost if self.min_cost <= other.min_cost else other.min_cost
        return PointStats(
            self.calls + other.calls, hi, lo, self.total_cost + other.total_cost
        )


@dataclass
class RoutineProfile:
    """All performance points collected for one routine (by one thread,
    or merged over threads)."""

    routine: str
    points: Dict[int, PointStats] = field(default_factory=dict)
    #: total activations observed
    calls: int = 0
    #: sum of the input sizes of every activation (used by the
    #: dynamic-input-volume metric, Section 4.1)
    total_input: int = 0

    def record(self, input_size: int, cost: int) -> None:
        stats = self.points.get(input_size)
        if stats is None:
            stats = PointStats()
            self.points[input_size] = stats
        stats.add(cost)
        self.calls += 1
        self.total_input += input_size

    @property
    def distinct_sizes(self) -> int:
        """Number of distinct input sizes — points in the cost plot."""
        return len(self.points)

    def worst_case_plot(self) -> List[Tuple[int, int]]:
        """``(input_size, max_cost)`` pairs sorted by input size —
        the paper's worst-case cost plot for this routine."""
        return [(n, self.points[n].max_cost) for n in sorted(self.points)]

    def mean_plot(self) -> List[Tuple[int, float]]:
        return [(n, self.points[n].mean_cost) for n in sorted(self.points)]

    def merged_with(self, other: "RoutineProfile") -> "RoutineProfile":
        if other.routine != self.routine:
            raise ValueError(
                f"cannot merge profiles of {self.routine!r} and "
                f"{other.routine!r}"
            )
        merged = RoutineProfile(
            routine=self.routine,
            calls=self.calls + other.calls,
            total_input=self.total_input + other.total_input,
        )
        merged.points = {n: s for n, s in self.points.items()}
        for n, stats in other.points.items():
            if n in merged.points:
                merged.points[n] = merged.points[n].merged_with(stats)
            else:
                merged.points[n] = stats
        return merged


class ProfileSet:
    """Thread-sensitive collection of routine profiles.

    Keys are ``(routine, thread)`` pairs; the collector side is the
    ``collect`` call of Figure 8's ``return`` handler.
    """

    def __init__(self) -> None:
        self._profiles: Dict[Tuple[str, int], RoutineProfile] = {}
        #: per-activation records ``(routine, thread, input_size, cost)``
        #: in completion order; kept so metrics and tests can inspect the
        #: raw points (can be disabled for large runs).
        self.activations: List[Tuple[str, int, int, int]] = []
        self.keep_activations = True

    def collect(
        self, routine: str, thread: int, input_size: int, cost: int
    ) -> None:
        key = (routine, thread)
        profile = self._profiles.get(key)
        if profile is None:
            profile = RoutineProfile(routine)
            self._profiles[key] = profile
        profile.record(input_size, cost)
        if self.keep_activations:
            self.activations.append((routine, thread, input_size, cost))

    def fold_points(
        self,
        points: Dict[Tuple[str, int, int], list],
        activations: List[Tuple[str, int, int, int]],
    ) -> None:
        """Fold a batch of activations collected elsewhere, in bulk.

        ``points`` maps ``(routine, thread, input_size)`` to
        ``[calls, max_cost, min_cost, total_cost]`` in first-seen order;
        ``activations`` holds their records in completion order.  The
        result equals one :meth:`collect` per activation in completion
        order — profiles and points are inserted in first-seen order —
        for one dict probe per point instead of three calls per
        activation.  The columnar kernels gather returns this way and
        fold once per kernel call.
        """
        profiles = self._profiles
        for (routine, thread, size), (calls, hi, lo, total) in points.items():
            key = (routine, thread)
            profile = profiles.get(key)
            if profile is None:
                profile = RoutineProfile(routine)
                profiles[key] = profile
            profile.calls += calls
            profile.total_input += size * calls
            stats = profile.points.get(size)
            if stats is None:
                profile.points[size] = PointStats(calls, hi, lo, total)
            else:
                if not stats.calls or hi > stats.max_cost:
                    stats.max_cost = hi
                if not stats.calls or lo < stats.min_cost:
                    stats.min_cost = lo
                stats.calls += calls
                stats.total_cost += total
        if self.keep_activations:
            self.activations.extend(activations)

    def __reduce__(self):
        """Pickle as tuples of plain values rather than a tree of
        dataclass instances: per profile ``(key routine, thread,
        routine, calls, total_input, points)`` with ``points`` the flat
        ``size, calls, max_cost, min_cost, total_cost`` of each point.
        A shard reply from a pool worker holds a few profiles of a few
        points each, so per-object pickle overhead was most of its
        cost.  Pickles of the ``__dict__`` layout still load (they never
        call this)."""
        rows = []
        for (key_rtn, thread), prof in self._profiles.items():
            points = []
            for size, s in prof.points.items():
                points += (size, s.calls, s.max_cost, s.min_cost, s.total_cost)
            rows.append(
                (key_rtn, thread, prof.routine, prof.calls, prof.total_input,
                 tuple(points))
            )
        return _load_profile_set, (
            tuple(rows),
            self.activations,
            self.keep_activations,
        )

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[Tuple[Tuple[str, int], RoutineProfile]]:
        return iter(self._profiles.items())

    def threads(self) -> List[int]:
        return sorted({thread for _, thread in self._profiles})

    def routines(self) -> List[str]:
        return sorted({routine for routine, _ in self._profiles})

    def get(self, routine: str, thread: int) -> RoutineProfile:
        key = (routine, thread)
        if key not in self._profiles:
            raise KeyError(f"no profile for routine {routine!r} thread {thread}")
        return self._profiles[key]

    def merge_from(self, other: "ProfileSet") -> None:
        """Fold ``other``'s points into this set, in place.

        Commutative on the aggregated statistics and associative, so
        profile *shards* collected over separate traces can be reduced
        in any grouping (the sweep engine's shard-merge step).  Nothing
        of ``other`` is aliased: overlapping ``(routine, thread)`` keys
        get fresh merged :class:`PointStats`, disjoint ones are copied
        cell by cell, so mutating either set afterwards cannot corrupt
        the other.  Activation records are appended in ``other``'s
        completion order when this set keeps them.
        """
        for key, theirs in other._profiles.items():
            mine = self._profiles.get(key)
            if mine is None:
                mine = RoutineProfile(theirs.routine)
                self._profiles[key] = mine
            mine.calls += theirs.calls
            mine.total_input += theirs.total_input
            for size, stats in theirs.points.items():
                slot = mine.points.get(size)
                if slot is None:
                    mine.points[size] = PointStats(
                        stats.calls, stats.max_cost, stats.min_cost, stats.total_cost
                    )
                else:
                    mine.points[size] = slot.merged_with(stats)
        if self.keep_activations:
            self.activations.extend(other.activations)

    def by_routine(self) -> Dict[str, RoutineProfile]:
        """Merge the per-thread profiles of each routine (the paper's
        subsequent merge step)."""
        return merge_thread_profiles(self)

    def total_input(self) -> int:
        """Sum of input sizes over *all* routine activations — the
        denominator/numerator of the dynamic-input-volume metric."""
        return sum(p.total_input for p in self._profiles.values())


def _load_profile_set(
    rows: tuple, activations: list, keep_activations: bool
) -> ProfileSet:
    """Rebuild a :class:`ProfileSet` from its :meth:`ProfileSet.__reduce__`
    form."""
    out = ProfileSet.__new__(ProfileSet)
    profiles: Dict[Tuple[str, int], RoutineProfile] = {}
    for key_rtn, thread, routine, calls, total_input, flat in rows:
        fields = iter(flat)
        points = {
            size: PointStats(n, hi, lo, total)
            for size, n, hi, lo, total in zip(*(fields,) * 5)
        }
        profiles[(key_rtn, thread)] = RoutineProfile(
            routine, points, calls, total_input
        )
    out._profiles = profiles
    out.activations = activations
    out.keep_activations = keep_activations
    return out


def merge_thread_profiles(profiles: ProfileSet) -> Dict[str, RoutineProfile]:
    merged: Dict[str, RoutineProfile] = {}
    for (routine, _thread), profile in profiles:
        if routine in merged:
            merged[routine] = merged[routine].merged_with(profile)
        else:
            merged[routine] = profile.merged_with(RoutineProfile(routine))
    return merged
