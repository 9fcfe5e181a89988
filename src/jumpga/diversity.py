"""Population diversity measurement: species sizes and pairwise Hamming distances.

A species is the set of population members sharing one genotype.  Each
tracker counts its quantity once, from a population, and then consumes step
traces, so long runs maintain species sizes and distance histograms in O(mu)
per iteration that changes the population (O(1) for one that does not)
instead of O(mu^2) recomputation.
"""

from __future__ import annotations

from collections import Counter

from .core import Genotype
from .ga import IntegrityError, Population, StepTrace


class SpeciesTracker:
    """Incrementally maintained species sizes with O(1) largest-species updates.

    Keeps a histogram of class sizes so the maximum can be maintained under
    single add/remove updates without scanning (the largest size moves by at
    most one per applied step).
    """

    def __init__(self, pop: Population):
        self.counts: dict[Genotype, int] = dict(Counter(pop.members))
        self._size_hist: dict[int, int] = dict(Counter(self.counts.values()))
        self.largest: int = max(self.counts.values())
        self._mu = len(pop.members)

    def apply(self, trace: StepTrace) -> None:
        if trace.removed_index == self._mu:
            return  # offspring itself was removed; multiset unchanged
        counts = self.counts
        gone = trace.removed_genotype
        s = counts.get(gone, 0)
        if not s:
            raise IntegrityError(f"removal of absent genotype {gone}")
        new = trace.offspring
        if new == gone:
            return  # one copy replaced by an identical one
        hist = self._size_hist
        # Remove one copy of ``gone`` (class size s -> s-1) ...
        c = hist[s] - 1
        if c:
            hist[s] = c
        else:
            del hist[s]
            if s == self.largest:
                self.largest = s - 1
        if s > 1:
            counts[gone] = s - 1
            hist[s - 1] = hist.get(s - 1, 0) + 1
        else:
            del counts[gone]
        # ... then add one copy of ``new`` (class size a -> a+1).
        a = counts.get(new, 0)
        counts[new] = a + 1
        if a:
            c = hist[a] - 1
            if c:
                hist[a] = c
            else:
                del hist[a]
        hist[a + 1] = hist.get(a + 1, 0) + 1
        if a >= self.largest:
            self.largest = a + 1

    def count(self, g: Genotype) -> int:
        return self.counts.get(g, 0)

    def largest_class(self) -> Genotype:
        """A genotype of maximal count; ties resolved to the smallest packed bits."""
        return min((g for g, c in self.counts.items() if c == self.largest), key=lambda g: g.bits)


class PairwiseDistanceTracker:
    """Incrementally maintained pairwise-distance histogram.

    A step that changes the multiset costs O(mu); one that leaves it unchanged
    (offspring discarded, or a member replaced by an identical copy) costs O(1)
    and keeps the cached :meth:`frequencies` answer.
    """

    def __init__(self, pop: Population):
        members = self._members = [g.bits for g in pop.members]
        mu = len(members)
        if mu < 2:
            raise ValueError("need at least two members for pairwise distances")
        counts: dict[int, int] = {}
        for i in range(mu - 1):
            ai = members[i]
            for j in range(i + 1, mu):
                d = (ai ^ members[j]).bit_count()
                counts[d] = counts.get(d, 0) + 1
        self.counts = counts
        self.total_pairs = mu * (mu - 1) // 2
        # The last frequencies() answer and the distances it was asked for;
        # dropped by the next apply() that changes ``counts``.
        self._freq_distances: tuple[int, ...] | None = None
        self._freqs: tuple[float, ...] = ()

    def apply(self, trace: StepTrace) -> None:
        members = self._members
        r = trace.removed_index
        if r == len(members):
            return
        old = members[r]
        if old != trace.removed_genotype.bits:
            raise IntegrityError("trace removal index does not match tracked member")
        new = trace.offspring.bits
        if new == old:
            return  # one copy replaced by an identical one
        self._freq_distances = None
        counts = self.counts
        for idx, mbits in enumerate(members):
            if idx == r:
                continue
            d = (old ^ mbits).bit_count()
            c = counts[d] - 1
            if c:
                counts[d] = c
            else:
                del counts[d]
            d = (new ^ mbits).bit_count()
            counts[d] = counts.get(d, 0) + 1
        members[r] = new

    def frequencies(self, distances) -> tuple[float, ...]:
        """Share of pairs at each distance; the same tuple while the multiset is unchanged."""
        if distances != self._freq_distances:
            key = tuple(distances)
            tp = self.total_pairs
            self._freqs = tuple(self.counts.get(d, 0) / tp for d in key)
            self._freq_distances = key
        return self._freqs
