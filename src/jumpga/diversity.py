"""Population diversity measurement: species sizes and pairwise Hamming distances.

A species is the set of population members sharing one genotype.  Each
tracker counts its quantity once, from a population, and then consumes step
traces instead of recounting.  A step that changes the population costs O(1)
for species sizes and O(species) for the distance histogram, which compares
the replaced and the new genotype with each species once, weighted by its
size; a step that leaves the multiset unchanged costs O(1).
"""

from __future__ import annotations

from collections import Counter

from .ga import IntegrityError, Population, StepTrace


class SpeciesTracker:
    """Incrementally maintained species sizes with O(1) largest-species updates.

    Keeps a histogram of class sizes so the maximum can be maintained under
    single add/remove updates without scanning (the largest size moves by at
    most one per applied step).
    """

    def __init__(self, pop: Population):
        self.counts: dict[int, int] = dict(Counter(pop.members))
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

    def count(self, g: int) -> int:
        return self.counts.get(g, 0)

    def largest_class(self) -> int:
        """A genotype of maximal count; ties resolved to the smallest packed bits."""
        return min(g for g, c in self.counts.items() if c == self.largest)


class PairwiseDistanceTracker:
    """Incrementally maintained pairwise-distance histogram.

    Members are grouped by genotype: ``_species`` maps each genotype to its
    number of copies.  The c copies of one genotype form c(c-1)/2 pairs at
    distance 0, and two genotypes with c_g and c_h copies form c_g*c_h pairs at
    their distance, so building the histogram costs O(species^2) and a step
    that changes the multiset costs O(species): the pairs of the replaced
    genotype with each remaining species move to their distance from the new
    one.  A step that leaves the multiset unchanged (offspring discarded, or a
    member replaced by an identical copy) costs O(1) and keeps the cached
    :meth:`frequencies` answer.  ``_members`` keeps the members in population
    order, so each trace's removal index is checked against the member it
    names.
    """

    def __init__(self, pop: Population):
        members = self._members = list(pop.members)
        mu = len(members)
        if mu < 2:
            raise ValueError("need at least two members for pairwise distances")
        species = self._species = dict(Counter(members))
        groups = list(species.items())
        same = sum(c * (c - 1) // 2 for _, c in groups)
        counts: dict[int, int] = {0: same} if same else {}
        for i, (a, ca) in enumerate(groups):
            for b, cb in groups[i + 1 :]:
                d = (a ^ b).bit_count()
                counts[d] = counts.get(d, 0) + ca * cb
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
        if old != trace.removed_genotype:
            raise IntegrityError("trace removal index does not match tracked member")
        new = trace.offspring
        if new == old:
            return  # one copy replaced by an identical one
        self._freq_distances = None
        members[r] = new
        species = self._species
        c = species[old] - 1
        if c:
            species[old] = c
        else:
            del species[old]
        counts = self.counts
        for g, copies in species.items():
            d = (old ^ g).bit_count()
            e = (new ^ g).bit_count()
            if d != e:
                left = counts[d] - copies
                if left:
                    counts[d] = left
                else:
                    del counts[d]
                counts[e] = counts.get(e, 0) + copies
        species[new] = species.get(new, 0) + 1

    def frequencies(self, distances) -> tuple[float, ...]:
        """Share of pairs at each distance; the same tuple while the multiset is unchanged."""
        if distances != self._freq_distances:
            key = tuple(distances)
            tp = self.total_pairs
            self._freqs = tuple(self.counts.get(d, 0) / tp for d in key)
            self._freq_distances = key
        return self._freqs
