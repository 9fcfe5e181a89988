"""Population diversity measurement: species sizes and pairwise Hamming distances.

A species is the set of population members sharing one genotype.  Each
tracker counts its quantity once, from a population, and then consumes step
traces instead of recounting; ``apply`` returns whether the step changed the
multiset, so a caller acts only on steps that did.  A step that changes the
population costs O(1) for species sizes (O(species) when a copy leaves a
largest species) and O(species) for the distance histogram, which compares
the replaced and the new genotype with each species once, weighted by its
size; a step that leaves the multiset unchanged costs O(1).  The trackers
cache no answers: a caller that wants one object per unchanged stretch keeps
it itself.
"""

from __future__ import annotations

from collections import Counter

from .ga import IntegrityError, Population, StepTrace


class SpeciesTracker:
    """Incrementally maintained species sizes and the largest of them.

    ``counts`` maps each genotype to its number of copies.  A step that
    changes the multiset costs O(1), except when it takes a copy from a
    species of the largest size: then ``largest`` is rescanned in O(species),
    since that species may have been the only one of its size.
    """

    def __init__(self, pop: Population):
        self.counts: dict[int, int] = dict(Counter(pop.members))
        self.largest: int = max(self.counts.values())
        self._mu = len(pop.members)

    def apply(self, trace: StepTrace) -> bool:
        """Apply one step; True if it changed the multiset."""
        if trace.removed_index == self._mu:
            return False  # offspring itself was removed
        counts = self.counts
        gone = trace.removed_genotype
        s = counts.get(gone, 0)
        if not s:
            raise IntegrityError(f"removal of absent genotype {gone}")
        new = trace.offspring
        if new == gone:
            return False  # one copy replaced by an identical one
        if s > 1:
            counts[gone] = s - 1
        else:
            del counts[gone]
        a = counts.get(new, 0) + 1
        counts[new] = a
        if a > self.largest:
            self.largest = a
        elif s == self.largest:
            self.largest = max(counts.values())
        return True

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
    member replaced by an identical copy) costs O(1).  :meth:`frequencies`
    computes a fresh tuple in O(len(distances)) on every call.  ``_members``
    keeps the members in population order, so each trace's removal index is
    checked against the member it names.
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

    def apply(self, trace: StepTrace) -> bool:
        """Apply one step; True if it changed the multiset."""
        members = self._members
        r = trace.removed_index
        if r == len(members):
            return False
        old = members[r]
        if old != trace.removed_genotype:
            raise IntegrityError("trace removal index does not match tracked member")
        new = trace.offspring
        if new == old:
            return False  # one copy replaced by an identical one
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
        return True

    def frequencies(self, distances) -> tuple[float, ...]:
        """Share of pairs at each distance in ``distances``."""
        counts = self.counts
        tp = self.total_pairs
        return tuple(counts.get(d, 0) / tp for d in distances)
