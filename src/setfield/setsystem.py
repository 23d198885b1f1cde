"""Finite sets of sets, downward closures, stars, cores and duals.

Elements are nonempty frozensets of positive integer vertices kept in an
explicit stable order; most linear algebra downstream is order sensitive, so
the order is part of the data.  The canonical order sorts by (cardinality,
lexicographic vertex list), which makes conjugate(g).L upper triangular for
simplicial complexes.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re


class SetSystem:
    """Ordered collection of distinct nonempty finite integer sets."""

    __slots__ = ("elements", "vertex_union", "_index", "_star_rows", "_zeta")

    def __init__(self, elements):
        elems = []
        seen = set()
        for e in elements:
            f = frozenset(e)
            if not f:
                raise ValueError("set systems cannot contain the empty set")
            if any(not isinstance(v, int) or v <= 0 for v in f):
                raise ValueError("vertices must be positive integers: %r" % sorted(f))
            if f in seen:
                raise ValueError("duplicate element: %r" % sorted(f))
            seen.add(f)
            elems.append(f)
        self.elements = tuple(elems)
        self.vertex_union = frozenset().union(*elems) if elems else frozenset()
        self._index = {e: k for k, e in enumerate(elems)}
        self._star_rows = None
        self._zeta = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def __eq__(self, other):
        return isinstance(other, SetSystem) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return "SetSystem(%s)" % ", ".join(str(sorted(e)) for e in self.elements)

    def index_of(self, element) -> int:
        return self._index[frozenset(element)]

    @property
    def dimension(self) -> int:
        """max |x| - 1 over the elements (-1 for the empty system)."""
        if not self.elements:
            return -1
        return max(len(e) for e in self.elements) - 1

    def canonical(self) -> "SetSystem":
        return SetSystem(sorted(self.elements, key=_canonical_key))

    @property
    def star_rows(self) -> tuple[int, ...]:
        """The inclusion relation as bit rows: bit k of row i is set iff
        x_i <= x_k.

        Row i is the star of x_i, and bit i across the rows the core of x_i.
        x_i lies in x_k iff every vertex of x_i does, so row i is the AND,
        over the vertices of x_i, of the elements containing that vertex.
        Everything else that needs inclusion reads it from here.
        """
        if self._star_rows is None:
            containing = {}
            for k, e in enumerate(self.elements):
                for v in e:
                    containing[v] = containing.get(v, 0) | 1 << k
            self._star_rows = tuple(
                functools.reduce(operator.and_, map(containing.get, e))
                for e in self.elements)
        return self._star_rows

    @property
    def zeta(self):
        """Read-only 0/1 inclusion matrix (int64): Z[i, k] = 1 iff x_i <= x_k.

        The star rows unpacked: row i lists the star of x_i and column k the
        core of x_k.  In terms of Z, L = Z^T D_h Z.  numpy is imported here,
        on first use, so that the integer work needs none.
        """
        if self._zeta is None:
            import numpy as np

            n = len(self.elements)
            Z = np.array([[row >> k & 1 for k in range(n)]
                          for row in self.star_rows],
                         dtype=np.int64).reshape(n, n)
            Z.flags.writeable = False
            self._zeta = Z
        return self._zeta

    def is_canonical(self) -> bool:
        keys = [_canonical_key(e) for e in self.elements]
        return keys == sorted(keys)

    def reordered(self, order) -> "SetSystem":
        """Copy with elements permuted; `order` lists old indices in new positions."""
        if sorted(order) != list(range(len(self))):
            raise ValueError("order must be a permutation of element indices")
        return SetSystem(self.elements[k] for k in order)

    def is_simplicial_complex(self) -> bool:
        """True iff every nonempty subset of every element is present."""
        members = self._index
        for e in self.elements:
            for r in range(1, len(e)):
                for sub in itertools.combinations(e, r):
                    if frozenset(sub) not in members:
                        return False
        return True

    def core(self, x: int) -> list[int]:
        """Indices of all y contained in element x (x itself included)."""
        return [k for k, row in enumerate(self.star_rows) if row >> x & 1]

    def star(self, x: int) -> list[int]:
        """Indices of all y containing element x (x itself included)."""
        row = self.star_rows[x]
        return [k for k in range(len(self.elements)) if row >> k & 1]

    def complement_dual(self) -> "SetSystem":
        """Map every x to vertex_union minus x, preserving order; swaps star and core."""
        comps = []
        for k, e in enumerate(self.elements):
            c = self.vertex_union - e
            if not c:
                raise ValueError(
                    "element %d (%r) equals the vertex union; its complement is empty"
                    % (k, sorted(e)))
            comps.append(c)
        return SetSystem(comps)


def _canonical_key(e):
    return (len(e), sorted(e))


def generate(generators) -> SetSystem:
    """Downward closure: all nonempty subsets of the generators, canonically ordered."""
    out = set()
    for g in generators:
        s = sorted(set(g))
        if not s:
            raise ValueError("generators must be nonempty sets")
        for r in range(1, len(s) + 1):
            out.update(frozenset(c) for c in itertools.combinations(s, r))
    return SetSystem(sorted(out, key=_canonical_key))


def complete_complex(n: int) -> SetSystem:
    """The full simplex on vertices 1..n (all nonempty subsets)."""
    return generate([range(1, n + 1)])


def random_complex(rng, max_generators=5, max_vertices=8, max_cardinality=4,
                   min_dimension=0):
    """Random downward closure from a few small generators (seeded rng).

    Generator cardinalities are weighted toward small sets so element counts
    stay in the range where exact eliminations are cheap.
    """
    weights = {1: 2, 2: 4, 3: 3, 4: 1}
    sizes = [s for s in weights if s <= max_cardinality]
    wts = [weights[s] for s in sizes]
    while True:
        gens = []
        for _ in range(rng.randint(1, max_generators)):
            size = rng.choices(sizes, weights=wts)[0]
            gens.append(rng.sample(range(1, max_vertices + 1), size))
        system = generate(gens)
        if system.dimension >= min_dimension:
            return system


# ---------------------------------------------------------------------------
# text ingestion: JSON arrays of arrays, or brace notation {{1,2},{2,3}}

_BRACE_SET = re.compile(r"\{([^{}]*)\}")


def parse_system(text: str, closure: bool = False) -> SetSystem:
    """Parse one complex from text; `closure` generates the downward closure."""
    text = text.strip()
    if text.startswith("["):
        sets = json.loads(text)
        if not isinstance(sets, list) or not all(
                isinstance(s, list)
                and not any(isinstance(v, (list, dict)) for v in s)
                for s in sets):
            raise ValueError("JSON input must be an array of arrays of integers")
    elif text.startswith("{"):
        inner = text
        if text.startswith("{{") and text.endswith("}}"):
            inner = text[1:-1]
        sets = [[int(v) for v in m.group(1).split(",") if v.strip()]
                for m in _BRACE_SET.finditer(inner)]
        if not sets:
            raise ValueError("no sets found in brace notation: %r" % text)
    else:
        raise ValueError("expected JSON array or brace notation, got %r" % text[:40])
    sets = _relabel(sets)
    if closure:
        return generate(sets)
    return SetSystem(sets)


def _relabel(sets):
    """Map arbitrary vertex labels to positive integers (identity when already such)."""
    labels = set(itertools.chain.from_iterable(sets))
    if all(isinstance(v, int) and v > 0 for v in labels):
        return sets
    mapping = {v: k + 1 for k, v in enumerate(sorted(labels, key=str))}
    return [[mapping[v] for v in s] for s in sets]


def system_to_json(system: SetSystem) -> list[list[int]]:
    return [sorted(e) for e in system.elements]
