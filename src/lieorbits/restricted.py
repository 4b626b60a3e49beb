"""Restricted root systems with multiplicities.

Restricted roots are kept in the ambient simple-root coordinates (inside the
tau*-fixed subspace) rather than in a separately chosen basis of the split
part, so the Gram form restricts and every equality or pairing test stays
exact.

tau* permutes the root lattice, so every restricted root is stored doubled,
as the integer vector 2 r(alpha) = alpha + tau* alpha.  Classification, the
parity criterion and the dominance test all run on these vectors, with inner
products from the integer-scaled Gram form (`RootSystem.scaled_inner`); every
quantity they need is a ratio of inner products, so the doubling and the
scaling cancel.  The `Fraction` fields of the public API (`elements`,
`multiplicities`, `positives`, `simple`, `highest`) are views built from the
doubled vectors on first use.

The simple restricted roots are the indecomposable reduced positive roots.
Each is anchored to the restriction of a white simple root (Araki), and every
decomposable root splits off one of those restrictions or its double, so the
indecomposability test tries those witnesses first and scans every positive
root only for the few roots none of them decomposes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import sub

from .errors import InconsistentDiagram, UnrecognizedSystem
from .ratmat import Vector
from .rootsys import RootSystem, SimpleType, candidate_types, cartan_matrix, find_cartan_isomorphism, simple_coord
from .satake import SatakeDiagram, satake_involution

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class TypeLabel:
    """Classified type of a restricted root system."""

    letter: str
    rank: int
    reduced: bool

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"


def restrict(sd: SatakeDiagram, v) -> Vector:
    """Project onto the tau*-fixed subspace: r(v) = (v + tau* v)/2."""
    image = satake_involution(sd).tau_image(v)
    return tuple(Fraction(a + b, 2) for a, b in zip(v, image))


def _halved(v: IntVector) -> Vector:
    return tuple(Fraction(x, 2) for x in v)


def _twice(v: IntVector) -> IntVector:
    return tuple(2 * x for x in v)


@dataclass(frozen=True, eq=False)
class RestrictedRootSystem:
    """Image of the root system under restriction, with multiplicities.

    Stored as doubled integer vectors 2 r(alpha): `doubled` maps each nonzero
    one to its multiplicity in sorted order, `doubled_positives` is sorted and
    `doubled_simple` follows the white nodes.
    """

    source: SatakeDiagram
    doubled: dict[IntVector, int]
    doubled_positives: tuple[IntVector, ...]
    doubled_simple: tuple[IntVector, ...]
    doubled_highest: IntVector
    highest_mult: int
    type_label: TypeLabel

    @cached_property
    def multiplicities(self) -> tuple[tuple[Vector, int], ...]:
        return tuple((_halved(d), m) for d, m in self.doubled.items())

    @cached_property
    def elements(self) -> tuple[Vector, ...]:
        return tuple(xi for xi, _ in self.multiplicities)

    @cached_property
    def positives(self) -> tuple[Vector, ...]:
        return tuple(_halved(d) for d in self.doubled_positives)

    @cached_property
    def simple(self) -> tuple[Vector, ...]:
        return tuple(_halved(d) for d in self.doubled_simple)

    @cached_property
    def highest(self) -> Vector:
        return _halved(self.doubled_highest)


@lru_cache(maxsize=None)
def restricted_root_system(sd: SatakeDiagram) -> RestrictedRootSystem:
    """Restricted roots {r(alpha)} \\ {0} with mult(xi) = #{alpha : r(alpha) = xi}."""
    rs = sd.rs
    n = rs.rank
    tau_cols = satake_involution(sd).tau_columns

    def doubled(root: IntVector) -> IntVector:
        out = list(root)
        for j, c in enumerate(root):
            if c:
                for i, x in tau_cols[j]:
                    out[i] += c * x
        return tuple(out)

    # the map is linear and the negative roots are the negated positive ones
    images = [doubled(root) for root in rs.positive_roots]
    counts: Counter[IntVector] = Counter()
    for image in images:
        if any(image):
            counts[image] += 1
            counts[tuple(-x for x in image)] += 1
    if not counts:
        raise InconsistentDiagram(f"{sd.name}: every root restricts to zero (compact-form diagram)")

    doubled_pos = set(images)
    doubled_pos.discard((0,) * n)
    if any(tuple(-x for x in v) in doubled_pos for v in doubled_pos):
        raise InconsistentDiagram(f"{sd.name}: restriction of the positive system is not positive")
    positives = sorted(doubled_pos)

    simple_images: list[IntVector] = []
    for i in sd.white:
        image = doubled(simple_coord(n, i))
        if any(image) and image not in simple_images:
            simple_images.append(image)

    highest = doubled(rs.highest)
    label = _classify(rs, counts, positives, simple_images, sd.name)
    if highest not in counts:
        raise InconsistentDiagram(f"{sd.name}: r(phi) is not a restricted root")
    return RestrictedRootSystem(
        source=sd,
        doubled=dict(sorted(counts.items())),
        doubled_positives=tuple(positives),
        doubled_simple=tuple(simple_images),
        doubled_highest=highest,
        highest_mult=counts[highest],
        type_label=label,
    )


def _classify(rs: RootSystem, element_set, positives, simple_images, name: str) -> TypeLabel:
    """Type of the restricted system; every vector argument is doubled."""
    non_reduced = any(_twice(d) in element_set for d in element_set)
    reduced_pos = [d for d in positives if _twice(d) not in element_set]
    reduced_set = set(reduced_pos)
    witnesses = [w for image in simple_images for w in (image, _twice(image)) if w in reduced_set]

    def splits(xi: IntVector, candidates) -> bool:
        return any(eta != xi and tuple(map(sub, xi, eta)) in reduced_set for eta in candidates)

    # the witnesses are reduced positive roots, so the full scan decides
    # exactly the roots they leave undecided
    indecomposable = [xi for xi in reduced_pos if not splits(xi, witnesses) and not splits(xi, reduced_pos)]

    def anchor(xi: IntVector) -> int:
        for pos, image in enumerate(simple_images):
            if xi == image or xi == _twice(image):
                return pos
        raise UnrecognizedSystem(f"{name}: reduced simple root {_halved(xi)} has no simple-image anchor")

    simple_reduced = sorted(indecomposable, key=anchor)
    rank = len(simple_reduced)
    if rank != len(simple_images):
        raise UnrecognizedSystem(f"{name}: {rank} indecomposables vs {len(simple_images)} simple images")

    def cartan_entry(i: int, j: int) -> int:
        num = 2 * rs.scaled_inner(simple_reduced[i], simple_reduced[j])
        den = rs.scaled_inner(simple_reduced[j], simple_reduced[j])
        if num % den or (i != j and num > 0) or (i == j and num != 2 * den):
            raise UnrecognizedSystem(f"{name}: restricted Cartan entry {Fraction(num, den)} at ({i},{j})")
        return num // den

    cbar = tuple(tuple(cartan_entry(i, j) for j in range(rank)) for i in range(rank))

    matches = [t for t in candidate_types(rank) if find_cartan_isomorphism(cbar, cartan_matrix(t)) is not None]
    if not matches:
        raise UnrecognizedSystem(f"{name}: restricted Cartan matrix matches no classified type")
    if len(matches) == 1:
        letter = matches[0].letter
    else:
        # rank-2 double edge: B2 and C2 are isomorphic; label by source order
        if set(m.letter for m in matches) != {"B", "C"}:
            raise UnrecognizedSystem(f"{name}: ambiguous restricted type {[m.name for m in matches]}")
        letter = "B" if cbar == cartan_matrix(SimpleType("B", rank)) else "C"
    if non_reduced:
        return TypeLabel("BC", rank, False)
    return TypeLabel(letter, rank, True)


def is_C_or_BC(rrs: RestrictedRootSystem) -> bool:
    """True for C_r/BC_r, counting A1 as C1 and B2 as C2."""
    label = rrs.type_label
    if label.letter in ("C", "BC"):
        return True
    return (label.letter == "A" and label.rank == 1) or (label.letter == "B" and label.rank == 2)


def parity_criterion(rrs: RestrictedRootSystem) -> bool:
    """Whether some restricted root pairs oddly against the highest root."""
    rs = rrs.source.rs
    lam = rrs.doubled_highest
    for xi in rrs.doubled:
        num, den = 2 * rs.scaled_inner(xi, lam), rs.scaled_inner(xi, xi)
        if num % den:
            raise UnrecognizedSystem(f"non-integral pairing {Fraction(num, den)} in {rrs.source.name}")
        if (num // den) % 2:
            return True
    return False


def dominant_longest(rrs: RestrictedRootSystem) -> IntVector:
    """The unique dominant restricted root of maximal squared length, doubled.

    Independent route to the highest root; construction uses r(phi).  Every
    positive restricted root is a nonnegative combination of the simple
    restricted roots, so dominance is tested against those alone.
    """
    rs = rrs.source.rs
    norms = {xi: rs.scaled_inner(xi, xi) for xi in rrs.doubled}
    max_len = max(norms.values())
    longest = [xi for xi, norm in norms.items() if norm == max_len]
    dominant = [xi for xi in longest if all(rs.scaled_inner(s, xi) >= 0 for s in rrs.doubled_simple)]
    if len(dominant) != 1:
        raise InconsistentDiagram(f"{rrs.source.name}: {len(dominant)} dominant longest restricted roots")
    return dominant[0]


def is_hermitian(sd: SatakeDiagram) -> bool:
    """Hermitian symmetric real form: dim g_lambda = 1 and restricted type C/BC."""
    rrs = restricted_root_system(sd)
    return rrs.highest_mult == 1 and is_C_or_BC(rrs)
