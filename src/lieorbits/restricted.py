"""Restricted root systems with multiplicities, built as Araki states them.

Restricted roots stay in the ambient simple-root coordinates, inside the
tau*-fixed subspace, and are stored doubled: 2 r(alpha) = alpha + tau* alpha
is an integer vector, since tau* permutes the root lattice.  It is counted
for every positive root at once, as packed ints in the root system's own
format (`RootSystem.pack`), and kept so: each root's key plus the key of
its image, which the involution's checks carried along the closure's
spanning tree and kept (`SatakeInvolution.root_images`), so this module
carries nothing over the roots itself.
Every quantity used is a ratio of inner products of the integer-scaled Gram
form (`RootSystem.simple_pairings`), so the doubling and the scaling cancel;
`elements` is the one `Fraction` view.

The restriction is linear, so r(-alpha) = -r(alpha): a `RestrictedRootSystem`
keeps the positive half, unsorted, as `keys`, all that `describe` reads.  A
root is looked up there by its key: 2s for a simple root s, and r(phi).
The sorted views are for `verify`, which reads each once per entry, and
they share one sort: `sorted_keys`, kept once built, in the coordinate
order.  The signed view `signed` adds the negatives on the keys
themselves, -key for -xi, since `pack` is linear, with no decode, and is
built on every read without a sort, since the negative roots sort first
and negation reverses their order.  No view keeps a decoded root: a reader
that needs coordinates decodes `sorted_keys` with `RootSystem.unpack` or
`signed` with `RootSystem.unpack_signed`, one key at a time, as
`positive_norms` and `elements` do.  The pairing row of r(phi),
`highest_pairings`, is kept once built, as `RootSystem.highest_pairings`
is phi's: the direct diagram, `parity_criterion` and `verify` read the one
row.

Nothing is searched for.  The simple restricted roots are the distinct images
s of the white simple roots, and the reduced system's simple roots are those
s, or 2s where 2s is a root (`reduced_simple`), found once per entry: the
construction classifies them and keeps them as the record's view
`RestrictedRootSystem.reduced_simple`, which a record built otherwise, by
`_replace` say, reads off its own fields.  The type is read off the
Dynkin diagram of their Cartan matrix (`rootsys.read_cartan_type`, which
reads each distinct matrix once per process), and
`parity_criterion` pairs the highest root with their
coroots only: every coroot is an integer combination of theirs, since
xi^v = 2 (2 xi)^v.  The searches that reach the same answers, over the
reduced positive roots and over every pairing, run as `verify` checks.

`restricted_cartan` pairs the simple roots over their nonzero coordinates,
summing each product into a plain dict per row.
Where one side of an inner product is fixed, the other side is paired with
one `RootSystem.simple_pairings` row of it: the simple roots in
`dominant_longest`, a reflection ascent from one longest root that pairs the
root it reached with one row per simple root at each step, and checks each
step on the keys.
The norm table of the positive roots (`positive_norms`), which decodes
`sorted_keys`, is built only for `verify`, which picks the ascent's start
off it and scans every norm in its parity scan, paired through the kept
row of the highest root; `parity_criterion` pairs the r reduced simple roots
with that row and each with its own, and builds neither.  Each norm is the
type's quadratic form (`RootSystem.norm_form`) on the root: its diagonal and
chain as C-level passes, and one product per branch edge of D or E.  A
pairing row costs what the vector's support does:
`RootSystem.simple_pairings` walks only its nonzero coordinates.
`verify` adds and subtracts the keys: their digits are at most 12, so no
sum or difference carries, and sorted they follow the coordinate order.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, compress
from operator import add, mul, neg, sub

from .errors import InconsistentDiagram, UnrecognizedSystem
from .rootsys import RootSystem, cached, read_cartan_type, simple_coord
from .satake import SatakeDiagram, SatakeInvolution

IntVector = tuple[int, ...]


class TypeLabel(namedtuple("TypeLabel", "letter rank reduced")):
    """Classified type of a restricted root system."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"


def reduced_simple(rs: RootSystem, keys, simple) -> list[IntVector]:
    """Simple roots of the reduced system (Araki): each s, or 2s where the
    key of 2s, `rs.pack` being linear twice that of s, is in `keys`."""
    return [tuple(2 * x for x in s) if 2 * rs.pack(s) in keys else s for s in simple]


class RestrictedRootSystem(
    namedtuple("RestrictedRootSystem", "source keys doubled_simple doubled_highest highest_mult type_label")
):
    """Image of the root system under restriction, with multiplicities.

    Stored as doubled integer vectors 2 r(alpha): `keys` maps the key of
    each nonzero one of a positive root to its multiplicity, unsorted;
    `doubled_simple` follows the white nodes and, like `doubled_highest`, is
    paired as coordinates, so both stay tuples.  The view `sorted_keys`
    sorts `keys` once, and is the one sort the others are read off: the
    signed view `signed` (the keys and their negatives, sorted) is built
    anew on each read, without a sort, so only its readers pay for it:
    `verify` and `elements`, the one view that decodes, into `Fraction`
    vectors.  The view `highest_pairings` keeps the pairing row of
    `doubled_highest`.  The view `reduced_simple`
    is read off `keys` and `doubled_simple`, or kept by the construction,
    which found it.  Equality is identity, also against a plain tuple, as
    the `keys` Counter cannot be hashed.
    """

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__

    @cached
    def sorted_keys(self) -> tuple[int, ...]:
        """`keys` sorted, which is the coordinate order: the one sort of
        them, kept, that `signed`, `positive_norms` and `verify` read."""
        return tuple(sorted(self.keys))

    @property
    def signed(self) -> dict[int, int]:
        """Every doubled root's key and its multiplicity, sorted: the sorted
        keys, with the negative roots first as -key, since `pack` is linear
        (`RootSystem.unpack_signed` decodes one).  Built on each read from
        `sorted_keys`, with no decode."""
        keys = self.sorted_keys
        mults = list(map(self.keys.__getitem__, keys))
        return dict(zip(chain(map(neg, reversed(keys)), keys), chain(reversed(mults), mults)))

    @cached
    def highest_pairings(self) -> tuple[int, ...]:
        """gram_scale * <a_i, 2 r(phi)> for every node i, kept: the pairing
        row of `doubled_highest`, as `RootSystem.highest_pairings` is phi's."""
        return self.source.rs.simple_pairings(self.doubled_highest)

    @cached
    def reduced_simple(self) -> list[IntVector]:
        """The reduced system's simple roots, doubled (`reduced_simple`),
        read off the fields; the construction keeps the list it classified."""
        return reduced_simple(self.source.rs, self.keys, self.doubled_simple)

    @cached
    def elements(self) -> tuple[tuple, ...]:
        """The restricted roots r(alpha) as `Fraction` vectors, sorted: the
        signed view decoded and halved."""
        from fractions import Fraction

        return tuple(tuple(Fraction(x, 2) for x in d) for d in map(self.source.rs.unpack_signed, self.signed))


def build_restricted(sd: SatakeDiagram, inv: SatakeInvolution) -> RestrictedRootSystem:
    """The restricted root system of `sd` through its checked involution
    `inv` (`satake.checked_involution`), kept nowhere."""
    rs = sd.rs
    n = rs.rank

    # the involution passed its checks, which kept tau* of every positive root
    # packed in the system's format, and tau* keeps the positive roots outside
    # the black span positive: each alpha + tau* alpha has digits 0..12
    keys = Counter(map(add, rs.positive_keys, inv.root_images))
    keys.pop(0, None)
    if not keys:
        raise InconsistentDiagram(f"{sd.name}: every root restricts to zero (compact-form diagram)")
    if min(keys) < 0:
        raise InconsistentDiagram(f"{sd.name}: restriction of the positive system is not positive")

    cols = inv.columns
    simple_images: list[IntVector] = []
    for w in sd.white:
        # a_w + tau* a_w = a_w - theta* a_w
        image = tuple(map(sub, simple_coord(n, w), cols[w]))
        if any(image) and image not in simple_images:
            simple_images.append(image)
    highest = tuple(map(add, rs.highest, inv.tau_image(rs.highest)))

    simple_reduced = reduced_simple(rs, keys, simple_images)
    label = _classify(rs, simple_reduced, simple_images, sd.name)
    lam = rs.pack(highest)
    if lam not in keys:
        raise InconsistentDiagram(f"{sd.name}: r(phi) is not a restricted root")
    rrs = RestrictedRootSystem(
        source=sd,
        keys=keys,
        doubled_simple=tuple(simple_images),
        doubled_highest=highest,
        highest_mult=keys[lam],
        type_label=label,
    )
    rrs.reduced_simple = simple_reduced
    return rrs


def restricted_cartan(rs: RootSystem, simple: list[IntVector], name: str) -> tuple[tuple[int, ...], ...]:
    """2<s_i, s_j>/<s_j, s_j> for the doubled simple roots.  Each has one to a few nonzero
    coordinates, so only pairs that meet through a sparse Gram row are multiplied."""
    holders: list[list[tuple[int, int]]] = [[] for _ in range(rs.rank)]
    for j, s in enumerate(simple):
        for k in compress(range(rs.rank), s):
            holders[k].append((j, s[k]))
    # rows[i][j] = gram_scale <s_i, s_j> wherever it may be nonzero
    rows: list[dict[int, int]] = [{} for _ in simple]
    for k, held in enumerate(holders):
        if not held:
            continue
        for m, g in rs.gram_support[k]:
            others = holders[m]
            if not others:
                continue
            for i, c in held:
                row, cg = rows[i], c * g
                for j, d in others:
                    row[j] = row.get(j, 0) + cg * d
    cbar = [[0] * len(simple) for _ in simple]
    for i, row in enumerate(rows):
        for j in sorted(row):
            num, den = 2 * row[j], rows[j][j]
            if num % den or (i != j and num > 0) or (i == j and num != 2 * den):
                from fractions import Fraction

                raise UnrecognizedSystem(f"{name}: restricted Cartan entry {Fraction(num, den)} at ({i},{j})")
            cbar[i][j] = num // den
    return tuple(map(tuple, cbar))


def _classify(rs: RootSystem, simple_reduced: list[IntVector], simple_images: list[IntVector], name: str) -> TypeLabel:
    """Type of the restricted system from its reduced simple roots; every
    vector argument is doubled.  A rank-2 double bond reads as B2 or C2 by
    the order of the white nodes."""
    rank = len(simple_reduced)
    found = read_cartan_type(restricted_cartan(rs, simple_reduced, name))
    if found is None:
        raise UnrecognizedSystem(f"{name}: restricted Cartan matrix matches no classified type")
    if simple_reduced != simple_images:
        return TypeLabel("BC", rank, False)
    return TypeLabel(found[0].letter, rank, True)


def is_C_or_BC(rrs: RestrictedRootSystem) -> bool:
    """True for C_r/BC_r, counting A1 as C1 and B2 as C2."""
    label = rrs.type_label
    if label.letter in ("C", "BC"):
        return True
    return (label.letter == "A" and label.rank == 1) or (label.letter == "B" and label.rank == 2)


def odd_pairing(rrs: RestrictedRootSystem, pairings) -> bool:
    """Whether some pairing 2<xi, lambda>/<xi, xi> against the highest root,
    given as a (numerator, denominator) pair of integers, is odd."""
    for num, den in pairings:
        if num % den:
            from fractions import Fraction

            raise UnrecognizedSystem(f"non-integral pairing {Fraction(num, den)} in {rrs.source.name}")
        if (num // den) % 2:
            return True
    return False


def parity_criterion(rrs: RestrictedRootSystem) -> bool:
    """Whether some restricted root pairs oddly against the highest root; the
    reduced system's r simple coroots span every coroot, so they decide."""
    rs = rrs.source.rs
    lam_row = rrs.highest_pairings
    pairings = ((2 * sum(map(mul, xi, lam_row)), sum(map(mul, xi, rs.simple_pairings(xi)))) for xi in rrs.reduced_simple)
    return odd_pairing(rrs, pairings)


def positive_norms(rrs: RestrictedRootSystem) -> dict[IntVector, int]:
    """gram_scale * <xi, xi> for every positive doubled root xi, in order,
    each decoded from `sorted_keys` and put through the type's quadratic
    form (`RootSystem.norm_form`): a few C-level passes over xi and one
    product per branch edge."""
    norms = {}
    rs = rrs.source.rs
    diagonal, chain, branches = rs.norm_form
    for xi in map(rs.unpack, rrs.sorted_keys):
        norm = sum(map(mul, map(mul, xi, xi), diagonal)) + sum(map(mul, map(mul, xi, xi[1:]), chain))
        for i, j, g in branches:
            norm += g * xi[i] * xi[j]
        norms[xi] = norm
    return norms


def dominant_longest(rrs: RestrictedRootSystem, norms: dict[IntVector, int]) -> IntVector:
    """The dominant restricted root of maximal squared length, doubled, by a
    reflection ascent (Humphreys 13.2).

    Independent route to the highest root; construction uses r(phi).  The
    ascent starts at the last longest root of `norms` (`positive_norms(rrs)`,
    in key order: the greatest key), and while some doubled simple root eta
    pairs negatively with xi it sets xi to s_eta xi = xi - c eta, with
    c = 2<xi, eta>/<eta, eta> a negative integer.  Each eta is paired through
    its own row, its norm included.  A step adds -c key(eta) to the key, which
    must rise and stay among the restricted roots' `keys`, so the ascent ends
    at the one dominant root of the longest roots' W-orbit; a step that does
    not, or a c that is no integer, is an `InconsistentDiagram`.  On a sound
    system the greatest key is the highest root's, which is dominant, so
    the ascent takes no step; from `dict(reversed(norms.items()))` it starts
    at the least longest root and climbs.
    """
    rs = rrs.source.rs
    max_len = max(norms.values())
    xi = next(compress(reversed(norms), map(max_len.__eq__, reversed(norms.values()))))
    key = rs.pack(xi)
    simple = []
    for eta in rrs.doubled_simple:
        row = rs.simple_pairings(eta)
        simple.append((eta, row, sum(map(mul, eta, row)), rs.pack(eta)))
    while True:
        for eta, row, norm, step in simple:
            pairing = sum(map(mul, xi, row))
            if pairing < 0:
                break
        else:
            return xi
        c, rest = divmod(2 * pairing, norm)
        if rest:
            raise InconsistentDiagram(f"{rrs.source.name}: reflecting {xi} in {eta} is not integral")
        raised = key - c * step
        if raised <= key or raised not in rrs.keys:
            raise InconsistentDiagram(f"{rrs.source.name}: reflecting {xi} in {eta} gives no higher restricted root")
        key = raised
        xi = tuple(map(sub, xi, map(c.__mul__, eta)))

