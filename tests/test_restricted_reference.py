"""The restricted layer against a brute-force reference written here.

The reference recomputes each restricted system in `Fraction` coordinates
through the projection r(v) = (v + tau* v)/2 written here on
`SatakeInvolution.tau_image`, finds simple roots by the O(P^2) search for
indecomposable positive roots, names the type from root counts
and lengths, and tests dominance against every positive restricted root.
None of it shares the package's doubled-integer code path.
"""

from collections import Counter
from fractions import Fraction
from operator import sub

import pytest
from test_column_kernels import decoded_doubled, decoded_positives

from lieorbits.orbits import restricted_root_system, satake_involution
from lieorbits.restricted import dominant_longest, parity_criterion
from lieorbits.satake import build_satake, catalog, parse_form_name

EXTRA_FORMS = ["sl(12,R)", "su(5,7)", "so(4,9)", "sp(10,R)"]
FORMS = [sd.name for sd in catalog(8)] + EXTRA_FORMS

# number of roots of each reduced irreducible type, by rank
ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}.get(r),
    "F": lambda r: 48 if r == 4 else None,
    "G": lambda r: 12 if r == 2 else None,
}


def as_vector(values):
    return tuple(map(Fraction, values))


def twice(v):
    return tuple(2 * x for x in v)


def restrict(sd, v):
    """r(v) = (v + tau* v)/2, the projection onto the tau*-fixed subspace."""
    image = satake_involution(sd).tau_image(v)
    return tuple(Fraction(a + b, 2) for a, b in zip(v, image))


def indecomposables(positives):
    pos_set = set(positives)
    return [xi for xi in positives if not any(eta != xi and tuple(map(sub, xi, eta)) in pos_set for eta in positives)]


def reference(sd):
    rs = sd.rs

    def inner(v, w):
        """<v, w> from the integer multiple of the Gram form that the package keeps."""
        return Fraction(rs.scaled_inner(v, w)) / rs.gram_scale

    counts = Counter(restrict(sd, root) for root in rs.roots)
    counts.pop(as_vector((0,) * rs.rank), None)
    elements = sorted(counts)
    positives = sorted({restrict(sd, root) for root in rs.positive_roots} - {as_vector((0,) * rs.rank)})
    element_set = set(elements)

    reduced = [xi for xi in elements if twice(xi) not in element_set]
    reduced_pos = [xi for xi in positives if twice(xi) not in element_set]
    simple = indecomposables(positives)
    simple_reduced = indecomposables(reduced_pos)
    rank = len(simple_reduced)
    norms = [inner(xi, xi) for xi in reduced]
    long_count = norms.count(max(norms))
    simply_laced = len(set(norms)) == 1
    letters = {
        t
        for t, count in ROOT_COUNTS.items()
        if count(rank) == len(reduced) and (t in "ADE") == simply_laced and not (t == "D" and rank < 4)
    }
    if len(reduced) != len(elements):
        letter = "BC"
    elif rank == 1:
        letter = "A"
    elif letters == {"B", "C"} and rank == 2:
        # B2 and C2 coincide; the source node order names them: B2 when the
        # simple root on the first white node is the long one, as in Bourbaki
        images = [restrict(sd, tuple(int(k == i) for k in range(rs.rank))) for i in sd.white]
        first = min(simple_reduced, key=lambda xi: next(k for k, im in enumerate(images) if xi in (im, twice(im))))
        letter = "B" if inner(first, first) == max(norms) else "C"
    elif letters == {"B", "C"}:
        # B_r has 2r short roots, C_r has 2r long ones
        letter = "C" if long_count == 2 * rank else "B"
    else:
        (letter,) = letters

    lam = restrict(sd, rs.highest)
    pairings = [2 * inner(lam, xi) / inner(xi, xi) for xi in elements]
    assert all(p.denominator == 1 for p in pairings)
    parity = any(p.numerator % 2 for p in pairings)

    max_norm = max(inner(xi, xi) for xi in elements)
    dominant = [
        xi for xi in elements if inner(xi, xi) == max_norm and all(inner(xi, eta) >= 0 for eta in positives)
    ]
    return {
        "counts": counts,
        "elements": elements,
        "positives": positives,
        "highest": lam,
        "simple": simple,
        "type": (letter, rank, letter != "BC"),
        "parity": parity,
        "dominant": dominant,
    }


@pytest.mark.parametrize("name", FORMS)
def test_restricted_layer_matches_brute_force(name):
    sd = build_satake(parse_form_name(name))
    r = restricted_root_system(sd)
    ref = reference(sd)

    assert r.elements == tuple(ref["elements"])
    assert decoded_doubled(r) == {twice(xi): m for xi, m in ref["counts"].items()}
    assert decoded_positives(r) == tuple(twice(xi) for xi in ref["positives"])
    assert r.doubled_highest == twice(ref["highest"])
    assert r.highest_mult == ref["counts"][ref["highest"]]
    simple = [twice(xi) for xi in ref["simple"]]
    assert sorted(r.doubled_simple) == sorted(simple) and len(r.doubled_simple) == len(simple)
    label = r.type_label
    assert (label.letter, label.rank, label.reduced) == ref["type"]
    assert parity_criterion(r) == ref["parity"]
    assert len(ref["dominant"]) == 1
    assert dominant_longest(r) == twice(ref["dominant"][0])


def test_doubled_storage_is_twice_the_views():
    sd = build_satake(parse_form_name("su(2,3)"))
    r = restricted_root_system(sd)
    ref = reference(sd)
    assert [twice(xi) for xi in r.elements] == [as_vector(d) for d in decoded_doubled(r)]
    assert [twice(xi) for xi in ref["positives"]] == [as_vector(d) for d in decoded_positives(r)]
    images = [restrict(sd, tuple(int(k == i) for k in range(sd.rs.rank))) for i in sd.white]
    assert [twice(xi) for xi in dict.fromkeys(images) if any(xi)] == [as_vector(d) for d in r.doubled_simple]
    assert twice(ref["highest"]) == as_vector(r.doubled_highest)
    assert all(type(x) is int for d in decoded_doubled(r) for x in d)
    assert ref["highest"] == (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
