"""Satake diagrams of the non-compact real simple Lie algebras without
complex structure, and the exact involutions they induce on the root lattice.

The families are read off two tables.  `CLASSICAL_FAMILIES` has one row
per classical family: its name, `{}` where each parameter prints, its
complex rank as a formula in the parameters, and whether its one parameter
prints doubled (su*(2k), so*(2n)).  `EXCEPTIONAL_FAMILIES` has one row per
exceptional form: its name and its whole Satake diagram.  The canonical
name, the complex rank, the name grammar and the catalog's rank bound all
read them.  The classical diagrams stay code: each family's pattern and
its parameter bounds, in `_cached_satake` and `_build_so`, transcribed
from the standard classification, never per instance.  Every entry is
machine-checked against the involution invariants, so a mis-transcribed
pattern surfaces as a named diagnostic rather than silently wrong output.
Complex ranks above MAX_RANK are refused before any root system is built.

The involution theta* = -w0 p~ is stored as integer columns.  w0, the
longest element of the black Weyl group, is read off the closure: on a
white node it is the last positive root by height whose white digits are
that node's (`_build_involution`), and on a black one it is minus the
component's duality, so nothing is solved.  tau* = -theta* acts on one
vector through `SatakeInvolution.tau_image`, and on every positive root at
once through `tau_keys`, which packs each root and its image into one int,
the images carried along the closure's spanning tree, one addition per
root, and the root checks look those keys up; an involution that passes
them keeps the images for the restriction (`SatakeInvolution.root_images`).
The invariants run on the nonzero entries of tau*'s columns
(`SatakeInvolution.tau_columns`, built once per involution and read by the
restriction too), theta*^2 = tau*^2 = I included: `checked_involution`
builds and checks the involution, raising InconsistentDiagram with the
failed checks, the structural ones first, and keeps it nowhere.  Those
refuse a root system that is not a `RootSystem`, a `black` that is not a
frozenset of ints and `arrows` that are not a tuple of int pairs, so no
later check reads a malformed field.

Node indices are 0-based Bourbaki positions.  The name grammar (parsed
case-insensitively, no spaces):

    sl(<n>,R)  su*(<2k>)  su(<p>,<q>)  so(<p>,<q>)  so*(<2n>)  sp(<n>,R)
    sp(<p>,<q>)  g2(2)  f4(4)  f4(-20)  e6(6)  e6(2)  e6(-14)  e6(-26)
    e7(7)  e7(-5)  e7(-25)  e8(8)  e8(-24)

An exceptional name is looked up whole.  A classical one is read as the
text between its digit runs, which picks the family's row, and the runs,
which are the parameters: su*(m) and so*(m) need an even m, and (p,q) is
sorted to p <= q.

A catalog of rank r lists every descriptor whose complex rank is at most
r, each family from its least parameters, and builds only those.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import compress, count
from operator import getitem, itemgetter, neg, not_, sub

from .errors import FormNameError, InconsistentDiagram, OutOfRangeParams
from .ratmat import matrix_rank
from .rootsys import (
    RootSystem,
    SimpleType,
    build_root_system,
    cached,
    duality_permutation,
    read_cartan_type,
    simple_coord,
)

IntVector = tuple[int, ...]

# Largest complex rank `build_satake` and `catalog` accept.  Describing a
# form grows faster than rank^2 (one shared Xeon vCPU, in process:
# sp(64,R) in about 20 ms, sp(128,R) in about 0.10 s and 21 MB; a cold
# command, interpreter start included, takes 0.07 and 0.14 s), so a larger
# rank fails fast with OutOfRangeParams instead of growing without bound.
MAX_RANK = 64


# One row per classical family: its name, with `{}` where each parameter
# prints; its complex rank, read off the parameters; and whether its one
# parameter prints doubled, as su*(2k) and so*(2n) do.
ClassicalFamily = namedtuple("ClassicalFamily", "name rank doubled")

# One row per exceptional real form: its name and its Satake diagram, the
# type, the black nodes and the arrows, and the reference Hermitian flag.
ExceptionalFamily = namedtuple("ExceptionalFamily", "name letter rank black arrows hermitian")

CLASSICAL_FAMILIES = {
    "sl_R": ClassicalFamily("sl({},R)", lambda p: p[0] - 1, False),
    "su_star": ClassicalFamily("su*({})", lambda p: 2 * p[0] - 1, True),
    "su_pq": ClassicalFamily("su({},{})", lambda p: p[0] + p[1] - 1, False),
    "so_pq": ClassicalFamily("so({},{})", lambda p: (p[0] + p[1]) // 2, False),
    "sp_R": ClassicalFamily("sp({},R)", lambda p: p[0], False),
    "sp_pq": ClassicalFamily("sp({},{})", lambda p: p[0] + p[1], False),
    "so_star": ClassicalFamily("so*({})", lambda p: p[0], True),
}

EXCEPTIONAL_FAMILIES = {
    "g2_2": ExceptionalFamily("g2(2)", "G", 2, (), (), False),
    "f4_4": ExceptionalFamily("f4(4)", "F", 4, (), (), False),
    "f4_m20": ExceptionalFamily("f4(-20)", "F", 4, (0, 1, 2), (), False),
    "e6_6": ExceptionalFamily("e6(6)", "E", 6, (), (), False),
    "e6_2": ExceptionalFamily("e6(2)", "E", 6, (), ((0, 5), (2, 4)), False),
    "e6_m14": ExceptionalFamily("e6(-14)", "E", 6, (2, 3, 4), ((0, 5),), True),
    "e6_m26": ExceptionalFamily("e6(-26)", "E", 6, (1, 2, 3, 4), (), False),
    "e7_7": ExceptionalFamily("e7(7)", "E", 7, (), (), False),
    "e7_m5": ExceptionalFamily("e7(-5)", "E", 7, (1, 4, 6), (), False),
    "e7_m25": ExceptionalFamily("e7(-25)", "E", 7, (1, 2, 3, 4), (), True),
    "e8_8": ExceptionalFamily("e8(8)", "E", 8, (), (), False),
    "e8_m24": ExceptionalFamily("e8(-24)", "E", 8, (1, 2, 3, 4), (), False),
}

# family -> (the name's bound `str.format`, doubled): the one lookup of
# `canonical_name`, which every report reads
_NAMES = {f: (row.name.format, row.doubled) for f, row in CLASSICAL_FAMILIES.items()}
_NAMES.update((f, (row.name.format, False)) for f, row in EXCEPTIONAL_FAMILIES.items())

# family -> how many parameters its descriptor holds, one per `{}` of the name
_ARITY = {f: row.name.count("{}") for f, row in CLASSICAL_FAMILIES.items()}
_ARITY.update(dict.fromkeys(EXCEPTIONAL_FAMILIES, 0))


class RealFormDescriptor(namedtuple("RealFormDescriptor", "family params")):
    """A real form named by family plus integer parameters."""

    __slots__ = ()

    @property
    def canonical_name(self) -> str:
        family, params = self
        name, doubled = _NAMES[family]
        return name(2 * params[0]) if doubled else name(*params)


class SatakeDiagram(namedtuple("SatakeDiagram", "descriptor rs black arrows hermitian_expected")):
    """Dynkin diagram of the complexification + black nodes + arrow pairing:
    a `RealFormDescriptor`, a `RootSystem`, the black nodes as a frozenset,
    the sorted arrow pairs and the reference Hermitian flag.  The white
    nodes are a view, built on first read and kept; `_replace` builds a new
    diagram, which reads its own.  A diagram hashes as its descriptor, as
    equal diagrams have equal ones, so no other field need be hashable.
    `_analysis` is the slot `orbits.kept_analysis` fills."""

    _analysis = None

    def __hash__(self) -> int:
        return hash(self.descriptor)

    @property
    def name(self) -> str:
        return self.descriptor.canonical_name

    @cached
    def white(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.rs.rank) if i not in self.black)


class SatakeInvolution(namedtuple("SatakeInvolution", "columns p_tilde")):
    """theta* on simple-root coordinates and the node permutation p_tilde
    (arrow pairing on white nodes, duality involution on each black
    component).

    theta* is stored as integer columns: `columns[j]` is theta*(a_j).
    `tau_columns` and `tau_image` give tau* = -theta* on integer vectors.
    Once its checks pass, an involution keeps `root_images`: tau* of every
    positive root, packed in the root system's format and in the closure's
    order (`tau_keys`), which the restriction reads.
    """

    @cached
    def tau_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries (i, x) of each column of tau*."""
        nodes = range(len(self.columns))
        return tuple(tuple(zip(compress(nodes, col), map(neg, filter(None, col)))) for col in self.columns)

    def tau_image(self, v: Sequence[int]) -> IntVector:
        """tau* v, for an integer vector v or one of `Fraction`s."""
        out = [0] * len(v)
        for j, c in enumerate(v):
            if c:
                for i, x in self.tau_columns[j]:
                    out[i] += c * x
        return tuple(out)


def _sorted_arrows(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def _diagram(descriptor, letter, rank, black, arrows, hermitian):
    rs = build_root_system(SimpleType(letter, rank))
    return SatakeDiagram(descriptor, rs, frozenset(black), _sorted_arrows(arrows), hermitian)


def _check(cond: bool, message: str):
    if not cond:
        raise OutOfRangeParams(message)


def complex_rank(d: RealFormDescriptor) -> int:
    """Rank of the complexification, read off the family parameters alone."""
    f = d.family
    if f in CLASSICAL_FAMILIES:
        return CLASSICAL_FAMILIES[f].rank(d.params)
    if f in EXCEPTIONAL_FAMILIES:
        return EXCEPTIONAL_FAMILIES[f].rank
    raise FormNameError(f"unknown real-form family {f!r}")


def build_satake(d: RealFormDescriptor) -> SatakeDiagram:
    """Instantiate the family pattern for one descriptor.

    Equal descriptors give the same diagram, kept in an LRU of 256; an
    error is never kept.  Parameters that are not a tuple of ints are
    refused first, since True and 1.0 hash as 1 does and would be served
    su(1,2)'s diagram for su(True,2).  Under the cache, a parameter count
    other than the family's, one per `{}` of its name and none for an
    exceptional form, is refused, and then a complex rank above MAX_RANK,
    before anything is built; each refusal is an OutOfRangeParams.
    """
    if type(d.params) is not tuple:
        raise OutOfRangeParams(f"real-form parameters must be a tuple, got {type(d.params).__name__} {d.params!r}")
    for x in d.params:
        if type(x) is not int:
            raise OutOfRangeParams(f"real-form parameters must be ints, got {type(x).__name__} {x!r}")
    return _cached_satake(d)


@lru_cache(maxsize=256)
def _cached_satake(d: RealFormDescriptor) -> SatakeDiagram:
    arity = _ARITY.get(d.family)
    if arity is not None and len(d.params) != arity:
        raise OutOfRangeParams(f"real-form family {d.family!r} needs {arity} parameter(s), got {d.params!r}")
    rank = complex_rank(d)
    if rank > MAX_RANK:
        raise OutOfRangeParams(f"{d.canonical_name} has complex rank {rank}, above the cap MAX_RANK = {MAX_RANK}")
    f, p = d.family, d.params
    if f == "sl_R":
        (n,) = p
        _check(n >= 2, f"sl(n,R) needs n >= 2, got n={n}")
        return _diagram(d, "A", n - 1, (), (), hermitian=(n == 2))
    if f == "su_star":
        (k,) = p
        _check(k >= 2, f"su*(2k) needs k >= 2, got 2k={2 * k}")
        return _diagram(d, "A", 2 * k - 1, range(0, 2 * k - 1, 2), (), hermitian=False)
    if f == "su_pq":
        p_, q_ = p
        _check(1 <= p_ <= q_, f"su(p,q) needs 1 <= p <= q, got ({p_},{q_})")
        n = p_ + q_ - 1
        arrows = [(i, n - 1 - i) for i in range(p_) if i != n - 1 - i]
        return _diagram(d, "A", n, range(p_, n - p_), arrows, hermitian=True)
    if f == "so_pq":
        return _build_so(d)
    if f == "sp_R":
        (n,) = p
        _check(n >= 1, f"sp(n,R) needs n >= 1, got n={n}")
        if n == 1:
            return _diagram(d, "A", 1, (), (), hermitian=True)
        return _diagram(d, "C", n, (), (), hermitian=True)
    if f == "sp_pq":
        p_, q_ = p
        _check(1 <= p_ <= q_, f"sp(p,q) needs 1 <= p <= q, got ({p_},{q_})")
        n = p_ + q_
        white = set(range(1, 2 * p_, 2))
        return _diagram(d, "C", n, set(range(n)) - white, (), hermitian=False)
    if f == "so_star":
        (n,) = p
        _check(n >= 3, f"so*(2n) needs n >= 3, got 2n={2 * n}")
        if n == 3:
            # so*(6) is isomorphic to su(1,3); D3 is cataloged through A3
            return _diagram(d, "A", 3, {1}, ((0, 2),), hermitian=True)
        if n % 2 == 0:
            return _diagram(d, "D", n, range(0, n, 2), (), hermitian=True)
        return _diagram(d, "D", n, range(0, n - 2, 2), ((n - 2, n - 1),), hermitian=True)
    return _diagram(d, *EXCEPTIONAL_FAMILIES[f][1:])


def _build_so(d: RealFormDescriptor) -> SatakeDiagram:
    p_, q_ = d.params
    _check(1 <= p_ <= q_, f"so(p,q) needs 1 <= p <= q, got ({p_},{q_})")
    total = p_ + q_
    _check(total >= 5, f"so(p,q) needs p+q >= 5, got p+q={total} (non-simple or complex structure below)")
    hermitian = p_ == 2
    if total % 2 == 1:
        m = (total - 1) // 2
        return _diagram(d, "B", m, range(p_, m), (), hermitian)
    if total == 6:
        # D3 = A3: so(1,5)=su*(4), so(2,4)=su(2,2), so(3,3)=sl(4,R)
        if p_ == 1:
            return _diagram(d, "A", 3, (0, 2), (), hermitian)
        if p_ == 2:
            return _diagram(d, "A", 3, (), ((0, 2),), hermitian)
        return _diagram(d, "A", 3, (), (), hermitian)
    m = total // 2
    if p_ == m:
        return _diagram(d, "D", m, (), (), hermitian)
    if p_ == m - 1:
        return _diagram(d, "D", m, (), ((m - 2, m - 1),), hermitian)
    return _diagram(d, "D", m, range(p_, m), (), hermitian)


# A name is read as the text between its digit runs, which picks the family,
# and the runs, its parameters.
_DIGITS = re.compile(r"(\d+)")
_FAMILY_BY_TEXT = {tuple(row.name.lower().split("{}")): f for f, row in CLASSICAL_FAMILIES.items()}
_EXCEPTIONAL_BY_NAME = {row.name: f for f, row in EXCEPTIONAL_FAMILIES.items()}

# In every family a parameter above 2 * MAX_RANK + 1 gives a complex rank
# above MAX_RANK, so a parameter with more digits than that is refused
# before int() reads it (int() refuses more than 4300 digits).
_MAX_PARAM_DIGITS = len(str(2 * MAX_RANK + 1))


@lru_cache(maxsize=256)
def parse_form_name(text: str) -> RealFormDescriptor:
    """Parse a real-form name under the grammar in the module docstring.

    Kept per text in an LRU of 256; an error is never kept."""
    token = text.strip()
    if any(ch.isspace() for ch in token):
        raise FormNameError(f"form name {text!r} must not contain spaces")
    lowered = token.lower()
    if lowered in _EXCEPTIONAL_BY_NAME:
        return RealFormDescriptor(_EXCEPTIONAL_BY_NAME[lowered], ())
    parts = _DIGITS.split(lowered)
    family = _FAMILY_BY_TEXT.get(tuple(parts[::2]))
    if family is None:
        raise FormNameError(f"cannot parse real-form name {token!r}")
    groups = [g.lstrip("0") or "0" for g in parts[1::2]]
    digits = max(map(len, groups))
    if digits > _MAX_PARAM_DIGITS:
        raise OutOfRangeParams(f"a {digits}-digit parameter puts the complex rank above the cap MAX_RANK = {MAX_RANK}")
    params = sorted(map(int, groups))
    row = CLASSICAL_FAMILIES[family]
    if row.doubled:
        (m,) = params
        if m % 2 != 0:
            raise OutOfRangeParams(f"{row.name.format('m')} needs even m, got {m}")
        params = [m // 2]
    return RealFormDescriptor(family, tuple(params))


def catalog(max_rank: int) -> list[SatakeDiagram]:
    """All catalog entries of complex rank <= max_rank, sorted by name.

    Isomorphic low-rank duplicates (sl(2,R)/su(1,1)/sp(1,R), so(1,5)/su*(4),
    ...) are retained: the catalog is indexed by descriptor, not by
    isomorphism class.
    """
    if max_rank < 2:
        raise OutOfRangeParams(f"catalog needs max_rank >= 2, got {max_rank}")
    if max_rank > MAX_RANK:
        raise OutOfRangeParams(f"catalog needs max_rank <= MAX_RANK = {MAX_RANK}, got {max_rank}")
    # a complex rank of at most max_rank bounds every family's parameter, and
    # the sum p + q of a two-parameter one, by 2 * max_rank + 1
    top = 2 * max_rank + 2
    singles = {"sl_R": 2, "su_star": 2, "sp_R": 1, "so_star": 3}  # the least parameter
    pairs = {"su_pq": 2, "so_pq": 5, "sp_pq": 2}  # the least p + q
    candidates = [RealFormDescriptor(f, (n,)) for f, least in singles.items() for n in range(least, top)]
    candidates += [
        RealFormDescriptor(f, (p, total - p))
        for f, least in pairs.items()
        for total in range(least, top)
        for p in range(1, total // 2 + 1)
    ]
    candidates += [RealFormDescriptor(f, ()) for f in EXCEPTIONAL_FAMILIES]
    entries = [build_satake(d) for d in candidates if complex_rank(d) <= max_rank]
    return sorted(entries, key=lambda sd: sd.name)


# ---------------------------------------------------------------------------
# involution construction


def _black_components(sd: SatakeDiagram) -> list[tuple[int, ...]]:
    """The black components, least node first, each in breadth-first order
    from its least node."""
    support = sd.rs.gram_support
    remaining = set(sd.black)
    components = []
    while remaining:
        comp = [min(remaining)]
        remaining.remove(comp[0])
        for v in comp:
            for w, _ in support[v]:
                if w in remaining:
                    remaining.remove(w)
                    comp.append(w)
        components.append(tuple(comp))
    return components


def _component_duality(sd: SatakeDiagram, comp: tuple[int, ...]) -> dict[int, int]:
    """Duality involution (-w0) of one black component as a node map."""
    cartan = sd.rs.cartan
    sub = tuple(tuple(map(row.__getitem__, comp)) for row in map(cartan.__getitem__, comp))
    found = read_cartan_type(sub)
    if found is None:
        raise InconsistentDiagram(f"{sd.name}: black component {comp} is not of classified type")
    # order[k] is the component's node at Bourbaki position k
    t, order = found
    delta = duality_permutation(t)
    return {comp[order[k]]: comp[order[delta[k]]] for k in range(len(comp))}


def _build_involution(sd: SatakeDiagram) -> SatakeInvolution:
    problems = _structural_failures(sd)
    if problems:
        failures = tuple(("structure.arrows", msg) for msg in problems)
        raise InconsistentDiagram(f"{sd.name}: " + "; ".join(problems), failures)
    rs = sd.rs
    n = rs.rank
    p_tilde = list(range(n))
    for i, j in sd.arrows:
        p_tilde[i], p_tilde[j] = j, i
    for comp in _black_components(sd):
        for node, image in _component_duality(sd, comp).items():
            p_tilde[node] = image

    # theta* = -w0 p~, w0 the longest element of the black Weyl group (Araki
    # 1962, sec. 2): theta* a_b = a_b on a black node, and theta* a_j = -w0 a_k,
    # k = p~ j, on a white one.  The positive roots whose white digits are
    # those of a_k make an irreducible module of the black Levi subalgebra
    # (Azad-Barry-Seitz 1990) of lowest weight a_k, so w0 a_k is its highest
    # weight, the last of them by height; with no black node w0 is 1.
    top = {}
    if sd.black:
        white = rs.digit_mask(sd.white)
        top = dict(zip(map(white.__and__, rs.positive_keys), rs.positive_keys))
    columns = [simple_coord(n, j) for j in range(n)]
    for j in sd.white:
        k = p_tilde[j]
        w0 = rs.unpack(top[rs.simple_keys[k]]) if top else simple_coord(n, k)
        columns[j] = tuple(map(neg, w0))
    return SatakeInvolution(tuple(columns), tuple(p_tilde))


def _is_pair(arrow) -> bool:
    return type(arrow) is tuple and len(arrow) == 2 and type(arrow[0]) is int and type(arrow[1]) is int


def _structural_failures(sd: SatakeDiagram) -> list[str]:
    # the checks below and every consumer read rs as a root system, black as a
    # set of nodes and arrows as pairs of them, so any other shape is refused first
    if not isinstance(sd.rs, RootSystem):
        return [f"root system {sd.rs!r} is not a RootSystem"]
    n = sd.rs.rank
    problems = []
    if type(sd.black) is not frozenset or not all(type(b) is int for b in sd.black):
        problems.append(f"black nodes {sd.black!r} are not a frozenset of ints")
    if type(sd.arrows) is not tuple or not all(map(_is_pair, sd.arrows)):
        problems.append(f"arrows {sd.arrows!r} are not a tuple of int pairs")
    if problems:
        return problems
    if not all(0 <= b < n for b in sd.black):
        problems.append(f"black nodes {sorted(sd.black)} out of range for rank {n}")
    seen: set[int] = set()
    for i, j in sd.arrows:
        if i == j:
            problems.append(f"arrow pairs node {i} with itself")
            continue
        if not (0 <= i < n and 0 <= j < n):
            problems.append(f"arrow ({i},{j}) out of range for rank {n}")
            continue
        if i in sd.black or j in sd.black:
            problems.append(f"arrow ({i},{j}) touches a black node")
        if i in seen or j in seen:
            problems.append(f"node in arrow ({i},{j}) already carries an arrow")
        seen |= {i, j}
    return problems


def tau_keys(rs: RootSystem, inv: SatakeInvolution) -> tuple[Sequence[int], list[int]]:
    """(keys, images): the positive roots gamma and their images tau* gamma
    packed as sum_i c_i B^(n-1-i), in the closure's order, that of
    `RootSystem.positive_keys`, the images carried from tau*'s packed columns
    (`RootSystem.carried`).

    gamma <= phi coefficientwise, so no coefficient of gamma, tau* gamma or
    gamma +- tau* gamma exceeds M = max_i (phi_i + sum_j |tau*_ij| phi_j) in
    size.  B is 256 if 2M < 256, else the least power of two above 2M, so
    such vectors pack to signed digits and to equal keys only when equal.  An
    involution that passes its checks has M <= 24 (tau* a_b = -a_b on black
    nodes, tau* a_w >= 0 on white ones, and tau* phi is a root), so B = 256
    and the keys are the system's own (`RootSystem.simple_keys`).
    """
    n = rs.rank
    phi = rs.highest
    reach = list(phi)
    for j, entries in enumerate(inv.tau_columns):
        for i, x in entries:
            reach[i] += abs(x) * phi[j]
    base = max(256, 1 << (2 * max(reach)).bit_length())
    powers = rs.simple_keys if base == 256 else [base ** (n - 1 - i) for i in range(n)]
    keys = rs.positive_keys if base == 256 else rs.carried(powers)
    images = rs.carried([sum(x * powers[i] for i, x in entries) for entries in inv.tau_columns])
    return keys, images


def _involution_failures(sd: SatakeDiagram, inv: SatakeInvolution) -> list[tuple[str, str]]:
    rs = sd.rs
    n = rs.rank
    cols, p = inv.columns, inv.p_tilde
    failures: list[tuple[str, str]] = []
    # the nonzero entries (i, x) of each column of tau* = -theta*, which the
    # checks below read with the sign turned where theta* is meant
    entries = inv.tau_columns

    def squares_to_identity(j: int) -> bool:
        out = {j: -1}
        for k, c in entries[j]:
            for i, x in entries[k]:
                out[i] = out.get(i, 0) + c * x
        return not any(out.values())

    # theta*^2 = tau*^2 = I: each column of tau*^2 - I, summed over nonzero entries, is zero
    involution = all(map(squares_to_identity, range(n)))
    if not involution:
        failures.append(("involution.theta-squared", "theta* squared is not the identity"))

    # theta* = -tau* and both maps are linear while the root set is closed
    # under negation, so the tests below hold on every root exactly when they
    # hold on the positive ones.  Roots, images and differences are compared
    # as packed ints (`tau_keys`), whose sign is that of the leading
    # coefficient: v is a root exactly when |key(v)| is a positive root's key.
    # A scan finds a root's index, whose coefficients only a message decodes.
    keys, images = tau_keys(rs, inv)
    root_keys = set(keys)
    bad = next(compress(count(), map(not_, map(root_keys.__contains__, map(abs, images)))), None)
    if bad is not None:
        root = rs.unpack(rs.positive_keys[bad])
        failures.append(("involution.preserves-roots", f"theta* does not preserve the root set (e.g. {root})"))

    for b in sorted(sd.black):
        if entries[b] != ((b, -1),):
            failures.append(("involution.fixes-black", f"theta* moves black simple root {b}"))

    for w in sd.white:
        # -theta*(a_w) - a_{p~ w} = tau*(a_w) - a_{p~ w}, by its nonzero entries
        shifted = dict(entries[w])
        shifted[p[w]] = shifted.get(p[w], 0) - 1
        if any(x < 0 or x and i not in sd.black for i, x in shifted.items()):
            failures.append(
                ("involution.white-translate", f"-theta*(a_{w}) - p~(a_{w}) is not a nonnegative black combination")
            )

    normal = next(compress(count(), map(root_keys.__contains__, map(abs, map(sub, keys, images)))), None)
    if normal is not None:
        root = rs.unpack(rs.positive_keys[normal])
        failures.append(("involution.tau-normal", f"alpha - tau*(alpha) is a root for alpha={root}"))

    permuted_phi = [0] * n
    for i, c in enumerate(rs.highest):
        permuted_phi[p[i]] = c
    if tuple(permuted_phi) != rs.highest:
        failures.append(("involution.ptilde-fixes-phi", "p~ does not fix the highest root"))

    # row p(i) of C permuted by p is row i; a rank-1 p is the identity, and
    # itemgetter of one index would give a number, not a row
    permute = itemgetter(*p)
    if n > 1 and any(permute(rs.cartan[k]) != row for k, row in zip(p, rs.cartan)):
        failures.append(("involution.ptilde-automorphism", "p~ is not a Dynkin diagram automorphism"))

    # integer multiples of the coroots 2 a_i/<a_i,a_i>: a_b for a black node,
    # and <a_j,a_j> a_i - <a_i,a_i> a_j (scaled Gram form) for an arrow (i, j)
    omega = [simple_coord(n, b) for b in sorted(sd.black)]
    gram = rs.scaled_gram
    for i, j in sd.arrows:
        v = [0] * n
        v[i] = gram[j][j]
        v[j] = -gram[i][i]
        omega.append(tuple(v))
    if omega:
        if matrix_rank(omega) != len(omega):
            failures.append(("involution.basis-independent", "black/arrow coroot vectors are dependent"))
        for v in omega:
            if inv.tau_image(v) != tuple(-x for x in v):
                failures.append(("involution.basis-eigenspace", "a basis vector is not in the -1 eigenspace of tau*"))
                break
    # an involution is diagonalizable with eigenvalues +-1, so the -1 eigenspace
    # of tau*, the +1 one of theta*, has dimension (n + tr theta*) / 2; any other
    # theta* is measured by the rank of the columns of tau* + I = I - theta*
    if involution:
        eigen_dim = (n + sum(map(getitem, cols, range(n)))) // 2
    else:
        eigen_dim = n - matrix_rank([tuple(map(sub, simple_coord(n, j), cols[j])) for j in range(n)])
    if eigen_dim != len(omega):
        failures.append(
            ("involution.basis-count", f"-1 eigenspace of tau* has dim {eigen_dim}, basis has {len(omega)} vectors")
        )
    if not failures:
        # a sound involution packs in base 256 (`tau_keys`), so its images are
        # in the system's format: kept, as the closure keeps its spanning tree
        inv.root_images = images
    return failures


def checked_involution(sd: SatakeDiagram) -> SatakeInvolution:
    """theta* for a diagram, built and checked, and kept nowhere.  If any
    invariant fails, raises InconsistentDiagram carrying the failures, the
    structural ones first."""
    inv = _build_involution(sd)
    failures = tuple(_involution_failures(sd, inv))
    if failures:
        detail = "; ".join(f"{check}: {msg}" for check, msg in failures)
        raise InconsistentDiagram(f"{sd.name}: {detail}", failures)
    return inv

