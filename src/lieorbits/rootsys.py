"""Simple complex root systems from Cartan data.

Node numbering follows Bourbaki throughout.  Arrow orientation is fixed by
C[i][j] = 2<a_i, a_j>/<a_j, a_j>, and the Cartan matrix is kept as integer
rows.  One integer table of simple-root lengths drives the Cartan matrix and
the Gram form <a_i, a_j> = C[i][j] d_j, long roots of squared length 2, which
is kept only as an integer multiple of itself (`scaled_gram`); every
downstream quantity is a scale-invariant ratio, so the scale cancels.

The root-string closure (`build_root_system`) runs on packed ints whose
digits never carry: base-256 digits for a root's coefficients, at most 6,
and 5-bit ones for its coroot pairings, in -3..3, and string lengths, at
most 3.  It yields the positive roots by height, packed as
sum_i c_i 256^(n-1-i), and a `RootSystem` stores them so, as
`positive_keys`; every layer packs, masks and decodes a root through its
one codec, `simple_keys`, `pack`, `digit_mask`, `unpack` and, for a key
that may be negative, `unpack_signed`, and `decodable` tells the keys
`unpack` reads.  The coefficient tuples are kept views that no layer of the
package reads, for callers and tests: `positive_roots` decodes the keys, and
`roots` adds the negatives.  `verify` reads the keys, decoding one at a time
where it needs a root's coordinates.

The closure also keeps the spanning tree it reached the roots along
(`RootSystem.spanning_tree`): each root's first parent and the node it
stepped up by.  A linear map on every positive root is then one addition
per root (`RootSystem.carried`); the involution checks take tau* that way,
keeping the images for the restriction, and the orbit dimension takes a
weighted diagram's grading.

The type of a Cartan matrix is read off its Dynkin diagram, its chain,
branch node and bond labels (`read_cartan_type`), and confirmed by
comparing the relabelled rows with `cartan_matrix`, which builds them on
each miss of the cache `read_cartan_type` keeps; nothing is searched.

The automorphisms of a Dynkin diagram are one table, written down here and
nowhere else (`diagram_automorphisms`): one line per type, the identity
first.  The involution -w0 of the simple roots is read off it
(`duality_permutation`), for the black components of a Satake diagram, and
`verify` moves a golden row's weights by it onto a relabelled diagram.

A `RootSystem` keeps what is read once per type: its keys as a set
(`key_set`), which the involution's root scans test in single set calls; the
sparse Gram rows
(`gram_support`), through which `simple_pairings` walks only the nonzero
coordinates of a vector, the one kernel of the Gram form (`scaled_inner`
goes through it); the Gram form as a quadratic form (`norm_form`: diagonal,
chain and the branch edges of D and E), which gives a norm in a few C-level
passes; the highest root's pairings; and the minimal orbit's diagram and
dimension, the dual Coxeter number and the extended-diagram neighbours
(`min_wdd`, `min_orbit_dim`, `dual_coxeter` and `extended_nodes`), each
computed by its module function on first read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import compress, permutations, repeat
from operator import add, getitem, itemgetter, lshift, mul, neg

from .errors import InvalidType, NonIntegralWeights, RankTooSmall, TypeMismatch

IntRows = tuple[tuple[int, ...], ...]

# Largest rank of a simple type, and so the largest complex rank
# `satake.build_satake` and `satake.catalog` accept.  Describing a form
# grows faster than rank^2 (one shared Xeon vCPU, in process: sp(64,R) in
# about 20 ms, sp(128,R) in about 0.10 s and 21 MB; a cold command,
# interpreter start included, takes 0.07 and 0.14 s), so a larger rank
# fails fast instead of growing without bound.
MAX_RANK = 64

RANK_BOUNDS = {
    "A": (1, MAX_RANK),
    "B": (2, MAX_RANK),
    "C": (2, MAX_RANK),
    "D": (4, MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class Validated:
    """Base for a named tuple record whose `_check` refuses bad fields; it
    runs on construction and on `_replace`, which builds through `_make`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class cached:
    """A kept view: the first read stores the value in the instance
    `__dict__`, which later reads (and assignments, since there is no
    `__set__`) find first.  It takes no lock, where the standard library's
    kept property locks on first read before Python 3.12."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class SimpleType(Validated, namedtuple("SimpleType", "letter rank")):
    """Isomorphism class of a simple complex Lie algebra: letter + rank.
    The rank is an int, not a bool, within the letter's `RANK_BOUNDS`, so at
    most MAX_RANK."""

    __slots__ = ()

    def _check(self):
        bounds = RANK_BOUNDS.get(self.letter) if isinstance(self.letter, str) else None
        if bounds is None:
            raise InvalidType(f"unknown letter {self.letter!r}")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise InvalidType(f"the rank of type {self.letter} must be an int, got {type(self.rank).__name__} {self.rank!r}")
        lo, hi = bounds
        if not lo <= self.rank <= hi:
            raise InvalidType(f"rank {self.rank} out of range {lo}..{hi} for type {self.letter}")

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"


def _edges(t: SimpleType) -> list[tuple[int, int]]:
    n = t.rank
    chain = [(i, i + 1) for i in range(n - 1)]
    if t.letter in ("A", "B", "C", "F", "G"):
        return chain
    if t.letter == "D":
        return chain[:-1] + [(n - 3, n - 1)]
    # E: chain a1-a3-a4-...-an with a2 hanging off a4
    chain = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    return chain + [(1, 3)]


def _lengths(t: SimpleType) -> tuple[int, ...]:
    """<a_i, a_i> per node in units of the shortest simple root: the squared
    length halves d_i (long roots d = 1) times their least common
    denominator, which is the largest entry."""
    n = t.rank
    if t.letter == "B":
        return (2,) * (n - 1) + (1,)
    if t.letter == "C":
        return (1,) * (n - 1) + (2,)
    if t.letter == "F":
        return (2, 2, 1, 1)
    if t.letter == "G":
        # a1 short: the highest root is 3a1 + 2a2
        return (1, 3)
    return (1,) * n


def cartan_matrix(t: SimpleType) -> IntRows:
    """Integer Cartan matrix C[i][j] = 2<a_i,a_j>/<a_j,a_j>, as rows, built
    anew on each call: the closure reads it once per type, and the diagram
    reader once per distinct matrix it has not read before."""
    n = t.rank
    d = _lengths(t)
    rows = [[0] * i + [2] + [0] * (n - i - 1) for i in range(n)]
    for i, j in _edges(t):
        # <a_i, a_j> = -max(d_i, d_j) for adjacent nodes in every simple type,
        # and the longer length is a multiple of the shorter
        prod = max(d[i], d[j])
        rows[i][j] = -(prod // d[j])
        rows[j][i] = -(prod // d[i])
    return tuple(map(tuple, rows))


ROOT_COUNT_FORMULAS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


class RootSystem(namedtuple("RootSystem", "simple_type cartan positive_keys highest")):
    """A simple complex root system in simple-root coordinates: its
    `SimpleType`, the integer Cartan rows, the positive roots by height,
    packed as sum_i c_i 256^(n-1-i) (`pack`), and the highest root."""

    @property
    def rank(self) -> int:
        return self.simple_type.rank

    @cached
    def simple_keys(self) -> tuple[int, ...]:
        """The packed simple roots a_i = 256^(n-1-i)."""
        return tuple(1 << 8 * i for i in reversed(range(self.rank)))

    def pack(self, v: Sequence[int]) -> int:
        """The key of v, linear in v and equal for two vectors whose entries
        differ by less than 256 only when they are equal.  Entries in 0..255
        are its digits, and such keys sort as their vectors do."""
        return sum(map(mul, v, self.simple_keys))

    def digit_mask(self, nodes: Iterable[int]) -> int:
        """The key with digits 255 at `nodes` and 0 elsewhere: and-ed with a
        key whose digits are below 256, it keeps those nodes' coefficients."""
        return 255 * sum(map(self.simple_keys.__getitem__, nodes))

    def unpack(self, key: int) -> tuple[int, ...]:
        """The coefficients of a nonnegative key whose digits are below 256."""
        return tuple(key.to_bytes(self.rank, "big"))

    def decodable(self, key: int) -> bool:
        """Whether `unpack` reads `key`: nonnegative, with no more digits than nodes."""
        return 0 <= key < 1 << 8 * self.rank

    def unpack_signed(self, key: int) -> tuple[int, ...]:
        """The coefficients of the key of a vector whose entries are all of
        one sign and below 256 in size: a negative key is minus the key of
        the negated vector, as `pack` is linear."""
        return self.unpack(key) if key >= 0 else tuple(map(neg, self.unpack(-key)))

    @cached
    def key_set(self) -> frozenset[int]:
        """`positive_keys` as a set, kept: the involution's root scans and
        verify's `roots.highest-unique` test membership in it."""
        return frozenset(self.positive_keys)

    @cached
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots as coefficient tuples, decoded from `positive_keys`;
        kept for callers, as the package reads the keys."""
        return tuple(map(self.unpack, self.positive_keys))

    @cached
    def roots(self) -> tuple[tuple[int, ...], ...]:
        """Every root: the positive ones, then their negatives in the same order."""
        return self.positive_roots + tuple(map(tuple, map(map, repeat(neg), self.positive_roots)))

    # The closure keeps the tree on the system it builds; a system built
    # otherwise, by `_replace` say, reads its type's, and verify's
    # roots.spanning-tree check holds it to the keys.

    @cached
    def spanning_tree(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """One (parents, nodes) pair per height: the k-th positive root of a
        height is positive root parents[k] (or 0, for -1) plus a_{nodes[k]}."""
        return _build_cached(self.simple_type.letter, self.rank).spanning_tree

    def carried(self, images: Sequence[int]) -> list[int]:
        """f(gamma) for every positive root gamma, in order, for the additive
        f with f(a_i) = images[i]: f(gamma + a_i) = f(gamma) + f(a_i) along
        the spanning tree, one C-level pass per height."""
        (_, simple), *layers = self.spanning_tree
        out = list(map(images.__getitem__, simple))
        for parents, nodes in layers:
            out += map(add, map(out.__getitem__, parents), map(images.__getitem__, nodes))
        return out

    def __hash__(self) -> int:
        # equal systems have equal types; hashing the positive keys on every cache
        # lookup keyed on a diagram would cost more than the lookup saves
        return hash(self.simple_type)

    @cached
    def gram_scale(self) -> int:
        """The least common denominator of the d_j, so scaled_gram is integral."""
        return max(_lengths(self.simple_type))

    @cached
    def scaled_gram(self) -> IntRows:
        """gram_scale * <a_i, a_j> = C[i][j] * (gram_scale * d_j), as rows."""
        scaled = _lengths(self.simple_type)
        return tuple(tuple(map(mul, row, scaled)) for row in self.cartan)

    @cached
    def gram_support(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of each scaled Gram row, at most four."""
        return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in self.scaled_gram)

    def scaled_inner(self, v: Sequence, w: Sequence):
        """gram_scale * <v, w>: an int for integer vectors, exact for
        `Fraction` ones; w against the pairings of v (`simple_pairings`)."""
        return sum(map(mul, w, self.simple_pairings(v)))

    @cached
    def norm_form(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """(d, c, branches) with gram_scale * <v, v> = sum_i d_i v_i^2 +
        sum_i c_i v_i v_(i+1) + sum g v_i v_j over (i, j, g) in branches:
        the scaled Gram diagonal, twice its entries (i, i+1), and twice the
        entries of the other edges, the branch edges of D and E."""
        g = self.scaled_gram
        n = self.rank
        chain = tuple(2 * g[i][i + 1] for i in range(n - 1))
        branches = tuple((i, j, 2 * x) for i in range(n) for j, x in self.gram_support[i] if j > i + 1)
        return tuple(map(getitem, g, range(n))), chain, branches

    @cached
    def highest_pairings(self) -> tuple[int, ...]:
        """gram_scale * <a_i, phi> for every node i, read on every report."""
        return self.simple_pairings(self.highest)

    # kept, as `highest_pairings` is, and computed once per system by the
    # module function each docstring names

    @cached
    def min_wdd(self) -> WeightedDynkinDiagram:
        """The minimal orbit's weighted diagram (`min_orbit_wdd`)."""
        return min_orbit_wdd(self)

    @cached
    def min_orbit_dim(self) -> int:
        """The minimal orbit's dimension (`orbit_dim_from_wdd` of `min_wdd`)."""
        return orbit_dim_from_wdd(self, self.min_wdd)

    @cached
    def dual_coxeter(self) -> int:
        """The dual Coxeter number (`dual_coxeter_number`)."""
        return dual_coxeter_number(self)

    @cached
    def extended_nodes(self) -> frozenset[int]:
        """The nodes next to the extended diagram's added node (`extended_neighbors`)."""
        return extended_neighbors(self)

    def simple_pairings(self, v: Sequence) -> tuple:
        """gram_scale * <a_i, v> for every node i: each nonzero coordinate
        v_j adds v_j times Gram row j, which is column j, since the form is
        symmetric, so the cost follows the support of v."""
        rows = self.gram_support
        out = [0] * len(rows)
        for j in compress(range(len(rows)), v):
            a = v[j]
            for i, g in rows[j]:
                out[i] += g * a
        return tuple(out)


def simple_coord(n: int, i: int) -> tuple[int, ...]:
    """The simple root a_i in the simple-root coordinates of a rank-n system."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


# bounded like read_cartan_type: 256 is about the number of simple types up to rank 64
@lru_cache(maxsize=256)
def _build_cached(letter: str, rank: int) -> RootSystem:
    t = SimpleType(letter, rank)
    n = t.rank
    cartan = cartan_matrix(t)
    # the shell lends the closure its codec; the keys and the highest root fill it
    shell = RootSystem(t, cartan, (), ())
    ones = (32**n - 1) // 31
    offset, high = 15 * ones, 16 * ones
    # per node i, keyed by the mask bit 5i + 4 that goes up along a_i: the
    # packed a_i, Cartan row i as pairing digits, string digit i, and 1 at it
    shifts = range(0, 5 * n, 5)
    steps = {
        16 << 5 * i: (unit, sum(map(lshift, cartan[i], shifts)), 31 << 5 * i, 1 << 5 * i, i)
        for i, unit in enumerate(shell.simple_keys)
    }

    # each root carries [digits 15 - <gamma, a_k^v>, digits p_k of its descending strings,
    # the index of its first parent (-1 for 0) and the node it was reached along]
    layer = {unit: [offset - row, 0, -1, i] for unit, row, _, _, i in steps.values()}
    positives: list[int] = []
    tree: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # the roots whose strings go on up along no a_i
    tops: list[int] = []
    while layer:
        items = sorted(layer.items())
        datas = list(map(itemgetter(1), items))
        tree.append((tuple(map(itemgetter(2), datas)), tuple(map(itemgetter(3), datas))))
        nxt: dict[int, list[int]] = {}
        for k, (gamma, (pairs, strings, _, _)) in enumerate(items, len(positives)):
            # the a_i-string through gamma goes on up while p_i > <gamma, a_i^v>
            ups = (strings + pairs) & high
            if not ups:
                tops.append(gamma)
            while ups:
                bit = ups & -ups
                ups ^= bit
                unit, row, digit, one, node = steps[bit]
                up = gamma + unit
                data = nxt.get(up)
                if data is None:
                    nxt[up] = [pairs - row, (strings & digit) + one, k, node]
                else:
                    data[1] += (strings & digit) + one
        positives += map(itemgetter(0), items)
        layer = nxt

    count = ROOT_COUNT_FORMULAS[letter](rank)
    if 2 * len(positives) != count:
        raise InvalidType(f"closure produced {2 * len(positives)} roots for {t.name}, expected {count}")

    if len(tops) != 1:
        raise InvalidType(f"{t.name} has {len(tops)} maximal roots; system is not irreducible")
    rs = shell._replace(positive_keys=tuple(positives), highest=shell.unpack(tops[0]))
    rs.spanning_tree = tuple(tree)
    return rs


def build_root_system(t: SimpleType) -> RootSystem:
    """Full root system of type t via breadth-first closure over root strings.

    Each positive root gamma found so far carries its coroot pairings
    <gamma, a_i^v> and the lengths p_i of its descending a_i-strings.  Stepping
    up by a_i adds Cartan row i to the pairings; the new root gets
    p_i = p_i(gamma) + 1 and p_j = 0 for every j it was not reached along.
    gamma + a_i is a root exactly when p_i > <gamma, a_i^v>, the root-string
    predicate, so no string is walked down twice.

    The closure runs on packed ints.  A root is its coefficients as big-endian
    base-256 digits, at most 6 (the highest root of E8), so stepping up by a_i
    is one addition and `RootSystem.unpack` reads the coordinates back.  The
    pairings are 5-bit digits 15 - <gamma, a_k^v> and the string lengths 5-bit
    digits p_k.  A root string has at most four roots and |<gamma, a_k^v>| <= 3,
    so each digit of their sum lies in 12..21 and never carries; its bit 4 is
    set exactly when p_k > <gamma, a_k^v>, so one addition and one mask test
    every node.  A layer of the search is one height, and int order within it
    is coordinate order, so the roots come sorted by height, then coordinates.
    """
    return _build_cached(t.letter, t.rank)


class WeightedDynkinDiagram(Validated, namedtuple("WeightedDynkinDiagram", "simple_type weights")):
    """Weights a_i(H) attached to the nodes of the simple system, as ints:
    the labels of a weighted Dynkin diagram are 0, 1 or 2 (Collingwood-
    McGovern 3.5).  A `Fraction`, float or bool weight is refused."""

    __slots__ = ()

    def _check(self):
        if len(self.weights) != self.simple_type.rank:
            raise ValueError("one weight per node required")
        if not all(type(w) is int for w in self.weights):
            raise NonIntegralWeights(f"weights {self.weights} are not all ints")

    def as_ints(self) -> tuple[int, ...]:
        return self.weights


def min_orbit_wdd(rs: RootSystem) -> WeightedDynkinDiagram:
    """Weighted diagram of the minimal nonzero nilpotent orbit: a -> 2<a,phi>/<phi,phi>."""
    pairs = rs.highest_pairings
    norm = sum(map(mul, rs.highest, pairs))
    if any(2 * p % norm for p in pairs):
        raise NonIntegralWeights(f"{rs.simple_type.name}: 2<a, phi>/<phi, phi> is not integral")
    return WeightedDynkinDiagram(rs.simple_type, tuple(2 * p // norm for p in pairs))


def extended_neighbors(rs: RootSystem) -> frozenset[int]:
    """Nodes adjacent to the added lowest-root node of the extended diagram.

    Computed as {i : <phi, a_i> != 0}; 0-based node indices.
    """
    if rs.rank < 2:
        raise RankTooSmall("the extended A1 diagram is a double edge; use min_orbit_wdd")
    # a zero test does not depend on the scale of the Gram form
    return frozenset(i for i, p in enumerate(rs.highest_pairings) if p)


def orbit_dim_from_wdd(rs: RootSystem, w: WeightedDynkinDiagram) -> int:
    """Orbit dimension from the grading a weighted diagram induces on the roots.

    The dimension is the number of roots of degree other than 0 and 1.  The
    grading is odd, -alpha has degree -d(alpha), so only the positive roots
    are scanned: one of degree 0 stands for two roots of degree 0, and one of
    degree +-1 for one root of degree 1.  The degree is additive, so it is
    carried along the spanning tree from the weights (`RootSystem.carried`).
    """
    if w.simple_type != rs.simple_type:
        raise TypeMismatch(f"diagram of type {w.simple_type.name} against system {rs.simple_type.name}")
    degrees = rs.carried(w.weights)
    zero = degrees.count(0)
    ones = degrees.count(1) + degrees.count(-1)
    return 2 * len(degrees) - 2 * zero - ones


def dual_coxeter_number(rs: RootSystem) -> int:
    """1 + the sum of the highest root's coefficients over the coroot basis.

    The minimal nilpotent orbit is the unique nonzero orbit of dimension
    2h^v - 2 (Collingwood-McGovern), which this reaches without a grading.
    """
    # d_i = <a_i, a_i>/2 is scaled_gram[i][i] / (2 gram_scale); sum c_i d_i is phi^v's height
    g = rs.scaled_gram
    total, rest = divmod(sum(c * g[i][i] for i, c in enumerate(rs.highest)), 2 * rs.gram_scale)
    if rest:
        raise InvalidType(f"{rs.simple_type.name}: the highest coroot has non-integral coefficients")
    return 1 + total


def read_cartan_type(rows: Sequence[Sequence[int]]) -> tuple[SimpleType, tuple[int, ...]] | None:
    """The simple type t of integer Cartan rows and the node order with
    cartan_matrix(t)[k][l] == rows[order[k]][order[l]], or None for rows
    that are no Cartan matrix of a connected Dynkin diagram.

    Rows of more than MAX_RANK nodes give None: no type above the cap is
    built.  Each distinct matrix is read once: the answers are kept in an LRU of
    256 keyed on the rows (`cache_info` and `cache_clear` are its own).
    Rows that do not hash, lists say, are keyed as tuples.
    """
    try:
        return _read_cartan_type(rows)
    except TypeError:
        # the body raises none on int rows: this is the LRU hashing its key
        return _read_cartan_type(tuple(map(tuple, rows)))


@lru_cache(maxsize=256)
def _read_cartan_type(rows: IntRows) -> tuple[SimpleType, tuple[int, ...]] | None:
    """`read_cartan_type` on hashable rows.

    The type is read off the diagram (Bourbaki VI 4.2): a chain is A, B, C,
    F4 or G2 by its one multiple bond C[i][j] C[j][i] > 1 and where it sits,
    and a tree with one branch node is D or E by the lengths of its three
    arms.  The order walks the diagram in Bourbaki's numbering, a multiple
    bond's arrow turned the way `cartan_matrix` has it, and one comparison of
    the relabelled rows with `cartan_matrix(t)` confirms both.
    """
    r = len(rows)
    if r > MAX_RANK:
        return None
    if r < 2:
        return (SimpleType("A", 1), (0,)) if r and rows[0][0] == 2 else None
    nodes = range(r)
    neighbours = [[j for j in compress(nodes, row) if j != i] for i, row in enumerate(rows)]
    degree = list(map(len, neighbours))

    def arm(prev: int, node: int) -> list[int]:
        """The nodes from `node` on, away from `prev`, up to an end."""
        path = [node]
        while degree[node] == 2 and len(path) < r:
            # the neighbour of node that is not prev
            prev, node = node, neighbours[node][neighbours[node][0] == prev]
            path.append(node)
        return path

    branches = [i for i in nodes if degree[i] > 2]
    if not branches:
        end = next((i for i in nodes if degree[i] == 1), None)
        if end is None:
            return None
        order = [end] + arm(end, neighbours[end][0])
        bonds = [(k, rows[a][b] * rows[b][a]) for k, (a, b) in enumerate(zip(order, order[1:]))]
        multiple = [(k, bond) for k, bond in bonds if bond != 1]
        if not multiple:
            letter = "A"
        elif len(multiple) > 1:
            return None
        else:
            ((k, bond),) = multiple
            if bond == 3 and r == 2:
                # G2: a_1 is the short root, C[0][1] = -1
                letter = "G"
                if rows[order[0]][order[1]] != -1:
                    order.reverse()
            elif bond == 2 and r == 4 and k == 1:
                # F4: a_2 long and a_3 short, C[1][2] = -2
                letter = "F"
                if rows[order[1]][order[2]] != -2:
                    order.reverse()
            elif bond == 2 and k in (0, r - 2):
                # the double bond last; B_r has C[r-2][r-1] = -2, C_r has -1
                if k != r - 2:
                    order.reverse()
                letter = "B" if rows[order[-2]][order[-1]] == -2 else "C"
            else:
                return None
    elif len(branches) == 1 and degree[branches[0]] == 3:
        branch = branches[0]
        short, middle, long = sorted((arm(branch, j) for j in neighbours[branch]), key=len)
        if len(short) == len(middle) == 1:
            # D_r: a_1 .. a_{r-2} along the long arm, then the two short arms
            letter = "D"
            order = long[::-1] + [branch] + short + middle
        elif len(short) == 1 and len(middle) == 2 and 6 <= r <= 8:
            # E_r: a_1 - a_3 - a_4 - ... - a_r with a_2 on a_4
            letter = "E"
            order = [middle[1], short[0], middle[0], branch] + long
        else:
            return None
    else:
        return None
    # an order that misses or repeats a node relabels to no Cartan matrix of rank r
    t = SimpleType(letter, r)
    pick = itemgetter(*order)
    if tuple(map(pick, pick(rows))) != cartan_matrix(t):
        return None
    return t, tuple(order)


read_cartan_type.cache_info = _read_cartan_type.cache_info
read_cartan_type.cache_clear = _read_cartan_type.cache_clear


def diagram_automorphisms(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Every permutation sigma of the nodes with C[sigma i][sigma j] = C[i][j],
    the identity first and the rest in increasing order: the reversal of
    A_n (n >= 2), the permutations of D4's three outer nodes, which fix the
    branch node 1, the swap of D_n's last two nodes (n >= 5) and E6's
    reflection; every other type has the identity only (Humphreys 12.2)."""
    n = t.rank
    ident = tuple(range(n))
    if t.letter == "A" and n > 1:
        return ident, ident[::-1]
    if t.letter == "D" and n == 4:
        return tuple((a, 1, b, c) for a, b, c in permutations((0, 2, 3)))
    if t.letter == "D":
        return ident, ident[:-2] + (n - 1, n - 2)
    if t.letter == "E" and n == 6:
        return ident, (5, 1, 4, 3, 2, 0)
    return (ident,)


def duality_permutation(t: SimpleType) -> tuple[int, ...]:
    """The involution -w0 induces on the simple roots, in Bourbaki order:
    the last of the diagram automorphisms, the identity where it is the
    only one and for D_n with n even, where w0 = -1."""
    automorphisms = diagram_automorphisms(t)
    return automorphisms[0] if t.letter == "D" and t.rank % 2 == 0 else automorphisms[-1]
