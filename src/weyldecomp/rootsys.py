"""Crystallographic root systems in the simple-root basis, with exact integers.

Roots are integer coefficient vectors over the simple roots (Bourbaki
numbering, 1-based).  All inner products are exposed in doubled form
(``pairing2(x, y) == 2*(x, y)``) so that the half-integer values occurring in
G2, B and F4 stay exact integers; no floats or rationals appear anywhere.

Normalization per family (squared lengths): A/D/E roots 2; B long 2, short 1;
C short 2, long 4; F4 long 2, short 1; G2 short 1, long 3.  Hence the doubled
Gram matrix has diagonal 4 for every squared-length-2 root, 2 for
squared-length-1, 8 for squared-length-4, and 6 for squared-length-3.  A
bond's multiplicity is the ratio of the squared lengths at its two ends, so
a Dynkin edge i - j has 2*(a_i, a_j) = -max(g_ii, g_jj)/2, minus the larger
squared length.

Inputs are read once, where a public function receives them: a list is read
as its tuple, a value that is not a sequence or an entry that is not an
integer (a float or a str; a bool counts as 0 or 1) raises DimensionMismatch
or the error its caller names (``_integers``), as does an index outside 1..rank
(``_indices``), and a vector that must be a root and is not raises NotARoot.
Every message shows a caller's value through ``_shown``.

Walks keep an integer vector v as one int, sum(v_j * 256**(width*j)), entry
j in lane j of ``width`` bytes: Z-linear, so a sum or multiple of packed
vectors is one int operation, and one to one on entries in a lane's signed
range, where a root, its entries all of one sign, packs to an int of its
sign.  Each caller fixes its width by the largest entry it can meet.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress
from operator import index, mul

from .errors import (
    DimensionMismatch,
    DisconnectedSubset,
    InvalidType,
    NotARoot,
    TooLarge,
    UnrecognizedDiagram,
)

__all__ = [
    "Matrix",
    "Root",
    "RootSystem",
    "RootSystemType",
    "build_root_system",
    "cartan_integer",
    "dominance_leq",
    "format_root",
    "height",
    "highest_root_of",
    "identity_matrix",
    "is_connected",
    "is_root",
    "pairing2",
    "parabolic_embedding",
    "parse_type",
    "support",
    "system",
]

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
# A coroot kept sparse: the (j, c_j) pairs of its nonzero Cartan integers.
SparseRow = tuple[tuple[int, int], ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXCEPTIONAL = {("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)}

# Largest rank build_root_system accepts: without a limit, the steeply growing
# cost of a system and its w0 keeps a type such as A1000 running for minutes.
_MAX_RANK = 64
# Longest rank string parse_type reads: Python's default limit on converting
# a digit string to an int, which some 3.10 patch releases do not have.
_MAX_RANK_DIGITS = 4300


class _Record:
    """A frozen record whose fields are the subclass's ``__slots__``, given by
    position or keyword.  It compares and hashes by value within its class,
    and its repr leaves out the fields in ``_hidden``.  Not a dataclass: the
    ``dataclasses`` module imports ``inspect``, most of the package's import
    time."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{n}={_shown(getattr(self, n))}" for n in self.__slots__ if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as __setattr__ refuses
        return type(self), self._values()


def _shown(value) -> str:
    """A caller's value as a message shows it: an int whole up to 12 digits,
    else its first 12 digits and its digit count, after dividing off the power
    of ten that leaves about 20 digits (0.30103 is just above log10 2); any
    other value its repr, or its type if that holds an int Python will not
    convert to a string (one of more than 4300 digits)."""
    if not isinstance(value, int):
        try:
            return repr(value)
        except ValueError:
            return f"<{type(value).__name__}>"
    if abs(value) < 10**12:
        return str(value)
    k = max(0, abs(value).bit_length() * 30103 // 100000 - 20)
    top = str(abs(value) // 10**k)
    return f"{'-' * (value < 0)}{top[:12]}... ({k + len(top)} digits)"


class RootSystemType(_Record):
    """An admissible system type: family in A..G plus rank.

    Admissible pairs: A n>=1, B n>=2, C n>=2, D n>=3, E n in {6,7,8},
    F n=4, G n=2.
    """

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        (n,) = _integers([self.rank], "root-system rank", InvalidType)  # a bool becomes its int
        object.__setattr__(self, "rank", n)
        fam = self.family
        if not isinstance(fam, str):
            raise InvalidType(f"root-system family {_shown(fam)} is not a str")
        if not (fam in _MIN_RANK and n >= _MIN_RANK[fam] or (fam, n) in _EXCEPTIONAL):
            raise InvalidType(f"no root system of type {fam}{_shown(n)}")

    def __str__(self) -> str:
        return f"{self.family}{_shown(self.rank)}"


def parse_type(text: str) -> RootSystemType:
    """Parse a type string such as ``"F4"`` or ``"A5"`` into a RootSystemType.
    A rank of more than ``_MAX_RANK_DIGITS`` digits is refused before it is
    read, whatever limit the interpreter puts on reading long digit strings."""
    fam, digits = (text[:1], text[1:]) if isinstance(text, str) else ("", "")
    if fam not in "ABCDEFG" or not (digits.isascii() and digits.isdigit()):
        raise InvalidType(f"cannot parse root-system type {_shown(text)}")
    if len(digits) > _MAX_RANK_DIGITS:
        raise InvalidType(f"root-system type {text[:12]}... has a rank of {len(digits)} digits")
    return RootSystemType(fam, int(digits))


class RootSystem(_Record):
    """A constructed root system.

    ``gram2`` is the doubled Gram matrix of the simple roots,
    ``simple_coroots`` their sparse coroots, the rows every walk reads,
    ``positive_roots`` lists every positive root ordered by height and then
    lexicographically by coefficient vector, ``root_index`` maps each
    positive root to its position in that list, ``longest`` is the longest
    element w0 and ``longest_word`` its canonical reduced word (see
    ``weyl.reduced_word_of``), both kept from the walk that enumerates the
    roots.  Instances are immutable and shared: :func:`build_root_system`
    caches them per type, and they compare and hash by identity.
    """

    _hidden = ("simple_coroots", "positive_roots", "root_index", "longest", "longest_word")
    __slots__ = ("type", "gram2", *_hidden)
    type: RootSystemType
    gram2: Matrix
    simple_coroots: tuple[SparseRow, ...]
    positive_roots: tuple[Root, ...]
    root_index: dict[Root, int]
    longest: Matrix
    longest_word: tuple[int, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def family(self) -> str:
        return self.type.family

    @property
    def highest_root(self) -> Root:
        """The dominance-maximal positive root (last in enumeration order)."""
        return self.positive_roots[-1]

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (1-based) as a coefficient vector."""
        (i,) = _indices([i], self.rank, DimensionMismatch, "simple root")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def identity_matrix(n: int) -> Matrix:
    """The n x n identity, its rows the simple roots, for an integer n up to ``_MAX_RANK``."""
    (n,) = _integers([n], "size")
    if n > _MAX_RANK:
        raise TooLarge(f"identity of size {_shown(n)} is over the limit of {_MAX_RANK}")
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def _gram2_for(t: RootSystemType) -> Matrix:
    """The doubled Gram matrix from its diagonal and the Dynkin edges, by the
    module docstring's bond rule.  Edges are 1-based: the chain 1 - 2 - .. - n,
    with D's last edge moved to the fork and E's first two to the branch."""
    fam, n = t.family, t.rank
    last = {"B": 2, "C": 8}.get(fam, 4)
    diag = {"F": [4, 4, 2, 2], "G": [2, 6]}.get(fam, [4] * (n - 1) + [last])
    edges = [(i, i + 1) for i in range(1, n)]
    if fam == "D":
        edges[-1] = (n - 2, n)
    elif fam == "E":
        edges[:2] = [(1, 3), (2, 4)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = diag[i]
    for i, j in edges:
        g[i - 1][j - 1] = g[j - 1][i - 1] = -max(diag[i - 1], diag[j - 1]) // 2
    return tuple(map(tuple, g))


def _gram_product(rs: RootSystem, a: Root) -> list[int]:
    """G a, the doubled Gram matrix times a.  Row i of G is gram2[i][i] / 2
    times the sparse coroot of a_i, so the cost is the degrees of a's support."""
    ga, g = [0] * len(a), rs.gram2
    for i in compress(range(len(a)), a):
        m = a[i] * g[i][i] // 2
        for j, c in rs.simple_coroots[i]:
            ga[j] += m * c
    return ga


def _coroot(rs: RootSystem, a: Root) -> SparseRow:
    """The coroot of a root a in the basis dual to the simple roots, as the
    (j, c_j) pairs of the nonzero c_j = <a_j, a-check> = 2 (G a)_j / (a, G a)."""
    return _coroot_and_norm(rs, a)[0]


def _coroot_and_norm(rs: RootSystem, a: Root) -> tuple[SparseRow, int]:
    """``_coroot`` of a and (a, G a), a's doubled squared length, from one G a."""
    ga = _gram_product(rs, a)
    den = _dot(a, ga)
    row = []
    for j in compress(range(len(ga)), ga):
        c, rem = divmod(2 * ga[j], den)
        assert rem == 0, "Cartan integer must be exact for lattice vectors"
        row.append((j, c))
    return tuple(row), den


def _simple_coroots(gram2: Matrix) -> tuple[SparseRow, ...]:
    """The simple coroots, c_ij = 2 g_ij / g_ii read off Gram row i (exact by
    the bond rule): nonzero only at i and its Dynkin neighbours, at most four."""
    return tuple(
        tuple((j, 2 * g // row[i]) for j, g in enumerate(row) if g) for i, row in enumerate(gram2)
    )


def _pair(x: Root, row: SparseRow) -> int:
    """<x, a-check>, given the coroot of a as its sparse row."""
    k = 0
    for j, c in row:
        k += x[j] * c
    return k


def _sequence(values, what: str, error=DimensionMismatch) -> tuple:
    """values as a tuple; ``error`` names ``what`` when it is not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} {_shown(values)} is not a sequence") from None


def _integers(values, what: str, error=DimensionMismatch) -> tuple[int, ...]:
    """values as a tuple of ints, taken through ``index``; ``error`` names
    ``what`` when it is not a sequence or an entry is not an integer."""
    try:
        return tuple(map(index, _sequence(values, what, error)))
    except TypeError:
        raise error(f"{what} {_shown(values)} has an entry that is not an integer") from None


def _indices(values, rank: int, error, what: str) -> tuple[int, ...]:
    """values as ``_integers`` reads them, and ``error`` for an entry outside 1..rank."""
    values = _integers(values, what, error)
    low, high = min(values, default=1), max(values, default=rank)
    if low < 1 or high > rank:
        raise error(f"{what}: index {_shown(low if low < 1 else high)} outside 1..{rank}")
    return values


def _vector(n: int, x) -> Root:
    """x as a tuple of n ints, read by ``_integers``; DimensionMismatch otherwise."""
    x = _integers(x, "vector")
    if len(x) != n:
        raise DimensionMismatch(f"vector of length {len(x)} where length {n} is needed")
    return x


def _dot(x: Root, y: Root) -> int:
    return sum(map(mul, x, y))


def _bias(count: int, width: int) -> int:
    """Half a lane's range, 2**(8*width-1), in each of ``count`` lanes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(vector, width: int) -> int:
    """The vector packed by one bytes-join, linear in its length: every entry
    plus half a lane's range is non-negative, and the bias comes off after."""
    half = 1 << 8 * width - 1
    data = b"".join([(v + half).to_bytes(width, "little") for v in vector])
    return int.from_bytes(data, "little") - _bias(len(vector), width)


def _units(count: int, width: int) -> list[int]:
    """The packed unit vectors: entry i has 1 in lane i."""
    return [1 << 8 * width * i for i in range(count)]


def _sparse_columns(rows, count: int, width: int) -> list[int]:
    """The ``count`` columns of sparse (j, c) rows, packed with row k in lane k."""
    columns = [[0] * len(rows) for _ in range(count)]
    for k, row in enumerate(rows):
        for j, c in row:
            columns[j][k] = c
    return [_pack(column, width) for column in columns]


def _lanes(packed: list[int], count: int, width: int) -> memoryview:
    """The signed 1- or 2-byte lanes of packed ints, ``count`` to an int, int
    after int: with the bias added each lane is v + half, and xor makes it v's
    two's complement.  ``to_bytes`` writes in the host's order (Python 3.10
    needs it given), so a big-endian host reverses the ints and then the view.
    Ints are joined 4096 at a time, which bounds the bytes objects alive."""
    bias, size, order = _bias(count, width), width * count, sys.byteorder
    ints = packed if order == "little" else packed[::-1]
    data = bytearray()
    for k in range(0, len(ints), 4096):
        data += b"".join([((x + bias) ^ bias).to_bytes(size, order) for x in ints[k : k + 4096]])
    view = memoryview(data).cast({1: "b", 2: "h"}[width])
    return view if order == "little" else view[::-1]


def _unpack(cols: list[int]) -> Matrix:
    """The matrix of packed columns, one signed byte a coefficient."""
    n = len(cols)
    entries = _lanes(cols, n, 1)
    return tuple(tuple(entries[i::n]) for i in range(n))


def _greedy_walk(rows: tuple[SparseRow, ...], values: list, letters=None):
    """Yield the letters of a greedy walk on an element's column ``values``,
    updated in place, each letter i before its step, so that the caller may
    read ``values[i - 1]`` at the yield: while some allowed value (``letters``
    ascending, 1-based; all by default) is positive, multiply on the right by
    s_i for the smallest such i, the lowest bit of a mask that a step updates
    only at i and its neighbours.  A value is a column's height or the column
    in 1-byte lanes: a root's coefficients share one sign and lie in -6..6,
    so both are positive exactly when the root is.  Heights <a_j, l> of a
    coweight l go to those of s_i(l), which drops a_i from {b > 0 : <b, l> > 0}
    and permutes the rest: the walk stops within N (N_J on letters J) steps."""
    allowed = (1 << len(values)) - 1 if letters is None else sum(1 << (i - 1) for i in letters)
    todo = sum(1 << j for j, v in enumerate(values) if v > 0) & allowed
    while todo:
        i = (todo & -todo).bit_length() - 1
        yield i + 1
        vi = values[i]
        todo ^= 1 << i
        for j, c in rows[i]:
            v = values[j] = values[j] - c * vi
            if v > 0:
                todo |= (1 << j) & allowed


def _enumerate_positive_roots(
    coroots: tuple[SparseRow, ...],
) -> tuple[tuple[Root, ...], Matrix, tuple[int, ...]]:
    """The positive roots, by height and then lexicographically, w0, and w0's
    canonical reduced word.  From the identity each greedy step sends one
    more positive root negative, so the walk on the packed columns ends at
    w0's after N steps, and its word s_i1 ... s_iN reflects each positive root
    once, at step k b_k = s_i1 ... s_i(k-1)(a_ik): column i_k, read at the
    yield.  The right descents of w0.x are the right ascents of x, so the
    descent walk down from w0 takes the same letters: the canonical word is
    i_N ... i_1."""
    n = len(coroots)
    cols = _units(n, 1)
    letters, roots = zip(*[(i, cols[i - 1]) for i in _greedy_walk(coroots, cols)])
    assert all(v < 0 for v in cols)
    lanes = _lanes(roots, n, 1)
    positive = sorted(zip(*[lanes[j::n] for j in range(n)]), key=lambda r: (sum(r), r))
    return tuple(positive), _unpack(cols), letters[::-1]


def _check_rank(t: RootSystemType) -> RootSystemType:
    """t itself, or TooLarge when its rank is above ``_MAX_RANK`` (64)."""
    if t.rank > _MAX_RANK:
        raise TooLarge(f"{t} has rank {_shown(t.rank)}, over the limit of {_MAX_RANK}")
    return t


def build_root_system(t: RootSystemType) -> RootSystem:
    """Construct (and cache) the root system of an admissible type; a rank
    above ``_MAX_RANK`` (64) raises TooLarge before any root is enumerated,
    and a value that is not a RootSystemType raises InvalidType."""
    if not isinstance(t, RootSystemType):
        raise InvalidType(f"{_shown(t)} is not a RootSystemType")
    return _build_root_system(t)


@lru_cache(maxsize=None)
def _build_root_system(t: RootSystemType) -> RootSystem:
    gram2 = _gram2_for(_check_rank(t))
    coroots = _simple_coroots(gram2)
    positive, longest, word = _enumerate_positive_roots(coroots)
    index = {r: i for i, r in enumerate(positive)}
    return RootSystem(t, gram2, coroots, positive, index, longest, word)


build_root_system.cache_info = _build_root_system.cache_info
build_root_system.cache_clear = _build_root_system.cache_clear


def system(text: str) -> RootSystem:
    """Convenience: ``system("F4")`` builds the root system parsed from text."""
    return build_root_system(parse_type(text))


def negate(x: Root) -> Root:
    return tuple(-c for c in x)


def _root(rs: RootSystem, x) -> Root:
    """x as a tuple of ints, read by ``_integers``; NotARoot unless x or -x
    is a positive root of rs."""
    x = _integers(x, "root")
    if x not in rs.root_index and negate(x) not in rs.root_index:
        raise NotARoot(f"{_shown(x)} is not a root of {rs.type}")
    return x


def is_root(rs: RootSystem, x: Root) -> bool:
    """True iff x is a root (positive or negative) of rs.  An entry that is
    not an integer raises DimensionMismatch."""
    try:
        _root(rs, x)
    except NotARoot:
        return False
    return True


def support(x: Root) -> tuple[int, ...]:
    """The 1-based indices of the nonzero coefficients of x, ascending."""
    return _support(_integers(x, "vector"))


def _support(x: Root) -> tuple[int, ...]:
    """``support`` of an int tuple that its caller built or checked."""
    return tuple(compress(range(1, len(x) + 1), x))


def height(x: Root) -> int:
    return sum(_integers(x, "vector"))


def pairing2(rs: RootSystem, x: Root, y: Root) -> int:
    """The doubled inner product 2*(x, y); exact for all lattice vectors."""
    return _pairing2(rs, _vector(rs.rank, x), _vector(rs.rank, y))


def _pairing2(rs: RootSystem, x: Root, y: Root) -> int:
    """``pairing2`` on checked integer vectors: y against G x."""
    return _dot(_gram_product(rs, x), y)


def _two_rho(rs: RootSystem) -> Root:
    """2 rho, the sum of the positive roots.  It is regular, so an element
    of W is determined by its image of 2 rho."""
    return tuple(map(sum, zip(*rs.positive_roots)))


def cartan_integer(rs: RootSystem, x: Root, a: Root) -> int:
    """The integer 2*(a, x)/(a, a) for a root ``a`` and lattice vector ``x``."""
    a, x = _root(rs, a), _vector(rs.rank, x)
    return _pair(x, _coroot(rs, a))


def _components(rs: RootSystem, indices) -> list[tuple[int, ...]]:
    """The connected components of the subdiagram on the given simple-root
    indices, each ascending, ordered by their smallest index; a node's
    neighbours are read from its sparse coroot row."""
    rest = set(indices)
    components = []
    while rest:
        start = min(rest)
        rest.discard(start)
        seen = [start]
        for i in seen:
            linked = [j + 1 for j, _ in rs.simple_coroots[i - 1] if j + 1 in rest]
            rest.difference_update(linked)
            seen.extend(linked)
        components.append(tuple(sorted(seen)))
    return components


def _index_set(rs: RootSystem, J) -> tuple[int, ...]:
    """J's distinct entries, ascending, read by ``_indices`` (DisconnectedSubset)."""
    return tuple(sorted(set(_indices(J, rs.rank, DisconnectedSubset, "index set"))))


def is_connected(rs: RootSystem, indices: tuple[int, ...]) -> bool:
    """True iff the given simple-root indices span a connected subdiagram;
    the empty set does not.  An index that is not an integer in 1..rank
    raises DisconnectedSubset."""
    return len(_components(rs, _index_set(rs, indices))) == 1


def _connected_index_set(rs: RootSystem, J) -> tuple[int, ...]:
    indices = _index_set(rs, J)
    if len(_components(rs, indices)) != 1:  # the empty set included
        raise DisconnectedSubset(f"index set {list(indices)} is not connected in {rs.type}")
    return indices


def highest_root_of(rs: RootSystem, J) -> Root:
    """The highest root of the standard parabolic subsystem on index set J.

    J must be non-empty and connected in the Dynkin diagram; the result is
    the unique root supported inside J that dominates every root supported
    inside J.
    """
    return _highest_by_support(rs)[_connected_index_set(rs, J)]


@lru_cache(maxsize=None)
def _highest_by_support(rs: RootSystem) -> dict[tuple[int, ...], Root]:
    """The highest root of the connected standard parabolic on each support,
    computed once per system: every root has a connected support, and the
    highest root of a connected parabolic has full support, so it is the
    last root listed with it."""
    return {_support(r): r for r in rs.positive_roots}


def dominance_leq(x: Root, y: Root) -> bool:
    """Componentwise partial order: True iff every coefficient of y - x is >= 0."""
    x = _integers(x, "vector")
    return all(yc - xc >= 0 for xc, yc in zip(x, _vector(len(x), y)))


def _diagram_bijection(gram2: Matrix, outer: RootSystem, nodes: tuple[int, ...]):
    """The lexicographically smallest map p -> nodes[...] under which the
    Cartan integers of ``gram2`` match those of ``outer``, as a tuple, or
    None.  A node j fits p when the placed nodes adjacent to j are the images
    of the earlier neighbours of p, with the same Cartan integers both ways.
    So p tries, in ascending order, only the nodes adjacent to the image of
    one earlier neighbour, and all of ``nodes`` when it has none; the walk's
    first complete map is still the smallest."""
    k = len(gram2)
    c_in = [{q + 1: c for q, c in row} for row in _simple_coroots(gram2)]
    rows = outer.simple_coroots
    c_out = {j: {i + 1: c for i, c in rows[j - 1] if i + 1 in nodes} for j in nodes}
    assignment: list[int] = []
    placed: set[int] = set()

    def extend(p: int) -> tuple[int, ...] | None:
        if p > k:
            return tuple(assignment)
        want = {assignment[q - 1]: (c, c_in[q - 1][p]) for q, c in c_in[p - 1].items() if q < p}
        candidates = sorted(c_out[next(iter(want))]) if want else nodes
        for j in candidates:
            if j in placed:
                continue
            if want == {jq: (c, c_out[jq][j]) for jq, c in c_out[j].items() if jq in placed}:
                assignment.append(j)
                placed.add(j)
                found = extend(p + 1)
                if found:
                    return found
                assignment.pop()
                placed.discard(j)
        return None

    return extend(1)


def parabolic_embedding(rs: RootSystem, J) -> tuple[RootSystem, dict[int, int]]:
    """Identify the abstract type of the parabolic subsystem on J.

    Returns the abstract root system of the induced diagram together with the
    map from its simple-root indices to the indices of ``rs`` (Bourbaki
    renumbering included).  When several families or bijections fit, the
    earliest family in A..G and the lexicographically smallest index map win,
    which keeps the result deterministic.
    """
    try:
        indices = _connected_index_set(rs, J)
    except DisconnectedSubset as exc:
        raise UnrecognizedDiagram(str(exc)) from None
    k = len(indices)
    for fam in "ABCDEFG":
        try:
            t = RootSystemType(fam, k)
        except InvalidType:
            continue
        match = _diagram_bijection(_gram2_for(t), rs, indices)
        if match:
            return build_root_system(t), {p + 1: j for p, j in enumerate(match)}
    raise UnrecognizedDiagram(
        f"subdiagram on {list(indices)} of {rs.type} matches no admissible type"
    )


def format_root(x: Root) -> str:
    """Human-readable rendering, e.g. (0,1,2,0) -> ``"a2+2a3"``."""
    parts: list[str] = []
    for i, c in enumerate(_integers(x, "root"), start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        coeff = "" if abs(c) == 1 else _shown(abs(c))
        parts.append(f"{sign}{coeff}a{i}")
    return "".join(parts) if parts else "0"
