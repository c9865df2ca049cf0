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
as its tuple, an entry that is not an integer (a float or a str; a bool counts
as 0 or 1) raises DimensionMismatch, and a vector that must be a root and is
not raises NotARoot.

Walks keep an integer vector v as one int, sum(v_j * 256**(width*j)), entry
j in lane j of ``width`` bytes: Z-linear, so a sum or multiple of packed
vectors is one int operation, and one to one on entries in a lane's signed
range.  Each caller fixes its width by the largest entry it can meet.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress, repeat
from operator import add, index, mul, sub

from .errors import (
    DimensionMismatch,
    DisconnectedSubset,
    InvalidType,
    NotARoot,
    TooLarge,
    UnrecognizedDiagram,
)

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
# A coroot kept sparse: the (j, c_j) pairs of its nonzero Cartan integers.
SparseRow = tuple[tuple[int, int], ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

# Largest rank build_root_system accepts: without a limit, the steeply growing
# cost of a system and its w0 keeps a type such as A1000 running for minutes.
_MAX_RANK = 64


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
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as __setattr__ refuses
        return type(self), self._values()


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
        fam, n = self.family, self.rank
        admissible = (
            (fam in _MIN_RANK and n >= _MIN_RANK[fam])
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not admissible:
            raise InvalidType(f"no root system of type {fam}{n}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_type(text: str) -> RootSystemType:
    """Parse a type string such as ``"F4"`` or ``"A5"`` into a RootSystemType."""
    fam, digits = text[:1], text[1:]
    if fam not in "ABCDEFG" or not (digits.isascii() and digits.isdigit()):
        raise InvalidType(f"cannot parse root-system type {text!r}")
    return RootSystemType(fam, int(digits))


class RootSystem(_Record):
    """A constructed root system.

    ``gram2`` is the doubled Gram matrix of the simple roots,
    ``simple_coroots`` their sparse coroots, the rows every walk reads,
    ``positive_roots`` lists every positive root ordered by height and then
    lexicographically by coefficient vector, and ``root_index`` maps each
    positive root to its position in that list.  Instances are immutable and
    shared: :func:`build_root_system` caches them per type, and they compare
    and hash by identity.
    """

    __slots__ = ("type", "gram2", "simple_coroots", "positive_roots", "root_index")
    _hidden = ("simple_coroots", "positive_roots", "root_index")
    type: RootSystemType
    gram2: Matrix
    simple_coroots: tuple[SparseRow, ...]
    positive_roots: tuple[Root, ...]
    root_index: dict[Root, int]

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
        try:
            i = index(i)
        except TypeError:
            raise DimensionMismatch(f"simple-root index {i!r} is not an integer") from None
        if not 1 <= i <= self.rank:
            raise DimensionMismatch(f"simple-root index {i} outside 1..{self.rank}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def identity_matrix(n: int) -> Matrix:
    """The n x n identity; its rows are the simple roots."""
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


def _combination(vectors, a: Root) -> Root:
    """The sum of a_k * vectors[k] over the support of a: M a from the
    columns of M, and G a from the rows of the symmetric Gram matrix G."""
    total = (0,) * len(vectors[0])
    for k in compress(range(len(a)), a):
        total = _sub_multiple(total, -a[k], vectors[k])
    return total


def _coroot(gram2: Matrix, a: Root) -> SparseRow:
    """The coroot of a root a in the basis dual to the simple roots: the
    Cartan integers c_j = <a_j, a-check> = 2*(a_j, a)/(a, a), kept as the
    (j, c_j) pairs of the nonzero ones.  G a is the sum of the Gram rows on
    a's support, so a simple root costs one row read."""
    ga = _combination(gram2, a)
    den = _dot(a, ga)
    row = []
    for j in compress(range(len(ga)), ga):
        c, rem = divmod(2 * ga[j], den)
        assert rem == 0, "Cartan integer must be exact for lattice vectors"
        row.append((j, c))
    return tuple(row)


def _simple_coroots(gram2: Matrix) -> tuple[SparseRow, ...]:
    """The coroots of the simple roots.  Row i is nonzero only at i and its
    Dynkin neighbours, at most four entries."""
    return tuple(_coroot(gram2, a) for a in identity_matrix(len(gram2)))


def _pair(x: Root, row: SparseRow) -> int:
    """<x, a-check>, given the coroot of a as its sparse row."""
    k = 0
    for j, c in row:
        k += x[j] * c
    return k


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints, taken through ``index``; DimensionMismatch
    names ``what`` when an entry is not an integer."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DimensionMismatch(f"{what} {values!r} has an entry that is not an integer") from None


def _dot(x: Root, y: Root) -> int:
    return sum(map(mul, x, y))


def _sub_multiple(x: Root, c: int, v: Root) -> Root:
    """x - c*v, one C-level map over the two vectors."""
    if c == 1:
        return tuple(map(sub, x, v))
    if c == -1:
        return tuple(map(add, x, v))
    return tuple(map(sub, x, map(mul, repeat(c), v)))


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
    """The signed lanes of packed ints, ``count`` to an int, int after int:
    with the bias added each lane is v + half, and xor makes it v's two's
    complement.  ``to_bytes`` writes in the host's order (Python 3.10 needs
    it given), so a big-endian host reverses the ints and then the view.
    Ints are joined 4096 at a time, which bounds the bytes objects alive."""
    bias, size, order = _bias(count, width), width * count, sys.byteorder
    ints = packed if order == "little" else packed[::-1]
    data = bytearray()
    for k in range(0, len(ints), 4096):
        data += b"".join([((x + bias) ^ bias).to_bytes(size, order) for x in ints[k : k + 4096]])
    view = memoryview(data).cast({1: "b", 2: "h", 4: "i"}[width])
    return view if order == "little" else view[::-1]


def _enumerate_positive_roots(coroots: tuple[SparseRow, ...]) -> tuple[Root, ...]:
    """Enumerate all positive roots as the closure of the simple roots under
    upward simple reflections: a non-simple positive root r has some
    <r, a_i-check> > 0, and s_i(r) is a lower positive root that moves up to
    r.  Ordering is by height, ties broken lexicographically.

    A root x is one int: its Dynkin labels <x, a_j-check>, in -3..3, in the
    low n 1-byte lanes and its coefficients, in 0..6, in the high n.  The
    step s_i(x) = x - p_i * a_i is one int operation on the packed a_i, taken
    when the label p_i is negative: when byte i of x plus the bias is below
    128, the bias in each label lane."""
    n, w = len(coroots), 2 * len(coroots)
    simple = list(map(add, _sparse_columns(coroots, n, 1), _units(w, 1)[n:]))
    new, roots, bias = simple, set(simple), _bias(n, 1)
    while new:
        biased = [(x, (x + bias).to_bytes(w, "little")) for x in new]
        up = {x - (p - 128) * a for x, ps in biased for p, a in zip(ps, simple) if p < 128}
        new = list(up - roots)
        roots.update(new)
    lanes = _lanes(list(roots), w, 1)
    vectors = zip(*[lanes[j::w] for j in range(n, w)])
    return tuple(sorted(vectors, key=lambda r: (sum(r), r)))


def _check_rank(t: RootSystemType) -> RootSystemType:
    """t itself, or TooLarge when its rank is above ``_MAX_RANK`` (64)."""
    if t.rank > _MAX_RANK:
        raise TooLarge(f"{t} has rank {t.rank}, over the limit of {_MAX_RANK}")
    return t


@lru_cache(maxsize=None)
def build_root_system(t: RootSystemType) -> RootSystem:
    """Construct (and cache) the root system of an admissible type; a rank
    above ``_MAX_RANK`` (64) raises TooLarge before any root is enumerated."""
    gram2 = _gram2_for(_check_rank(t))
    coroots = _simple_coroots(gram2)
    positive = _enumerate_positive_roots(coroots)
    index = {r: i for i, r in enumerate(positive)}
    return RootSystem(t, gram2, coroots, positive, index)


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
        raise NotARoot(f"{x} is not a root of {rs.type}")
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
    return tuple(compress(range(1, len(x) + 1), _integers(x, "vector")))


def height(x: Root) -> int:
    return sum(_integers(x, "vector"))


def pairing2(rs: RootSystem, x: Root, y: Root) -> int:
    """The doubled inner product 2*(x, y); exact for all lattice vectors."""
    if len(x) != rs.rank or len(y) != rs.rank:
        raise DimensionMismatch(
            f"vectors of length {len(x)} and {len(y)} in a rank-{rs.rank} system"
        )
    return _pairing2(rs, _integers(x, "vector"), _integers(y, "vector"))


def _pairing2(rs: RootSystem, x: Root, y: Root) -> int:
    """``pairing2`` on checked integer vectors.  Gram row i is gram2[i][i] / 2
    times the sparse coroot row of a_i."""
    rows, g = rs.simple_coroots, rs.gram2
    return sum(x[i] * (g[i][i] // 2) * _pair(y, rows[i]) for i in compress(range(len(x)), x))


def _two_rho(rs: RootSystem) -> Root:
    """2 rho, the sum of the positive roots.  It is regular, so an element
    of W is determined by its image of 2 rho."""
    return tuple(map(sum, zip(*rs.positive_roots)))


def cartan_integer(rs: RootSystem, x: Root, a: Root) -> int:
    """The integer 2*(a, x)/(a, a) for a root ``a`` and lattice vector ``x``."""
    a, x = _root(rs, a), _integers(x, "vector")
    if len(x) != rs.rank:
        raise DimensionMismatch(f"vector of length {len(x)} in a rank-{rs.rank} system")
    return _pair(x, _coroot(rs.gram2, a))


def _components(rs: RootSystem, indices) -> list[tuple[int, ...]]:
    """The connected components of the subdiagram on the given simple-root
    indices, each ascending, ordered by their smallest index."""
    rest = set(indices)
    components = []
    while rest:
        start = min(rest)
        rest.discard(start)
        seen = [start]
        for i in seen:
            row = rs.gram2[i - 1]
            linked = {j for j in rest if row[j - 1]}
            rest -= linked
            seen.extend(linked)
        components.append(tuple(sorted(seen)))
    return components


def _index_set(rs: RootSystem, J) -> tuple[int, ...]:
    """J's distinct entries, ascending, taken through ``index``;
    DisconnectedSubset unless each is an integer in 1..rank."""
    try:
        indices = tuple(sorted({index(i) for i in J}))
    except TypeError:
        raise DisconnectedSubset(f"index set {J!r} is not a set of integers") from None
    if any(not 1 <= i <= rs.rank for i in indices):
        raise DisconnectedSubset(f"index set {list(indices)} is not a subset of 1..{rs.rank}")
    return indices


def is_connected(rs: RootSystem, indices: tuple[int, ...]) -> bool:
    """True iff the given simple-root indices span a connected subdiagram;
    the empty set does not.  An index that is not an integer in 1..rank
    raises DisconnectedSubset."""
    return len(_components(rs, _index_set(rs, indices))) == 1


def _connected_index_set(rs: RootSystem, J) -> tuple[int, ...]:
    indices = _index_set(rs, J)
    if not is_connected(rs, indices):  # the empty set included
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
    nodes = range(1, rs.rank + 1)
    return {tuple(compress(nodes, r)): r for r in rs.positive_roots}


def dominance_leq(x: Root, y: Root) -> bool:
    """Componentwise partial order: True iff every coefficient of y - x is >= 0."""
    if len(x) != len(y):
        raise DimensionMismatch(f"vectors of length {len(x)} and {len(y)}")
    x, y = _integers(x, "vector"), _integers(y, "vector")
    return all(yc - xc >= 0 for xc, yc in zip(x, y))


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
        mag = abs(c)
        coeff = "" if mag == 1 else str(mag)
        parts.append(f"{sign}{coeff}a{i}")
    return "".join(parts) if parts else "0"
