"""Shape parameters, exponent matrices, and the (cone-)hyperbolic gluing
equations.

The three labels z, z', z'' are assigned to opposite-edge pairs of each
tetrahedron; with the local frame (0, oo, 1, z) used by the developing
module, the consistent assignment is

    {01, 23} -> z        {02, 13} -> z''        {03, 12} -> z'

(the other orientation convention swaps z' and z'' and breaks the contract
that the composed rotation around an edge has multiplier h(e); see the
developing-module tests, which pin this down against the closed-form Hopf
and trefoil holonomies).

The equations are read off the triangulation's compiled tables
(`triangulation.edge_tables`) into one gluing system, compiled once per
triangulation: the exponent matrix, kept as its nonzero
(edge, tetrahedron) pairs, counted with `np.bincount` from the slots on
each edge class's orbit, with its cusp relations `E.relations` from the
vertex classes at each edge's ends.  h, J and d log h / dz (as their
values there) and the residual are evaluated over the pairs.  So are a
Gauss-Newton step's J x, J^H y and J J^H + U^H U (`pair_matvec`,
`pair_rmatvec`, `normal_matrix`), the last two in tetrahedron order
through the exponent matrix's index of its pairs by tetrahedron; J^H's
values in that order (`pair_adjoint`) and the scatter index of a stack of
normal matrices (`normal_index`) are the caller's, formed once per step
and once per solve.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import operator

import numpy as np

from .errors import DegenerateShape, IdealGlueError, NotUnitModulus
from .triangulation import SLOT_INDEX, Triangulation, compiled, edge_tables

DEGENERACY_GUARD = 1e-8
HUGE_SHAPE = 2.0 ** 20      # |z| past it: z' and z'' from 1 / z
UNIT_TOL = 1e-8         # every |x| = 1 test: abs(abs(x) - 1.0) < UNIT_TOL

LABEL_Z, LABEL_ZP, LABEL_ZPP = 0, 1, 2
LABEL_NAMES = ("z", "z'", "z''")

# slot index (into EDGE_SLOTS) -> label
SLOT_LABELS = (LABEL_Z, LABEL_ZPP, LABEL_ZP, LABEL_ZP, LABEL_ZPP, LABEL_Z)
_SLOT_LABELS = np.array(SLOT_LABELS)


def edge_slot_label(slot) -> str:
    """Label carried by an edge slot, as one of "z", "z'", "z''".

    `slot` is an index 0..5 into EDGE_SLOTS, of any integer type, or an
    unordered vertex pair; raises IdealGlueError naming it otherwise.
    """
    try:
        index = operator.index(slot)
    except TypeError:                   # then a vertex pair, in any order
        index = -1
        with contextlib.suppress(TypeError):
            index = SLOT_INDEX.get(tuple(sorted(slot)), -1)
    if not 0 <= index < len(SLOT_LABELS):
        raise IdealGlueError(f"edge slot {slot!r} is neither an index 0..5 "
                             "nor an edge (a pair of vertices 0..3) of a "
                             "tetrahedron")
    return LABEL_NAMES[SLOT_LABELS[index]]


def in_guard_band(Z) -> np.ndarray:
    """Per row of a complex array Z: does some shape lie within
    DEGENERACY_GUARD of {0, 1}?  The guard band's one array test."""
    return (np.minimum(np.abs(Z), np.abs(Z - 1.0)) < DEGENERACY_GUARD).any(-1)


def _nondegenerate(Z) -> bool:
    """Does every shape of a complex array Z pass `check_nondegenerate`?
    Its one array test."""
    # |z| is finite exactly when z is and its modulus is a float
    return bool(np.isfinite(np.abs(Z)).all() and not in_guard_band(Z).any())


def check_nondegenerate(z: complex) -> complex:
    """z as a complex number; raises DegenerateShape when z is not finite,
    its modulus is past the largest float, or it lies within
    DEGENERACY_GUARD of {0, 1}: `ShapeAssignment`'s test."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DegenerateShape(f"shape {z} is not finite")
    if math.hypot(z.real, z.imag) == math.inf:
        raise DegenerateShape(f"shape {z} has a modulus past the largest "
                              "float")
    if min(abs(z), abs(z - 1)) < DEGENERACY_GUARD:
        raise DegenerateShape(f"shape {z} within {DEGENERACY_GUARD} of {{0, 1}}")
    return z


def _triples(z: np.ndarray) -> np.ndarray:
    """(z, z', z'') per shape, as the columns of an n-by-3 array.

    Where |z| passes HUGE_SHAPE the triple is taken from w = 1 / z, with
    the divisor scaled by 1/4 (exactly) first: z' = -w / (1 - w),
    z'' = 1 - w.  The quotients fail there in two ways.  NumPy divides
    complex numbers by Smith's method, whose denominator c + d (d / c)
    overflows once the divisor's modulus passes the largest float over
    sqrt 2, making z' 0 and z'' nan.  Below that, (z - 1) / z rounds the
    argument of z'', about -Im w, to about 1e-16 absolute, and the
    Bloch-Wigner dilogarithm multiplies it by log|z'|, up to about 700;
    1 - w keeps it to rounding relative to w.  Shapes with
    |z| <= HUGE_SHAPE keep the quotients above, bit for bit."""
    big = np.abs(z) > HUGE_SHAPE
    huge = big.any()
    safe = np.where(big, 2.0, z) if huge else z     # huge: set below
    triple = np.stack([z, 1.0 / (1.0 - safe), (safe - 1.0) / safe], axis=-1)
    if huge:
        w = 0.25 / (z[big] * 0.25)
        triple[big, 1], triple[big, 2] = -w / (1.0 - w), 1.0 - w
    return triple


def derive_shape_triple(z: complex):
    """(z, z', z'') with z' = 1/(1-z) and z'' = (z-1)/z, as the one-element
    `_triples`: finite for every shape `check_nondegenerate` accepts.

    The triple satisfies z(1-z'') = z'(1-z) = z''(1-z') = 1 and
    z z' z'' = -1 exactly (to rounding).
    """
    return tuple(_triples(np.array([check_nondegenerate(z)]))[0].tolist())


class FrozenSlots:
    """Base of the immutable records whose fields are their `__slots__`:
    two are equal when of one class with equal fields, hash as the tuple
    of their fields and show as ``Name(field=value, ...)``.  A subclass's
    __init__ checks its fields and sets them with `object.__setattr__`;
    assigning or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):               # copy and pickle through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an "
                             f"immutable {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an "
                             f"immutable {type(self).__qualname__}")


def _stack_rows(cls, rows: np.ndarray, ok: bool) -> list:
    """One cls per row of `rows`, checked by the one array test `ok`: its
    one field is set to the row's `tolist()` when `ok` holds, as its
    __init__ sets it, else the constructor builds each row, so its error
    names the bad entry."""
    if not ok:
        return [cls(row) for row in rows]
    field, out = cls.__slots__[0], []
    for row in rows.tolist():
        obj = object.__new__(cls)
        object.__setattr__(obj, field, tuple(row))
        out.append(obj)
    return out


# the entry types that ShapeAssignment converts as one array
_EXACT = {complex, float, int, np.complex128, np.float64}


class ShapeAssignment(FrozenSlots):
    """One shape parameter per tetrahedron, each finite and off the guard
    band around {0, 1} (`check_nondegenerate`): the one place that band is
    decided.  The array kernels take raw shape arrays, near {0, 1} too."""

    __slots__ = ("z",)

    def __init__(self, z):
        z, zs = tuple(z), None
        # one array test of the floats and complex numbers NumPy converts
        # as complex() does; else, or when it fails, one entry at a time,
        # so that the error names the first bad entry
        if set(map(type, z)) <= _EXACT:
            with contextlib.suppress(OverflowError):    # an int past floats
                a = np.array(z, dtype=complex)
                zs = tuple(a.tolist()) if _nondegenerate(a) else None
        if zs is None:
            zs = tuple(map(check_nondegenerate, z))
        object.__setattr__(self, "z", zs)

    @classmethod
    def rows(cls, Z) -> list:
        """One ShapeAssignment per row of a complex array (`_stack_rows`)."""
        return _stack_rows(cls, Z, _nondegenerate(Z))

    def __len__(self):
        return len(self.z)

    def __getitem__(self, i) -> complex:
        return self.z[i]


class ConeTarget(FrozenSlots):
    """A target xi_e per edge class with |xi_e| within UNIT_TOL of 1.  The
    all-ones vector gives the classical hyperbolic gluing equations."""

    __slots__ = ("xi",)

    def __init__(self, xi):
        vals = tuple(map(complex, xi))
        for x in vals:
            if not abs(abs(x) - 1.0) < UNIT_TOL:    # also rejects nan and inf
                raise NotUnitModulus(f"xi[{vals.index(x)}] = {x} has "
                                     f"|xi| = {abs(x)}")
        object.__setattr__(self, "xi", vals)

    @classmethod
    def rows(cls, H) -> list:
        """One ConeTarget per row of a complex array (`_stack_rows`)."""
        return _stack_rows(cls, H, (np.abs(np.abs(H) - 1.0) < UNIT_TOL).all())

    def __len__(self):
        return len(self.xi)

    def __getitem__(self, j) -> complex:
        return self.xi[j]

    @classmethod
    def ones(cls, m: int) -> "ConeTarget":
        """The all-ones target, built without the test its entries pass."""
        target = object.__new__(cls)
        object.__setattr__(target, "xi", (1.0 + 0.0j,) * m)
        return target


class ExponentMatrix:
    """Slot-label counts a, a', a'' per (edge class, tetrahedron), kept as
    their nonzero pairs.

    a[j, i] counts the slots of tetrahedron i in edge class j that carry
    the label z, and a', a'' likewise for z', z''.  Each tetrahedron has two
    slots of each label, so every column of each m-by-n matrix sums to 2,
    and row sums across the three give the edge degrees `degree`.

    The nonzero (edge, tetrahedron) pairs, in row-major order, are the
    index arrays `rows`, `cols` with their exponents `pair_a`,
    `pair_a_prime`, `pair_a_second`; `row_starts[j]` is the first pair of
    edge j, and `degree_one` the indices of the edges of degree one.

    For J^H y and J J^H + U^H U, the pairs are indexed by tetrahedron:
    `by_tet` lists the pairs in tetrahedron order, each tetrahedron's in
    edge order, `tet_rows` their edges and `tet_starts[i]` the first of
    tetrahedron i; for every two edges j, k at one tetrahedron i, in
    tetrahedron order, `pair_pairs` holds the pairs p = (j, i) and
    q = (k, i) (all the p, then all the q) and `pair_entry` the flat index
    j m + k of the entry of an m-by-m matrix they add to.

    `relations` is the c-by-m cusp relation matrix W with its rows scaled
    to norm 1, where W[v, e] counts the ends of edge class e at vertex
    class v.  Around vertex class v every corner contributes log z +
    log z' + log z'' = log(-1), so sum_e W[v, e] log h(e) is constant and
    sum_e (W[v, e] / h(e)) J[e, :] = 0: the rows of W / h lie in the left
    null space of the Jacobian (Neumann-Zagier).  Unit rows keep a step's
    J J^H + U^H U, U = W / h, well conditioned at every n.

    The arrays are shared and read-only.  The dense matrices `a`,
    `a_prime`, `a_second` are built when read (`dense`).
    """

    __slots__ = ("edge_count", "tet_count", "degree", "rows", "cols",
                 "pair_a", "pair_a_prime", "pair_a_second", "row_starts",
                 "degree_one", "relations", "by_tet", "tet_rows",
                 "tet_starts", "pair_pairs", "pair_entry")

    def __init__(self, degree, tet_count: int, rows, cols, counts, relations):
        m, n = self.edge_count, self.tet_count = len(degree), tet_count
        self.degree, self.rows, self.cols = degree, rows, cols
        self.relations = relations
        self.pair_a, self.pair_a_prime, self.pair_a_second = (
            np.ascontiguousarray(counts.T))
        self.row_starts = np.searchsorted(rows, np.arange(m))
        self.degree_one = np.flatnonzero(degree == 1)
        self.by_tet = by_tet = np.argsort(cols, kind="stable")
        tets, self.tet_rows = cols[by_tet], rows[by_tet]
        self.tet_starts = np.searchsorted(tets, np.arange(n))
        at = np.full((n, 6), -1)        # a tetrahedron has at most 6 edges
        at[tets, np.arange(len(tets)) - np.searchsorted(tets, tets)] = by_tet
        p, q = np.repeat(at, 6, axis=1), np.tile(at, 6)     # (n, 36)
        keep = (p >= 0) & (q >= 0)
        p, q = p[keep], q[keep]
        self.pair_pairs = np.concatenate([p, q])
        self.pair_entry = rows[p] * m + rows[q]
        for name in self.__slots__[2:]:       # the arrays
            getattr(self, name).setflags(write=False)

    def dense(self, values) -> np.ndarray:
        """`values` at the pairs, 0 elsewhere: m-by-n, read-only."""
        M = np.zeros(values.shape[:-1] + (self.edge_count, self.tet_count),
                     dtype=values.dtype)
        M[..., self.rows, self.cols] = values
        M.setflags(write=False)
        return M

    a = property(lambda self: self.dense(self.pair_a))
    a_prime = property(lambda self: self.dense(self.pair_a_prime))
    a_second = property(lambda self: self.dense(self.pair_a_second))


@compiled
def build_exponent_matrix(t: Triangulation, edges=None) -> ExponentMatrix:
    """The exponent matrix of t's edge classes, with its cusp relations,
    compiled once per triangulation.  `edges` (t's own edge classes) is
    ignored; it stays in the signature because the benchmark harness and
    the tests pass it.

    Each of the 6n slots adds one to the count of its label at (its edge
    class, its tetrahedron): the pairs are the distinct keys
    class * n + tetrahedron, and `np.bincount` counts the labels per key.
    Each edge class adds one to W at the vertex class of each of its ends.
    """
    tables, n = edge_tables(t), t.tetra_count
    slot = np.arange(6 * n)
    keys, pair = np.unique(tables.slot_class * n + slot // 6,
                           return_inverse=True)
    counts = np.bincount(3 * pair + _SLOT_LABELS[slot % 6],
                         minlength=3 * len(keys)).reshape(-1, 3)
    ends = tables.ends
    W = np.zeros((tables.vertex_count, len(ends)), dtype=int)
    np.add.at(W, (ends.T, np.arange(len(ends))), 1)
    return ExponentMatrix(tables.degree, n, keys // n, keys % n, counts,
                          W / np.linalg.norm(W, axis=1, keepdims=True))


def check_target_length(xi: ConeTarget, E: ExponentMatrix) -> None:
    """Raise IdealGlueError unless xi has one target per edge class."""
    if len(xi) != E.edge_count:
        raise IdealGlueError(f"expected {E.edge_count} xi entries (one per "
                             f"edge class), got {len(xi)}")


def check_shape_length(Z, E: ExponentMatrix) -> None:
    """Raise IdealGlueError unless Z has one shape per tetrahedron."""
    if len(Z) != E.tet_count:
        raise IdealGlueError(f"expected {E.tet_count} shapes (one per "
                             f"tetrahedron), got {len(Z)}")


def _shapes(Z: ShapeAssignment | np.ndarray) -> np.ndarray:
    return np.asarray(Z.z if isinstance(Z, ShapeAssignment) else Z,
                      dtype=complex)


def all_holonomies(Z: ShapeAssignment | np.ndarray,
                   E: ExponentMatrix) -> np.ndarray:
    """h(e_j) = prod_i z_i^a z_i'^a' z_i''^a'', the product of the shape
    parameters at every slot of edge j; the integer powers are exact.

    Z is a ShapeAssignment or an array of shapes whose last axis runs over
    the tetrahedra; leading axes are a batch, and each row's holonomies
    equal those of the row alone, bit for bit.  Only the nonzero
    (edge, tetrahedron) pairs are evaluated, each power first and then the
    product in tetrahedron order, which is the dense product's order.
    """
    w = _shapes(Z).take(E.cols, axis=-1)
    return np.multiply.reduceat(w ** E.pair_a * (1.0 / (1.0 - w)) ** E.pair_a_prime
                                * ((w - 1.0) / w) ** E.pair_a_second,
                                E.row_starts, axis=-1)


def evaluate_residual(Z: ShapeAssignment | np.ndarray, E: ExponentMatrix,
                      xi: ConeTarget | np.ndarray,
                      h: np.ndarray | None = None) -> np.ndarray:
    """Component j is h(e_j) - xi_j; identically zero exactly on solutions of
    the xi-hyperbolic gluing equations.  xi is a ConeTarget or the array of
    its values; Z may carry batch axes as in `all_holonomies`.  `h`, when
    given, is `all_holonomies(Z, E)`, as in `jacobian`."""
    target = np.array(xi.xi) if isinstance(xi, ConeTarget) else xi
    return (all_holonomies(Z, E) if h is None else h) - target


def log_jacobian(Z: ShapeAssignment | np.ndarray,
                 E: ExponentMatrix) -> np.ndarray:
    """Analytic complex Jacobian d log h(e_j) / d z_i at E's nonzero
    (edge, tetrahedron) pairs, shaped as `jacobian`'s values: log h(e_j) =
    sum_i a log z + a' log z' + a'' log z'' is a sum, so with
    d log z'/dz = 1/(1-z) and d log z''/dz = 1/(z(z-1)) the value at the
    pair (j, i) is a/z + a'/(1-z) + a''/(z(z-1)), and needs no h."""
    w = _shapes(Z).take(E.cols, axis=-1)
    return (E.pair_a / w + E.pair_a_prime / (1.0 - w)
            + E.pair_a_second / (w * (w - 1.0)))


def jacobian(Z: ShapeAssignment | np.ndarray, E: ExponentMatrix,
             h: np.ndarray | None = None) -> np.ndarray:
    """Analytic complex Jacobian d h(e_j) / d z_i at E's nonzero (edge,
    tetrahedron) pairs, shape (..., nnz) with the leading batch axes of Z
    (one row per shape vector, as in `all_holonomies`); `E.dense` builds
    the m-by-n matrix.  `h`, when given, is `all_holonomies(Z, E)`, which
    a caller that has computed it need not have computed twice.

    J[j,i] = h(e_j) d log h(e_j) / d z_i, the log-derivative at the pair
    (j, i) being `log_jacobian`'s.
    """
    z = _shapes(Z)
    if h is None:
        h = all_holonomies(z, E)
    return h.take(E.rows, axis=-1) * log_jacobian(z, E)


def pair_matvec(V: np.ndarray, E: ExponentMatrix, x: np.ndarray) -> np.ndarray:
    """D x for the m-by-n D with the values V on E's pairs (a Jacobian,
    its rows rescaled or not), or per row of stacks (k, nnz) and (k, n);
    row j sums edge j's pairs in tetrahedron order."""
    return np.add.reduceat(V * x.take(E.cols, axis=-1), E.row_starts, axis=-1)


def pair_adjoint(V: np.ndarray, E: ExponentMatrix) -> np.ndarray:
    """The values of D^H for `pair_rmatvec`, D as in `pair_matvec`: the
    conjugates of V, in tetrahedron order.  A step forms them once and
    reads them for every D^H product it takes."""
    return V.conj().take(E.by_tet, axis=-1)


def pair_rmatvec(Vh: np.ndarray, E: ExponentMatrix,
                 y: np.ndarray) -> np.ndarray:
    """D^H y as `pair_matvec` takes D x, given D^H's values
    Vh = `pair_adjoint(V, E)`, or per row of stacks; y may carry one more
    leading axis than Vh.  Entry i sums tetrahedron i's pairs in edge
    order.  For a real y it is A^T y, read as a complex vector, of the real
    m-by-2n A = [Re D, -Im D]."""
    # np.multiply, not `*`: from 256 KiB on, `*` computes into its
    # temporary right operand, where NumPy's complex product can round
    # differently than out of place
    return np.add.reduceat(np.multiply(Vh, y.take(E.tet_rows, axis=-1)),
                           E.tet_starts, axis=-1)


def normal_index(E: ExponentMatrix, count: int) -> np.ndarray:
    """The flat index that `normal_matrix` adds the pair products of a
    stack of `count` m-by-m matrices into, the first matrix's entries
    first; its prefix addresses the first matrices of the stack.  A solve
    builds it once, with its workspace, when it starts (see `solver`)."""
    size = E.edge_count ** 2
    return (np.arange(0, count * size, size)[:, None] + E.pair_entry).ravel()


def normal_matrix(V: np.ndarray, E: ExponentMatrix, M: np.ndarray,
                  index: np.ndarray) -> np.ndarray:
    """D D^H + U^H U, for D as in `pair_matvec` and a c-by-m matrix U, or
    for each row of stacks of them, (k, nnz) and (k, c, m), formed in the
    caller's C-contiguous M, which holds U^H U on entry.  With a real M (a
    real U) it is Re(D D^H) + U^T U, which is A A^T for the real m-by-2n
    matrix A = [Re D, -Im D].

    The caller owns M and `index`: each solve writes U^H U into one
    workspace it allocates when it starts, so that its m-by-m matrices
    are not allocated anew on every iteration, and builds the workspace's
    `normal_index` with it, whose prefix addresses the k matrices of M
    (see `solver`).  Entry (j, k) of M gets the product v_p conj(v_q) of
    D's values at the pairs p = (j, i), q = (k, i) for each tetrahedron i
    that edges j and k share: at most 36 n products, where the dense
    product costs O(m^2 n).  One unbuffered `np.add.at` adds them to M in
    place in the index's order, so each entry is summed in tetrahedron
    order, as a sum of per-tetrahedron outer products sums it.  Returns M."""
    v, half = V.take(E.pair_pairs, axis=-1), len(E.pair_entry)
    prod = v[..., :half] * v[..., half:].conj()
    if M.dtype.kind != "c":
        prod = prod.real
    np.add.at(M.reshape(-1), index[:prod.size], prod.ravel())
    return M


def xi_from_shapes(Z: ShapeAssignment, E: ExponentMatrix) -> ConeTarget:
    """The cone targets (h(e_1), ..., h(e_m)) that the shapes Z solve.
    Raises NotUnitModulus, naming every edge whose |h(e)| fails
    `ConeTarget`'s test, and that |h(e)| (nan where h overflows), when Z is
    not a cone point, and IdealGlueError unless Z has one shape per
    tetrahedron."""
    check_shape_length(Z, E)
    with np.errstate(over="ignore", invalid="ignore"):
        h = all_holonomies(Z, E).tolist()
    bad = [j for j, x in enumerate(h) if not abs(abs(x) - 1.0) < UNIT_TOL]
    if bad:
        raise NotUnitModulus("the shapes are not a cone point: " + ", ".join(
            f"e{j} has |h(e)| = {abs(h[j]):.9g}" for j in bad))
    return ConeTarget(h)
