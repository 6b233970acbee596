"""Sparse exact matrices with rank / solve / kernel over a field.

A matrix keeps only its nonzero entries, as a dict of columns {j: {i: x}};
absent entries read as the field's zero.  ``Matrix.from_columns`` takes
ownership of the columns it is given and drops their zero entries in
place instead of copying them, and it rejects an entry outside the
matrix.  Block matrices are not assembled here: the coboundary paths
write their blocks into one table of columns
(``cochain.write_coboundary_matrix``), so a matrix is built once, by one
``from_columns`` call.  Matrices are immutable and have no arithmetic.

The first rank, kernel or solve query eliminates a matrix once, column by
column in ascending column order, and records each column's operations:
the column is reduced against the pivot vectors found so far, each keyed
by its largest row index, until its largest row is no pivot's, and then
it is scaled into a new pivot vector, or it reduced to 0 and depends on
the columns before it.  A coboundary matrix is tall, so this works on its
short side.  Pivots keyed by the largest row fill in far less than by the
smallest.  Rank counts the pivots.  ``solve(b)`` reduces b against the
pivot vectors and expands the result back through the recorded
operations; ``kernel_basis`` expands each dependent column's record.  No
matrix is eliminated twice and nothing is back-reduced.

Both answers are the ones read off the unique reduced row echelon form.
In ascending order column j becomes a pivot iff it is independent of the
columns before it, so the pivot columns are the RREF's pivot columns.
The solution that ``solve`` expands is supported on those columns, and
so is unique: it is the RREF solution with free variables 0.  A
dependent column's record gives the kernel vector with 1 there and 0 at
every other free column, which is unique too.  Everything is exact, so
the identities asserted elsewhere (delta^2 = 0 and friends) hold with
zero tolerance.
"""

from .errors import MixedFields, ShapeMismatch
from .fields import canonical

_EMPTY = {}


def _coerce(field, x):
    if field.owns(x):
        return x
    if isinstance(x, int):
        return field.from_int(x)
    raise MixedFields("entry %r does not belong to %r" % (x, field))


def _axpy(vec, f, pivot):
    """vec -= f * pivot on sparse vectors, in place."""
    for i, x in pivot.items():
        y = vec.get(i)
        if y is None:
            vec[i] = -f * x
        elif (y := y - f * x):
            vec[i] = y
        else:
            del vec[i]


class Matrix:
    """A rows x cols matrix of exact field elements, stored by nonzero
    columns."""

    __slots__ = ("field", "rows", "cols", "_cols", "_zero", "_fact")

    def __init__(self, field, rows, cols, entries):
        """``entries``: a dense list of ``rows`` lists of ``cols`` scalars."""
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeMismatch("expected %dx%d entries" % (rows, cols))
        self._set(field, rows, cols, {
            j: {i: _coerce(field, row[j]) for i, row in enumerate(entries)}
            for j in range(cols)})

    def _set(self, field, rows, cols, data):
        """Adopt the column dicts of ``data``, deleting zero entries and
        empty columns in place.  An entry is tested by == zero, never by
        its truth value, which a scalar type need not define."""
        z = field.zero
        for j in [j for j, col in data.items()
                  if not col or z in col.values()]:
            col = data[j]
            for i in [i for i, x in col.items() if x == z]:
                del col[i]
            if not col:
                del data[j]
        for name, value in (("field", field), ("rows", rows), ("cols", cols),
                            ("_cols", data), ("_zero", z), ("_fact", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_columns(cls, field, rows, cols, data):
        """The matrix with entries data[j][i] at (i, j); absent entries are
        zero.

        The matrix takes ownership of ``data`` and its column dicts and
        edits them in place, so every caller passes dicts built for the
        call.  A nonzero entry outside the matrix raises ShapeMismatch;
        the bounds are read with min and max, per column and not per
        entry."""
        m = cls.__new__(cls)
        m._set(field, rows, cols, data)
        if data and (min(data) < 0 or max(data) >= cols
                     or min(map(min, data.values())) < 0
                     or max(map(max, data.values())) >= rows):
            raise ShapeMismatch("an entry lies outside %dx%d" % (rows, cols))
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        return cls.from_columns(field, rows, cols, {})

    @classmethod
    def identity(cls, field, n):
        return cls.from_columns(field, n, n,
                                {j: {j: field.one} for j in range(n)})

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) out of range" % (i, j))
        return self._cols.get(j, _EMPTY).get(i, self._zero)

    def dense_columns(self):
        """All columns, each as a dense tuple."""
        z, rows = self._zero, range(self.rows)
        return tuple(tuple(self._cols.get(j, _EMPTY).get(i, z) for i in rows)
                     for j in range(self.cols))

    def dense_rows(self):
        """All rows, each as a dense tuple."""
        out = [[self._zero] * self.cols for _ in range(self.rows)]
        for j, col in self._cols.items():
            for i, x in col.items():
                out[i][j] = x
        return tuple(map(tuple, out))

    def entries(self):
        """(i, j, x) for every nonzero entry, column by column."""
        return [(i, j, x) for j, col in self._cols.items()
                for i, x in col.items()]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self._cols == other._cols)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     frozenset(((i, j), x) for j, col in self._cols.items()
                               for i, x in col.items())))

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)

    def apply(self, vec):
        """Matrix-vector product, vec given and returned as a tuple."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length %d, expected %d"
                                % (len(vec), self.cols))
        out = [self._zero] * self.rows
        for j, col in self._cols.items():
            v = vec[j]
            for i, a in col.items():
                out[i] = out[i] + a * v
        return tuple(out)

    def is_zero(self):
        return not self._cols

    # -- elimination ----------------------------------------------------

    def _eliminate(self):
        """(pivots, steps), memoized.  ``pivots`` maps each pivot row r to
        its pivot vector, which is 1 at r and 0 above r, stored without
        that 1.  Per nonzero column j, ascending, ``steps`` holds (j, ops,
        r, inv): column j minus f * (pivot vector of q) for (q, f) in ops,
        times inv, is the pivot vector of r, or 0 if r is None."""
        if self._fact is not None:
            return self._fact
        pivots, steps, inv, data = {}, [], self.field.inv, self._cols
        for j in sorted(data):
            vec, ops = dict(data[j]), []
            while vec:
                r = max(vec)
                pivot = pivots.get(r)
                if pivot is None:
                    break
                f = vec.pop(r)
                ops.append((r, f))
                _axpy(vec, f, pivot)
            if not vec:
                steps.append((j, ops, None, None))
                continue
            x = inv(vec.pop(r))
            pivots[r] = {i: canonical(y * x) for i, y in vec.items()}
            steps.append((j, ops, r, x))
        object.__setattr__(self, "_fact", (pivots, steps))
        return self._fact

    def _expand(self, pending, steps):
        """Sums of pivot vectors as sums of columns.  ``pending[r]`` maps
        each key to its coefficient of the pivot vector of r; the result
        maps each key to {j: x}, its coefficient x of column j.  Reads
        ``steps`` backwards, once for all keys; ``pending`` is consumed."""
        z, out = self._zero, {}
        for j, ops, r, inv in reversed(steps):
            for key, f in pending.pop(r, _EMPTY).items():
                if f == z:
                    continue
                out.setdefault(key, {})[j] = x = f * inv
                for q, g in ops:
                    sums = pending.setdefault(q, {})
                    sums[key] = sums.get(key, z) - x * g
        return out

    def rank(self):
        """The number of pivots."""
        return len(self._eliminate()[0])

    def kernel_basis(self):
        """A basis of ker(self), as a list of tuples; exact: per free column
        fc, ascending, 1 at fc, 0 at the other free columns, and minus
        the expansion of column fc at the pivot columns."""
        steps = self._eliminate()[1]
        pending, pivot_cols = {}, set()
        for j, ops, r, _ in steps:
            if r is not None:
                pivot_cols.add(j)
                continue
            for q, f in ops:
                pending.setdefault(q, {})[j] = f
        expansions = self._expand(pending, steps)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_cols:
                continue
            v = [self._zero] * self.cols
            v[fc] = self.field.one
            for j, x in expansions.get(fc, _EMPTY).items():
                v[j] = canonical(-x)
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """The solution of self * x = b with free variables 0, or None."""
        if len(b) != self.rows:
            raise ShapeMismatch("rhs length %d, expected %d"
                                % (len(b), self.rows))
        z, field, owns = self._zero, self.field, self.field.owns
        b = [x if owns(x) else _coerce(field, x) for x in b]
        vec = {i: x for i, x in enumerate(b) if x != z}
        pivots, steps = self._eliminate()
        coeffs = {}
        # b's rows and the pivot rows, largest first: a pivot vector
        # reaches only rows below its own, so an entry at a row with no
        # pivot, met here or left over at the end, is there to stay
        for r in sorted(vec.keys() | pivots.keys(), reverse=True):
            f = vec.pop(r, None)
            if f is None:
                continue
            pivot = pivots.get(r)
            if pivot is None:
                return None
            coeffs[r] = {None: f}
            _axpy(vec, f, pivot)
        if vec:
            return None
        x = self._expand(coeffs, steps).get(None, _EMPTY)
        return tuple(canonical(x[j]) if j in x else z
                     for j in range(self.cols))
