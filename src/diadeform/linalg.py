"""Sparse exact matrices with rank / solve / kernel over a field.

A matrix keeps only its nonzero entries, as a dict of rows {i: {j: x}};
absent entries read as the field's zero.  ``Matrix.sparse`` takes
ownership of the rows it is given and drops their zero entries in place
instead of copying them, and it rejects an entry outside the matrix.
Block matrices are not assembled here: the coboundary paths write their
blocks into one table of rows (``cochain.write_coboundary_matrix``), so a
matrix is built once, by one ``sparse`` call.  Matrices are immutable and
have no arithmetic.  The first rank, kernel
or solve query eliminates a matrix forward once, to a row echelon form,
and records every row operation.  Rank reads the pivots
of that form and does not back-reduce; the first kernel or solve query
back-reduces the memoized form once, to the unique reduced row echelon
form.  Later queries reuse what is memoized, so no matrix is eliminated
twice, and ``solve(b)`` replays the recorded operations on b instead of
eliminating [M | b].  Everything is exact, so the identities asserted
elsewhere (delta^2 = 0 and friends) hold with zero tolerance, and no
result depends on the order of elimination.
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


def _axpy(row, f, pivot):
    """row -= f * pivot on sparse rows, in place."""
    for j, x in pivot.items():
        y = row.get(j)
        if y is None:
            row[j] = -f * x
        elif (y := y - f * x):
            row[j] = y
        else:
            del row[j]


class Matrix:
    """A rows x cols matrix of exact field elements, stored by nonzero rows."""

    __slots__ = ("field", "rows", "cols", "_rows", "_zero", "_fact")

    def __init__(self, field, rows, cols, entries):
        """``entries``: a dense list of ``rows`` lists of ``cols`` scalars."""
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeMismatch("expected %dx%d entries" % (rows, cols))
        self._set(field, rows, cols, {
            i: {j: _coerce(field, x) for j, x in enumerate(row)}
            for i, row in enumerate(entries)})

    def _set(self, field, rows, cols, data):
        """Adopt the row dicts of ``data``, deleting zero entries and empty
        rows in place.  An entry is tested by == zero, never by its truth
        value, which a scalar type need not define."""
        z = field.zero
        for i in [i for i, row in data.items()
                  if not row or z in row.values()]:
            row = data[i]
            for j in [j for j, x in row.items() if x == z]:
                del row[j]
            if not row:
                del data[i]
        for name, value in (("field", field), ("rows", rows), ("cols", cols),
                            ("_rows", data), ("_zero", z), ("_fact", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def sparse(cls, field, rows, cols, data):
        """The matrix with entries data[i][j]; absent entries are zero.

        The matrix takes ownership of ``data`` and its row dicts and edits
        them in place, so every caller passes dicts built for the call.
        A nonzero entry outside the matrix raises ShapeMismatch; the
        bounds are read with min and max, per row and not per entry."""
        m = cls.__new__(cls)
        m._set(field, rows, cols, data)
        if data and (min(data) < 0 or max(data) >= rows
                     or min(map(min, data.values())) < 0
                     or max(map(max, data.values())) >= cols):
            raise ShapeMismatch("an entry lies outside %dx%d" % (rows, cols))
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        return cls.sparse(field, rows, cols, {})

    @classmethod
    def identity(cls, field, n):
        return cls.sparse(field, n, n, {i: {i: field.one} for i in range(n)})

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) out of range" % (i, j))
        return self._rows.get(i, _EMPTY).get(j, self._zero)

    def dense_rows(self):
        """All rows, each as a dense tuple."""
        return tuple(tuple(self[i, j] for j in range(self.cols))
                     for i in range(self.rows))

    def entries(self):
        """(i, j, x) for every nonzero entry, row by row."""
        return [(i, j, x) for i, row in self._rows.items()
                for j, x in row.items()]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     frozenset(((i, j), x) for i, row in self._rows.items()
                               for j, x in row.items())))

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)

    def apply(self, vec):
        """Matrix-vector product, vec given and returned as a tuple."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length %d, expected %d"
                                % (len(vec), self.cols))
        out = [self._zero] * self.rows
        for i, row in self._rows.items():
            s = self._zero
            for k, a in row.items():
                s = s + a * vec[k]
            out[i] = s
        return tuple(out)

    def transpose(self):
        data = {}
        for i, row in self._rows.items():
            for j, x in row.items():
                data.setdefault(j, {})[i] = x
        return Matrix.sparse(self.field, self.cols, self.rows, data)

    def is_zero(self):
        return not self._rows

    # -- elimination ----------------------------------------------------

    def _forward(self):
        """(pivots, forward, back), memoized, after forward elimination
        only: ``pivots`` maps each pivot column c to its echelon row, 1 at
        c; per nonzero row i, ``forward`` holds (i, ops, c, inv): row i
        minus f * (pivot row j) for (j, f) in ops, times inv, is the echelon
        row of pivot c, or 0 if c is None; ``back`` is None until
        ``_factor`` has back-reduced the pivot rows."""
        if self._fact is not None:
            return self._fact
        pivots, forward, rows = {}, [], self._rows
        # short rows first, ties in row order: short pivot rows cause less
        # fill-in; zero rows make no pivot and are skipped
        for i in sorted(sorted(rows), key=lambda i: len(rows[i])):
            row, ops = dict(rows[i]), []
            while row:
                c = min(row)
                if c not in pivots:
                    break
                ops.append((c, row[c]))
                _axpy(row, row[c], pivots[c])
            if not row:
                forward.append((i, ops, None, None))
                continue
            inv = self.field.inv(row[c])
            pivots[c] = {j: canonical(x * inv) for j, x in row.items()}
            forward.append((i, ops, c, inv))
        object.__setattr__(self, "_fact", (pivots, forward, None))
        return self._fact

    def _factor(self):
        """(pivots, forward, back), memoized, with ``pivots`` back-reduced
        to the unique reduced row echelon form: ``back`` holds (c, ops),
        the back-reduction of pivot row c, largest c first.  Reuses the
        forward elimination of ``_forward``."""
        pivots, forward, back = self._forward()
        if back is not None:
            return self._fact
        back = []
        # rows of larger pivots are reduced first, so one pass over a row
        # clears its other pivot columns without creating new ones
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            ops = [(j, row[j]) for j in row if j != c and j in pivots]
            for j, f in ops:
                _axpy(row, f, pivots[j])
            if ops:
                pivots[c] = {j: canonical(x) for j, x in row.items()}
            back.append((c, ops))
        object.__setattr__(self, "_fact", (pivots, forward, back))
        return self._fact

    def rank(self):
        """The number of pivots; needs no back-reduction."""
        return len(self._forward()[0])

    def kernel_basis(self):
        """A basis of ker(self), as a list of tuples; exact: per free column
        fc, ascending, 1 at fc and minus RREF column fc at the pivots."""
        pivots = self._factor()[0]
        basis = {fc: [self._zero] * self.cols
                 for fc in range(self.cols) if fc not in pivots}
        for fc, v in basis.items():
            v[fc] = self.field.one
        for c, row in pivots.items():
            for j, x in row.items():
                if j != c:
                    basis[j][c] = -x
        return [tuple(v) for v in basis.values()]

    def solve(self, b):
        """The solution of self * x = b with free variables 0, or None."""
        if len(b) != self.rows:
            raise ShapeMismatch("rhs length %d, expected %d"
                                % (len(b), self.rows))
        b = [_coerce(self.field, x) for x in b]
        # a zero row of self needs a zero entry of b
        if any(x != self._zero for i, x in enumerate(b)
               if i not in self._rows):
            return None
        pivots, forward, back = self._factor()
        value = {}
        for i, ops, c, inv in forward:
            v = b[i]
            for j, f in ops:
                v = v - f * value[j]
            if c is not None:
                value[c] = v * inv
            elif v != self._zero:
                return None
        for c, ops in back:
            for j, f in ops:
                value[c] = value[c] - f * value[j]
        return tuple(canonical(value[c]) if c in value else self._zero
                     for c in range(self.cols))
