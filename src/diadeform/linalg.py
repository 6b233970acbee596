"""Sparse exact matrices with rank / solve / kernel over a field.

A matrix keeps only its nonzero entries, as a dict of rows {i: {j: x}};
absent entries read as the field's zero.  Matrices are immutable.  The
first rank, kernel or solve query eliminates a matrix once, to its unique
reduced row echelon form, and records every row operation; later queries
reuse that memoized factorization, and ``solve(b)`` replays the recorded
operations on b instead of eliminating [M | b].  Everything is exact, so
the identities asserted elsewhere (delta^2 = 0 and friends) hold with zero
tolerance, and no result depends on the order of elimination.
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
        z = field.zero
        kept = {i: {j: x for j, x in row.items() if x != z}
                for i, row in data.items()}
        for name, value in (("field", field), ("rows", rows), ("cols", cols),
                            ("_rows", {i: r for i, r in kept.items() if r}),
                            ("_zero", z), ("_fact", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def sparse(cls, field, rows, cols, data):
        """The matrix with entries data[i][j]; absent entries are zero."""
        m = cls.__new__(cls)
        m._set(field, rows, cols, data)
        return m

    @classmethod
    def block(cls, field, rows, cols, placements):
        """The matrix with each block of (r0, c0, block) placed at offset
        (r0, c0); the blocks must not overlap."""
        data = {}
        for r0, c0, blk in placements:
            for i, row in blk._rows.items():
                data.setdefault(r0 + i, {}).update(
                    (c0 + j, x) for j, x in row.items())
        return cls.sparse(field, rows, cols, data)

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

    def _check_same_field(self, other):
        if self.field != other.field:
            raise MixedFields("%r vs %r" % (self.field, other.field))

    def _merge(self, other, op):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix shapes differ")
        data = {i: dict(row) for i, row in self._rows.items()}
        for i, row in other._rows.items():
            out = data.setdefault(i, {})
            for j, x in row.items():
                out[j] = op(out.get(j, self._zero), x)
        return Matrix.sparse(self.field, self.rows, self.cols, data)

    def __add__(self, other):
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._merge(other, lambda a, b: a - b)

    def __neg__(self):
        return Matrix.sparse(self.field, self.rows, self.cols,
                             {i: {j: -x for j, x in row.items()}
                              for i, row in self._rows.items()})

    def __mul__(self, other):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols))
        data = {}
        for i, row in self._rows.items():
            out = data[i] = {}
            for k, a in row.items():
                for j, b in other._rows.get(k, _EMPTY).items():
                    out[j] = out[j] + a * b if j in out else a * b
        return Matrix.sparse(self.field, self.rows, other.cols, data)

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

    def _factor(self):
        """(pivots, forward, back), memoized: ``pivots`` maps each pivot
        column c to its RREF row; per row i, ``forward`` holds (i, ops, c,
        inv): row i minus f * (pivot row j) for (j, f) in ops, times inv,
        is the echelon row of pivot c, or 0 if c is None; ``back`` holds
        (c, ops), the back-reduction of pivot row c, largest c first."""
        if self._fact is not None:
            return self._fact
        pivots, forward, back = {}, [], []
        # short rows first: short pivot rows cause less fill-in
        for i in sorted(range(self.rows),
                        key=lambda i: len(self._rows.get(i, _EMPTY))):
            row, ops = dict(self._rows.get(i, _EMPTY)), []
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
        return len(self._factor()[0])

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
