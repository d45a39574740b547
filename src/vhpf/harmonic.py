"""Discrete harmonic potential on an occupancy grid.

The potential is pinned to 0 at the goal cell and to 1 on known obstacle cells
and the outer rim, and solved until every free cell equals the mean of its
axis neighbors to within tolerance: matrix-free conjugate gradients on that
linear system, in any dimension, warm-started from the field's values and
preconditioned by a fast sine-transform solve of the same operator on the
whole rectangle.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.fft  # NumPy loads it lazily, at the first solve otherwise

from .world import ConfigError, GridSpec, dilate, disk

DEFAULT_TOL = 1e-8


class SolverError(RuntimeError):
    """The solve hit its iteration cap, a non-finite residual or a breakdown."""


class FieldQueryError(ValueError):
    """Field sampled outside the grid or inside a known obstacle cell."""


class ScalarGridField:
    """Solved potential with gradient sampling. The solve moves the cells of
    the boolean grid `free` and pins the rest: the outer rim and the known
    cells inflated by `inflate` at 1, the goal cell at 0."""

    def __init__(self, grid: GridSpec, free, values, known_mask, goal_cell,
                 tol=DEFAULT_TOL, inflate=0.0):
        self.grid = grid
        self.free = free
        self.values = values
        self.known_mask = known_mask  # raw discovered cells, without inflation
        self.goal_cell = goal_cell
        self.tol = tol
        self.inflate = inflate
        self.residual = np.inf
        self.iterations = 0
        self._gradients = None
        self._sine = None     # the preconditioner's _SineTransform, made at the first solve
        # for sampling, per axis: the grid's bounds as floats (the same sums
        # as GridSpec.contains), its last cell, the first cell of its last
        # block and its length; and each axis's stride in a flat C-order table
        self._h = float(grid.h)
        self._axes = tuple((float(a), float(a) + float(n) * self._h, n - 1, max(n - 2, 0), n)
                           for a, n in zip(grid.origin, grid.shape))
        self._strides = tuple(math.prod(grid.shape[k + 1:]) for k in range(grid.dim))
        self._tables = None   # the sampler's flat views, made at the first sample of a solve

    # -- internals ----------------------------------------------------------

    def _invalidate(self):
        self._gradients = None
        self._tables = None

    def _make_tables(self):
        """Flat memoryviews of `values`, `gradients()` and `known_mask`, in C
        order: indexing one gives a Python float or bool, without NumPy's
        per-call cost. They see the arrays' memory, and a solve drops them."""
        self._tables = tuple(memoryview(a.reshape(-1))
                             for a in (self.values, self.gradients(), self.known_mask))
        return self._tables

    def gradients(self):
        """Per-cell gradient components (central differences, one-sided at the
        rim), stacked as an array of shape (dim, *grid.shape)."""
        if self._gradients is None:
            g = np.gradient(self.values, self.grid.h)
            self._gradients = np.stack([g] if self.grid.dim == 1 else g)
        return self._gradients


def _neighbor_sum(v, out=None):
    """Sum of the 2*dim axis neighbors, into out (C order, like v). Rim cells
    get partial sums, but the rim is always pinned, so those entries are
    never read. Each cell adds its neighbors axis by axis, the upper one
    first. Along the last axis the shifted sums run over the flat arrays,
    which is several times faster than row by row; that adds across the
    ends of the rows too, so the rim cells it reaches there are put back."""
    if out is None:
        out = np.zeros_like(v)
    else:
        out.fill(0.0)
    for ax in range(v.ndim - 1):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        np.add(out[lo], v[hi], out=out[lo])
        np.add(out[hi], v[lo], out=out[hi])
    flat, src = out.reshape(-1), np.ascontiguousarray(v).reshape(-1)
    rim = out[..., -1].copy()
    np.add(flat[:-1], src[1:], out=flat[:-1])
    out[..., -1] = rim
    rim = out[..., 0].copy()
    np.add(flat[1:], src[:-1], out=flat[1:])
    out[..., 0] = rim
    return out


def _dot(a, b):
    """Inner product in einsum's own loop: unlike BLAS, it sums in one fixed order."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


class _SineTransform:
    """The orthonormal DST-I over every axis of arrays of one shape, its own
    inverse, with the bits of `scipy.fft.dstn(x, type=1, norm="ortho")` and
    of `idstn`, from NumPy's real FFT alone.

    The axes are taken in order. Along an axis, the DST-I of a line x of n
    values is the negated imaginary part of bins 1..n of the rfft of its odd
    extension [0, x, 0, -x reversed], of length 2(n + 1). The orthonormal
    factor, 1 / sqrt of the product of those lengths, is applied once, on
    the first axis. Each axis keeps its extension and spectrum buffers, and
    the views into them, from one call to the next: the zeros of an
    extension are written once, and each pass writes its result straight
    into the next axis's extension, starting with `input`. (SciPy's
    transform runs several lines at once in vector registers, NumPy's one
    at a time, so this one is slower per call.)
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self._ext, self._spec, self._line, self._mirror, self._tail, self._bins = \
            [], [], [], [], [], []
        length = 1
        spec_shapes = [self.shape[:ax] + (n + 2,) + self.shape[ax + 1:]
                       for ax, n in enumerate(self.shape)]
        # one buffer holds every spectrum: a pass has read its own before the next writes
        spectra = np.empty(max(map(math.prod, spec_shapes)), dtype=complex)
        for ax, n in enumerate(self.shape):
            def along(index):
                return (slice(None),) * ax + (index,)
            ext = np.zeros(self.shape[:ax] + (2 * (n + 1),) + self.shape[ax + 1:])
            spec = spectra[:math.prod(spec_shapes[ax])].reshape(spec_shapes[ax])
            self._ext.append(ext)
            self._spec.append(spec)
            self._line.append(ext[along(slice(1, n + 1))])
            self._mirror.append(ext[along(slice(n, 0, -1))])
            self._tail.append(ext[along(slice(n + 2, None))])
            self._bins.append(spec.imag[along(slice(1, n + 1))])
            length *= 2 * (n + 1)
        self._factor = float(1 / np.sqrt(np.longdouble(length)))
        self.input = self._line[0]

    def __call__(self, x, out, op=np.multiply, negated=-1.0):
        """Write op(T x, operand) into out, T the transform, given the
        operand negated; by default T x itself. T negates the last pass's
        bins, so op takes them and the negated operand as they are, which
        rounds the same: -a * b is a * -b and -a / b is a / -b, zeros
        included. x may be `input`, which the passes read from."""
        if x is not self.input:
            self.input[...] = x
        last = len(self.shape) - 1
        for ax in range(last + 1):
            np.negative(self._mirror[ax], out=self._tail[ax])
            np.fft.rfft(self._ext[ax], axis=ax, out=self._spec[ax])
            bins = self._bins[ax]
            if ax == last:
                if ax == 0:     # one axis: the factor first, -(T x) after it
                    bins = np.multiply(bins, self._factor, out=out)
                op(bins, negated, out=out)
            elif ax == 0:
                np.multiply(bins, -self._factor, out=self._line[1])
            else:
                np.negative(bins, out=self._line[ax + 1])
        return out


def _rect_eigenvalues(shape):
    """Eigenvalues of the rim-pinned operator 2*dim*u - (neighbor sum of u) on
    the interior cells of a grid of this shape, in the order of the DST-I
    coefficients: sum over the axes of 2 - 2 cos(pi k / (n - 1)), k = 1..n-2."""
    eig = np.zeros([n - 2 for n in shape])
    for ax, n in enumerate(shape):
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n - 1) / (n - 1))
        eig += lam.reshape([-1 if k == ax else 1 for k in range(len(shape))])
    return eig


def _relax(field: ScalarGridField, tol: float, max_sweeps=None):
    """Preconditioned conjugate gradients on the free-cell mean-value system,
    warm-started from the current values, until the free-cell residual drops
    below tol.

    A p = 2*dim*p - (neighbor sum of p) on the free cells is symmetric positive
    definite. Directions are 0 off the free cells, so pinned values never
    change. The preconditioner is F L_rect^-1 F (Concus & Golub, 1973): F
    keeps the free cells, and L_rect is the same operator on the whole
    interior with only the rim pinned, which a DST-I diagonalizes. It is a
    principal block of the SPD inverse of L_rect, so it stays SPD wherever
    the goal, wall and inflated cells are pinned. The DST-I is the field's
    `_SineTransform`, made at its first solve and kept. An empty interior (an
    axis of fewer than 3 cells) has no free cell, so the solve stops before
    the first transform. `max_sweeps` caps the iterations.
    """
    v = field.values
    free = field.free.astype(float)
    two_dim = 2.0 * v.ndim
    if max_sweeps is None:
        max_sweeps = 100 * int(np.sum(v.shape))
    field._invalidate()
    interior = (slice(1, -1),) * v.ndim
    r, p, eig, start = None, None, None, field.iterations
    ap, z, step = np.empty_like(v), np.zeros_like(v), np.empty_like(v)
    while True:
        if r is None:  # (re)start from b - A v, computed from v itself
            r = _neighbor_sum(v) - two_dim * v
            r *= free
            p, exact = None, True
        field.residual = float(np.max(np.abs(r))) / two_dim
        if not np.isfinite(field.residual):
            raise SolverError(f"residual {field.residual} is not finite")
        if field.residual < tol:
            if exact:
                return
            r = None  # the updated r drifts from b - A v by rounding: confirm on v
            continue
        if field.iterations - start == max_sweeps:
            raise SolverError(f"conjugate gradients stalled at residual {field.residual:.3e} "
                              f"after {max_sweeps} iterations (tol {tol:.1e})")
        if eig is None:
            eig = _rect_eigenvalues(v.shape)
            if field._sine is None:
                field._sine = _SineTransform(eig.shape)
            sine, neg_eig, neg_free = field._sine, -eig, -free[interior]
        # z = F L_rect^-1 F r: r is already 0 off the free cells, and z is 0 on
        # the rim. The coefficients stay in the transform's input
        sine(r[interior], sine.input, np.divide, neg_eig)
        sine(sine.input, z[interior], np.multiply, neg_free)
        rz = _dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rz / rz_old
            p += z
        _neighbor_sum(p, step)
        np.multiply(p, two_dim, out=ap)
        ap -= step
        ap *= free
        pap = _dot(p, ap)
        if not (np.isfinite(pap) and pap > 0.0):
            raise SolverError(f"conjugate gradients broke down (p.Ap = {pap:.3e})")
        alpha = rz / pap
        np.multiply(p, alpha, out=step)
        v += step
        np.multiply(ap, alpha, out=step)
        r -= step
        rz_old = rz
        exact = False
        field.iterations += 1


def _inflate_mask(mask, grid: GridSpec, radius: float):
    """Cells within euclidean distance `radius` of any masked cell center.

    Only the window of the masked cells' bounding box, padded by the disk's
    reach k, is dilated: a cell outside it is more than k cells from every
    masked cell along some axis, so it stays clear, and the dilation inside
    sees every masked cell."""
    if radius <= 0 or not np.any(mask):
        return mask.copy()
    footprint = disk(float(radius), float(grid.h), grid.dim)
    reach = footprint.shape[0] // 2
    if reach == 0:
        return mask.copy()
    cells = np.argwhere(mask)
    lo = np.maximum(cells.min(axis=0) - reach, 0)
    hi = np.minimum(cells.max(axis=0) + reach + 1, mask.shape)
    window = tuple(slice(a, b) for a, b in zip(lo.tolist(), hi.tolist()))
    out = np.zeros(mask.shape, dtype=bool)
    out[window] = dilate(mask[window], footprint)
    return out


def _cell_mask(grid: GridSpec, cells):
    """The mask of the given cells: index rows, as an (n, dim) array or any
    iterable of index tuples."""
    rows = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells), dtype=int)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(rows.reshape(-1, grid.dim).T)] = True
    return mask


def solve_dirichlet(grid: GridSpec, known_cells, goal, tol=DEFAULT_TOL,
                    inflate=0.0, max_sweeps=None) -> ScalarGridField:
    """Solve the grid potential for one agent's knowledge of the boundary.

    known_cells: the index rows of the discovered boundary cells (an (n, dim)
    array or any iterable of index tuples), pinned to 1 and optionally
    inflated by `inflate` world units so a body of that radius can follow the
    gradient as a point. They become the field's `known_mask`, the agent's
    map. The outer rim is pinned to 1, the goal cell to 0. Cells the agent has
    not discovered stay free regardless of the true obstacle layout.
    """
    if tol <= 0:
        raise ConfigError(f"solver tolerance must be positive, got {tol}")
    free = np.zeros(grid.shape, dtype=bool)
    free[(slice(1, -1),) * grid.dim] = True

    known_mask = _cell_mask(grid, known_cells)
    pinned = _inflate_mask(known_mask, grid, inflate)
    free &= ~pinned

    if not grid.contains(goal):
        raise ConfigError(f"goal {goal} lies outside the grid")
    goal_cell = grid.point_to_cell(goal)
    if pinned[goal_cell]:
        raise ConfigError(f"goal {goal} lies inside the known obstacle region")
    free[goal_cell] = False

    values = np.ones(grid.shape, dtype=float)
    values[goal_cell] = 0.0

    field = ScalarGridField(grid, free, values, known_mask, goal_cell,
                            tol=tol, inflate=inflate)
    _relax(field, tol, max_sweeps)
    return field


def resolve_incremental(field: ScalarGridField, new_cells) -> ScalarGridField:
    """Add newly discovered cells (index rows, as `solve_dirichlet` takes
    them) to the field's `known_mask`, pin them to 1 and re-solve from the
    current values. A cell already known changes nothing.

    Warm-started: the previous solution is the first iterate, so small
    discoveries re-equilibrate in fewer iterations than a cold solve. The
    result matches a cold solve with the enlarged boundary set to within the
    solve tolerance. Mutates the field; `field.iterations` keeps counting.
    """
    added = _cell_mask(field.grid, new_cells)
    field.known_mask |= added
    pinned = _inflate_mask(added, field.grid, field.inflate)
    if pinned[field.goal_cell]:
        raise ConfigError("discovered obstacle region swallowed the goal cell")
    field.free &= ~pinned
    field.values[pinned] = 1.0
    _relax(field, field.tol)
    return field


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _sample(field: ScalarGridField, x, gradient: bool) -> list:
    """The multilinear interpolation between cell centers at x of each
    gradient component (`gradient`) or of the value, as a list of floats.

    x is a point's coordinates as floats (or an array). The 2^dim corners
    are read by flat C-order index from the field's `_tables`. Each block
    folds (1 - f) a + f b over its axes, the innermost first, written out
    per axis count. Raises FieldQueryError outside the grid (NaN included)
    and in a known cell."""
    coords = x.tolist() if isinstance(x, np.ndarray) else x
    h = field._h
    cell = base = 0
    frac = []
    for xk, (lo, hi, last, top, n) in zip(coords, field._axes):
        if not lo <= xk <= hi:
            raise FieldQueryError(f"query point {x} outside the grid")
        t = (xk - lo) / h           # t >= 0, so int() is floor()
        c = int(t)
        cell = cell * n + (c if c < last else last)
        rel = t - 0.5               # rel >= -0.5: int() is floor() clipped at 0
        b = int(rel)
        if b > top:
            b = top
        base = base * n + b
        f = rel - b
        frac.append(0.0 if f < 0.0 else 1.0 if f > 1.0 else f)
    tables = field._tables
    if tables is None:
        tables = field._make_tables()
    values, gradients, known = tables
    if known[cell]:
        raise FieldQueryError(f"query point {x} inside a known obstacle cell")
    if gradient:
        table, starts = gradients, range(base, len(gradients), len(values))
    else:
        table, starts = values, (base,)
    out = []
    if len(frac) == 2:
        f0, f1 = frac
        g0, g1 = 1 - f0, 1 - f1
        s0 = field._strides[0]
        for i in starts:
            j = i + s0
            out.append(g0 * (g1 * table[i] + f1 * table[i + 1])
                       + f0 * (g1 * table[j] + f1 * table[j + 1]))
    elif len(frac) == 3:
        f0, f1, f2 = frac
        g0, g1, g2 = 1 - f0, 1 - f1, 1 - f2
        s0, s1 = field._strides[:2]
        for i in starts:
            j, k, m = i + s1, i + s0, i + s0 + s1
            out.append(g0 * (g1 * (g2 * table[i] + f2 * table[i + 1])
                             + f1 * (g2 * table[j] + f2 * table[j + 1]))
                       + f0 * (g1 * (g2 * table[k] + f2 * table[k + 1])
                               + f1 * (g2 * table[m] + f2 * table[m + 1])))
    else:
        f0, = frac
        g0 = 1 - f0
        for i in starts:
            out.append(g0 * table[i] + f0 * table[i + 1])
    return out


def gradient_at(field: ScalarGridField, x) -> list:
    """Potential gradient at a point, multilinearly interpolated between cell
    centers: one float per axis."""
    return _sample(field, x, True)


def value_at(field: ScalarGridField, x) -> float:
    """Potential at a point, multilinearly interpolated between cell centers."""
    return _sample(field, x, False)[0]
