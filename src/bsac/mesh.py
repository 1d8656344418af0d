"""Discrete geometries: polar finite-volume disk and 1D interval.

Both meshes are cell-centered. The disk uses radial nodes r_i = (i - 1/2) h_r
(no node sits on the coordinate singularity r = 0) and angular nodes
theta_j = (j - 1/2) h_theta; bulk quadrature weights are the exact cell areas
r_i h_r h_theta, so constants integrate to pi R^2 exactly. The boundary circle
carries n_theta nodes with weights R h_theta. The interval (0, L) has n cells
of width h and a two-point boundary with unit weights.

Each builder also writes its grids' faces, (i, j, coef) arrays for the
Dirichlet form sum_faces coef (x_i - x_j)^2: energies evaluated in this shape
are exactly nonnegative in floating point, and the stiffnesses are built from it.
It also writes the ring of every joint unknown, the order of operators.RingBands.

The trace onto the boundary is linear extrapolation through the two outermost
cell centers of each normal ray, which is exact for fields affine in the
normal coordinate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ConfigurationError, ShapeError


@dataclass
class Mesh:
    geometry: str               # "disk" or "interval"
    bulk_points: np.ndarray     # (n_bulk, 2) cartesian positions
    bulk_weights: np.ndarray    # (n_bulk,) quadrature weights
    surface_points: np.ndarray  # (n_surf, 2)
    surface_weights: np.ndarray
    boundary_map: np.ndarray    # (n_surf, 2) bulk indices: outermost, next inner
    spacings: dict
    extent: float               # R or L
    bulk_faces: tuple           # (i, j, coef) interior faces of the bulk grid
    surface_faces: tuple        # (i, j, coef) faces of the boundary grid; empty on the interval
    angular_period: int         # bulk index i * period + j is ring i, angle j; 1 on the interval
    rings: np.ndarray           # ring of each joint unknown; see operators.RingBands
    cache: dict = field(default_factory=dict, repr=False)   # see per_mesh

    @property
    def n_bulk(self) -> int:
        return self.bulk_weights.size

    @property
    def n_surface(self) -> int:
        return self.surface_weights.size

    def check_bulk(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_bulk,):
            raise ShapeError(f"bulk field has shape {values.shape}, expected ({self.n_bulk},)")
        return values

    def check_surface(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_surface,):
            raise ShapeError(
                f"surface field has shape {values.shape}, expected ({self.n_surface},)")
        return values

    def content_hash(self) -> str:
        import hashlib
        digest = hashlib.sha256()
        for arr in (self.bulk_points, self.bulk_weights,
                    self.surface_points, self.surface_weights):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(self.geometry.encode())
        return digest.hexdigest()[:16]


def build_disk(radius: float = 1.0, n_r: int = 64, n_theta: int = 128) -> Mesh:
    if radius <= 0:
        raise ConfigurationError("disk radius must be positive")
    if n_r < 4 or n_theta < 4:
        raise ConfigurationError("disk mesh needs n_r >= 4 and n_theta >= 4")
    h_r = radius / n_r
    h_t = 2.0 * np.pi / n_theta
    r = (np.arange(n_r) + 0.5) * h_r
    theta = (np.arange(n_theta) + 0.5) * h_t
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    points = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    weights = (rr * h_r * h_t).ravel()
    surf_points = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    surf_weights = np.full(n_theta, radius * h_t)
    outer = (n_r - 1) * n_theta + np.arange(n_theta)
    inner = (n_r - 2) * n_theta + np.arange(n_theta)
    bmap = np.column_stack([outer, inner])
    jj = np.arange(n_theta)
    rows, cols, coefs = [], [], []
    # radial faces at radius (i+1) h_r; the r=0 face has zero measure
    for i in range(n_r - 1):
        rf = (i + 1) * h_r
        base = i * n_theta
        rows.append(base + jj)
        cols.append(base + n_theta + jj)
        coefs.append(np.full(n_theta, rf * h_t / h_r))
    # angular faces, periodic in j
    for i in range(n_r):
        base = i * n_theta
        rows.append(base + jj)
        cols.append(base + (jj + 1) % n_theta)
        coefs.append(np.full(n_theta, h_r / (r[i] * h_t)))
    # outermost half-cell band [R - h_r/2, R]: without it the Dirichlet
    # form drops an O(h_r) chunk wherever the normal derivative is
    # nonzero on the boundary, degrading Robin-type eigenvalues and
    # boundary-driven energies to first order
    rim = radius - 0.25 * h_r
    rows.append(outer)
    cols.append(inner)
    coefs.append(np.full(n_theta, rim * h_t / (2.0 * h_r)))
    bulk_faces = (np.concatenate(rows), np.concatenate(cols), np.concatenate(coefs))
    surface_faces = (jj, (jj + 1) % n_theta, np.full(n_theta, 1.0 / (radius * h_t)))
    return Mesh("disk", points, weights, surf_points, surf_weights, bmap,
                {"h_r": h_r, "h_theta": h_t}, radius, bulk_faces, surface_faces, n_theta,
                np.arange((n_r + 1) * n_theta) // n_theta)


def build_interval(length: float = 1.0, n: int = 64) -> Mesh:
    if length <= 0:
        raise ConfigurationError("interval length must be positive")
    if n < 4:
        raise ConfigurationError("interval mesh needs n >= 4")
    h = length / n
    x = (np.arange(n) + 0.5) * h
    points = np.column_stack([x, np.zeros(n)])
    weights = np.full(n, h)
    surf_points = np.array([[0.0, 0.0], [length, 0.0]])
    surf_weights = np.ones(2)
    bmap = np.array([[0, 1], [n - 1, n - 2]])
    idx = np.arange(n - 1)
    # the interior faces, then the same half-cell closure at both endpoints
    bulk_faces = (np.concatenate([idx, bmap[:, 0]]), np.concatenate([idx + 1, bmap[:, 1]]),
                  np.concatenate([np.full(n - 1, 1.0 / h), np.full(2, 0.5 / h)]))
    empty = np.array([], dtype=int)
    return Mesh("interval", points, weights, surf_points, surf_weights, bmap,
                {"h": h}, length, bulk_faces, (empty, empty, np.array([])), 1,
                np.concatenate([np.arange(1, n + 1), [0, n + 1]]))   # [s_0, cells, s_1]


def build_mesh(geometry: str, **params) -> Mesh:
    if geometry == "disk":
        return build_disk(**params)
    if geometry == "interval":
        return build_interval(**params)
    raise ConfigurationError(f"unknown geometry {geometry!r}")


def per_mesh(build):
    """Memoize build(mesh, *args) in mesh.cache under (build.__name__, *args);
    every operator cached on a mesh goes through here."""
    @functools.wraps(build)
    def cached(mesh: Mesh, *args):
        key = (build.__name__, *args)
        if key not in mesh.cache:
            mesh.cache[key] = build(mesh, *args)
        return mesh.cache[key]
    return cached


@per_mesh
def trace_matrix(mesh: Mesh) -> sp.csr_matrix:
    """The boundary trace as a sparse (n_surface, n_bulk) matrix.

    Each row extrapolates one normal ray linearly to the boundary, which sits
    half a cell beyond the outermost center: weight 3/2 on the outermost cell
    and -1/2 on the next. Every operator block that involves the trace is
    built from this matrix.
    """
    n_s = mesh.n_surface
    rows = np.repeat(np.arange(n_s), 2)
    vals = np.tile([1.5, -0.5], n_s)
    return sp.coo_matrix((vals, (rows, mesh.boundary_map.ravel())),
                         shape=(n_s, mesh.n_bulk)).tocsr()


_MATVEC_KERNELS = {"csr": _sparsetools.csr_matvec, "csc": _sparsetools.csc_matvec}


def matvec(a: sp.csr_matrix | sp.csc_matrix, x: np.ndarray) -> np.ndarray:
    """a @ x for a CSR or CSC matrix a and a vector x, by the compiled kernel
    that scipy's own product calls, so bitwise the same, without its
    dispatch, which costs about as much as the product on the small
    operators of a Newton iteration. Other formats raise TypeError."""
    kernel = _MATVEC_KERNELS.get(a.format)
    if kernel is None:
        raise TypeError(f"matvec needs a CSR or CSC matrix, got {a.format}")
    m, n = a.shape
    if x.shape != (n,):
        raise ValueError(f"matvec of a {a.shape} matrix with a vector of shape {x.shape}")
    out = np.zeros(m, dtype=np.promote_types(a.dtype, x.dtype))
    kernel(m, n, a.indptr, a.indices, a.data, x, out)
    return out


@per_mesh
def trace_adjoint(mesh: Mesh) -> sp.csc_matrix:
    """Tr' as a sparse (n_bulk, n_surface) matrix, a view on trace_matrix's
    arrays: pulls surface functionals back to bulk ones."""
    return trace_matrix(mesh).T


def boundary_trace(mesh: Mesh, bulk_values) -> np.ndarray:
    """Extrapolate a bulk field to the boundary, second order along each ray."""
    return matvec(trace_matrix(mesh), mesh.check_bulk(bulk_values))


def normal_derivative(mesh: Mesh, bulk_values) -> np.ndarray:
    """Outward normal derivative of the bulk field on the boundary: the
    one-sided difference of the two outermost cells of each normal ray, a
    first order estimate independent of the boundary condition."""
    u = mesh.check_bulk(bulk_values)
    step = mesh.spacings["h_r"] if mesh.geometry == "disk" else mesh.spacings["h"]
    return (u[mesh.boundary_map[:, 0]] - u[mesh.boundary_map[:, 1]]) / step
