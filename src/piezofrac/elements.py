"""Shape functions, quadrature tables, and DOF bookkeeping.

Bilinear quads and trilinear bricks with full Gauss integration.  All
per-element arrays are built vectorized over the active elements once
per mesh; assembly then reduces to einsum contractions.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import CORNER_OFFSETS
from .tensors import VOIGT_PAIRS

_G = 1.0 / np.sqrt(3.0)


def _reference(dim):
    """Reference-element corner signs, Gauss points, and weights."""
    corners = 2.0 * CORNER_OFFSETS[dim] - 1.0
    gp = corners * _G  # 2x2(x2) full integration shares the corner layout
    gw = np.ones(len(gp))
    return corners, gp, gw


def shape_functions(dim, xi):
    """N and dN/dxi of the linear quad/brick at local coordinates xi."""
    corners, _, _ = _reference(dim)
    xi = np.asarray(xi, dtype=float)
    terms = 1.0 + corners * xi  # (nper, dim)
    N = terms.prod(axis=1) / 2.0 ** dim
    dN = np.empty_like(corners)
    for j in range(dim):
        others = np.delete(terms, j, axis=1).prod(axis=1)
        dN[:, j] = corners[:, j] * others / 2.0 ** dim
    return N, dN


class JacobianError(ValueError):
    """Raised when an element maps with non-positive volume."""


@dataclass
class ElementTables:
    """Precomputed shape data of all active elements at all Gauss points.

    ids: (ne,) mesh element id of each row (the active elements).
    conn: (ne, nper) node ids of active elements.
    N: (ng, nper) shape values (reference, element independent).
    dNdx: (ne, ng, nper, dim) physical gradients.
    B: (ne, ng, nstr, nper*dim) strain-displacement matrices in Voigt
        order (11, 22, [33,] shears with engineering factors).
    w: (ne, ng) integration weights detJ * gauss * thickness.
    """

    ids: np.ndarray
    conn: np.ndarray
    N: np.ndarray
    dNdx: np.ndarray
    B: np.ndarray
    w: np.ndarray

    @property
    def n_elems(self):
        return self.conn.shape[0]

    @property
    def n_gauss(self):
        return self.N.shape[0]


def element_tables(mesh):
    """Vectorized shape-function tables over the active elements."""
    dim = mesh.dim
    ids = np.flatnonzero(mesh.active)
    conn = mesh.elems[ids]
    coords = mesh.nodes[conn]  # (ne, nper, dim)
    _, gp, gw = _reference(dim)
    ng, nper = len(gp), conn.shape[1]

    N = np.empty((ng, nper))
    dN_ref = np.empty((ng, nper, dim))
    for g, xi in enumerate(gp):
        N[g], dN_ref[g] = shape_functions(dim, xi)

    # J[e,g,i,j] = d x_i / d xi_j
    J = np.einsum("eai,gaj->egij", coords, dN_ref)
    detJ = np.linalg.det(J)
    bad = np.argwhere(detJ <= 0.0)
    if bad.size:
        e, g = bad[0]
        raise JacobianError(
            f"element {ids[e]} has non-positive Jacobian "
            f"{detJ[e, g]:.3e} at Gauss point {g}")
    Jinv = np.linalg.inv(J)
    dNdx = np.einsum("gaj,egji->egai", dN_ref, Jinv)

    w = detJ * gw[None, :] * mesh.thickness

    # one Voigt row per index pair (i, j) within the dimension; a shear
    # row takes both cross gradients (engineering strain)
    pairs = [p for p in VOIGT_PAIRS if max(p) < dim]
    B = np.zeros((conn.shape[0], ng, len(pairs), nper * dim))
    for row, (i, j) in enumerate(pairs):
        B[:, :, row, i::dim] = dNdx[..., j]
        B[:, :, row, j::dim] = dNdx[..., i]
    return ElementTables(ids=ids, conn=conn, N=N, dNdx=dNdx, B=B, w=w)


class DofMap:
    """Global DOF layout: displacement block, potential block, damage block.

    DOFs are grouped by field so the solver can slice residuals and
    factor per-block operators directly; `slices` holds the three block
    slices in that order and `split` applies them.  Nodes not
    referenced by any active element carry no unknowns.
    """

    def __init__(self, mesh):
        self.dim = mesh.dim
        self.n_nodes = n = mesh.n_nodes
        self.off_phi = n * self.dim
        self.off_d = self.off_phi + n
        self.ndof = self.off_d + n
        self.slices = (slice(0, self.off_phi), slice(self.off_phi, self.off_d),
                       slice(self.off_d, self.ndof))
        live = mesh.active_nodes()
        self.active_dof = np.concatenate([np.repeat(live, self.dim), live, live])

    def split(self, x):
        """Views (u, phi, d) of a full DOF vector's three blocks."""
        return tuple(x[sl] for sl in self.slices)

    def u_dofs(self, nodes, component=None):
        """Displacement DOFs of a node array of any shape: one per node
        for a `component`, else each node's dim DOFs along the last axis
        (a node list gives a flat list, `conn` the element DOF table)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if component is None:
            dofs = nodes[..., None] * self.dim + np.arange(self.dim)
            return dofs.reshape(nodes.shape[:-1] + (-1,))
        return nodes * self.dim + component

    def phi_dofs(self, nodes):
        return self.off_phi + np.asarray(nodes, dtype=np.int64)


class Constraints:
    """Dirichlet table: fixed DOF ids with prescribed values.

    Inactive-node DOFs are always pinned to zero.  Values can be
    rescaled per load step through `set_value` on named groups.
    """

    def __init__(self, dofmap):
        self.dofmap = dofmap
        self._groups = {}
        dead = np.flatnonzero(~dofmap.active_dof)
        if dead.size:
            self._groups["_inactive"] = (dead, np.zeros(dead.size), 0.0)

    def fix(self, name, dofs, pattern=1.0, value=0.0):
        """Register a named group: prescribed = pattern * value."""
        dofs = np.asarray(dofs, dtype=np.int64)
        pattern = np.broadcast_to(np.asarray(pattern, float), dofs.shape)
        if name in self._groups:
            raise ValueError(f"constraint group '{name}' already defined")
        self._groups[name] = (dofs, pattern.copy(), float(value))

    def set_value(self, name, value):
        dofs, pattern, _ = self._groups[name]
        self._groups[name] = (dofs, pattern, float(value))

    def group_dofs(self, name):
        return self._groups[name][0]

    def value(self, name):
        """Prescribed value of a group (its DOFs take pattern * value)."""
        return self._groups[name][2]

    def build(self):
        """(fixed_dofs, fixed_values, free_dofs); groups sharing a DOF
        must prescribe exactly the same value there (e.g. a corner pinned
        twice), or the error names the DOF and both groups."""
        names, groups = list(self._groups), list(self._groups.values())
        fixed = np.concatenate([np.empty(0, np.int64),
                                *(d for d, _, _ in groups)])
        vals = np.concatenate([np.empty(0), *(p * v for _, p, v in groups)])
        owner = np.repeat(np.arange(len(groups)),
                          [d.size for d, _, _ in groups])
        order = np.argsort(fixed, kind="stable")
        fixed, vals, owner = fixed[order], vals[order], owner[order]
        dup = np.flatnonzero(np.diff(fixed) == 0)
        clash = dup[vals[dup] != vals[dup + 1]]
        if clash.size:
            i = clash[0]
            raise ValueError(
                f"conflicting constraints on dof {fixed[i]}: group "
                f"'{names[owner[i]]}' prescribes {float(vals[i])!r}, group "
                f"'{names[owner[i + 1]]}' {float(vals[i + 1])!r}")
        keep = np.ones(fixed.size, dtype=bool)
        keep[dup] = False
        fixed, vals = fixed[keep], vals[keep]
        free = np.setdiff1d(np.arange(self.dofmap.ndof), fixed,
                            assume_unique=False)
        return fixed, vals, free
