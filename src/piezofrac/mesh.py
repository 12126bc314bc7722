"""Structured quad/hex meshing with holes, slits, and random defects.

Grids are axis-aligned; geometric features are realized by element
deactivation (centroid tests), which keeps Monte Carlo studies free of
external meshing.  Named node sets mark the box faces for boundary
conditions.  Meshes and fields are written in the VTK legacy format.
"""

import math
from dataclasses import dataclass

import numpy as np

_FACE_NAMES = (("xmin", "xmax"), ("ymin", "ymax"), ("zmin", "zmax"))


@dataclass
class Mesh:
    """Structured mesh with an element activity mask.

    nodes: (n_nodes, dim) coordinates in m.
    elems: (n_elems, 4 or 8) connectivity, counter-clockwise quads or
        standard bricks; inactive elements stay in the table.
    active: (n_elems,) bool mask (holes, slits, exterior cut-outs).
    node_sets: named node index arrays (the box faces).
    thickness: out-of-plane thickness, m (2D only; 1.0 in 3D).
    """

    nodes: np.ndarray
    elems: np.ndarray
    active: np.ndarray
    node_sets: dict
    thickness: float

    @property
    def dim(self):
        return self.nodes.shape[1]

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def centroids(self):
        return self.nodes[self.elems].mean(axis=1)

    def active_nodes(self):
        """Boolean mask of nodes referenced by at least one active element."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[np.unique(self.elems[self.active])] = True
        return mask

    def element_size(self):
        """Edge lengths (per axis) of the first element."""
        e = self.elems[0]
        if self.dim == 2:
            return np.array([abs(self.nodes[e[1], 0] - self.nodes[e[0], 0]),
                             abs(self.nodes[e[3], 1] - self.nodes[e[0], 1])])
        return np.array([abs(self.nodes[e[1], 0] - self.nodes[e[0], 0]),
                         abs(self.nodes[e[3], 1] - self.nodes[e[0], 1]),
                         abs(self.nodes[e[4], 2] - self.nodes[e[0], 2])])

    def set_nodes(self, name):
        try:
            return self.node_sets[name]
        except KeyError:
            raise KeyError(f"mesh has no node set named '{name}'; "
                           f"available: {sorted(self.node_sets)}") from None


def structured_mesh(lengths, divisions, thickness=1.0):
    """Axis-aligned box grid of quad4 (2D) or hex8 (3D) elements.

    lengths and divisions are per-axis; the box spans [0, lengths[i]]
    on axis i, and node sets 'xmin', 'xmax', ... mark its faces.
    """
    lengths = np.asarray(lengths, dtype=float)
    divisions = np.asarray(divisions, dtype=int)
    dim = lengths.size
    if dim not in (2, 3) or divisions.size != dim:
        raise ValueError(f"need 2 or 3 matched lengths/divisions, got "
                         f"{lengths.size}/{divisions.size}")
    if np.any(lengths <= 0.0) or np.any(divisions < 1):
        raise ValueError(f"bad domain {lengths} or divisions {divisions}")
    if thickness <= 0.0:
        raise ValueError(f"thickness must be positive, got {thickness}")
    axes = [np.linspace(0.0, lengths[i], divisions[i] + 1)
            for i in range(dim)]
    if dim == 2:
        nx, ny = divisions
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])

        def nid(i, j):
            return i * (ny + 1) + j

        I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        elems = np.column_stack([
            nid(I, J).ravel(), nid(I + 1, J).ravel(),
            nid(I + 1, J + 1).ravel(), nid(I, J + 1).ravel()])
    else:
        nx, ny, nz = divisions
        X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

        def nid(i, j, k):
            return (i * (ny + 1) + j) * (nz + 1) + k

        I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                              indexing="ij")
        elems = np.column_stack([
            nid(I, J, K).ravel(), nid(I + 1, J, K).ravel(),
            nid(I + 1, J + 1, K).ravel(), nid(I, J + 1, K).ravel(),
            nid(I, J, K + 1).ravel(), nid(I + 1, J, K + 1).ravel(),
            nid(I + 1, J + 1, K + 1).ravel(), nid(I, J + 1, K + 1).ravel()])

    sets = {}
    for i in range(dim):
        lo, hi = _FACE_NAMES[i]
        tol = 1e-9 * max(lengths)
        sets[lo] = np.flatnonzero(np.abs(nodes[:, i]) < tol)
        sets[hi] = np.flatnonzero(np.abs(nodes[:, i] - lengths[i]) < tol)
    return Mesh(nodes=nodes, elems=elems.astype(np.int64),
                active=np.ones(len(elems), dtype=bool),
                node_sets=sets, thickness=thickness if dim == 2 else 1.0)


def _check_resolved(mesh, size, what):
    h = float(np.max(mesh.element_size()))
    if size < 2.0 * h:
        raise ValueError(
            f"{what} of size {size:.4g} m is unresolvable on this grid "
            f"(needs at least 2h = {2.0 * h:.4g} m)")


def punch_hole(mesh, center, radius):
    """Deactivate elements whose centroid falls inside a circular hole."""
    if radius <= 0.0:
        raise ValueError(f"hole radius must be positive, got {radius}")
    _check_resolved(mesh, 2.0 * radius, "hole")
    c = np.asarray(center, dtype=float)
    cen = mesh.centroids()
    inside = np.linalg.norm(cen[:, :c.size] - c, axis=1) < radius
    mesh.active &= ~inside
    return int(np.count_nonzero(inside))


def punch_outside_cylinder(mesh, center_xy, radius):
    """Deactivate elements whose centroid lies outside a circle in x-y.

    Carves a cylindrical specimen (axis along z in 3D, the full plate
    in 2D) out of the box grid.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    c = np.asarray(center_xy, dtype=float)
    cen = mesh.centroids()
    outside = np.linalg.norm(cen[:, :2] - c, axis=1) > radius
    mesh.active &= ~outside
    return int(np.count_nonzero(outside))


def slit_elements(mesh, start, angle, length):
    """Element ids whose centroid lies within half a cell of a segment.

    The stair-cased element band realizes a zero-width slit from
    `start` at `angle` (radians, from the +x axis) over `length`.
    """
    if length <= 0.0:
        raise ValueError(f"slit length must be positive, got {length}")
    _check_resolved(mesh, length, "slit")
    p0 = np.asarray(start, dtype=float)
    t = np.array([math.cos(angle), math.sin(angle)])
    half = 0.5 * float(np.max(mesh.element_size()[:2]))
    # a grid-aligned segment on a node line ties with both neighbouring
    # centroid rows at exactly half a cell; a tiny normal offset breaks
    # the tie to one deterministic side so the band stays one element
    # thick for every angle
    p_eff = p0[:2] + np.array([-t[1], t[0]]) * (1e-6 * half)
    cen = mesh.centroids()[:, :2]
    rel = cen - p_eff
    s = np.clip(rel @ t, 0.0, length)
    dist = np.linalg.norm(rel - s[:, None] * t, axis=1)
    return np.flatnonzero((dist < half) & mesh.active)


def cut_slit(mesh, start, angle, length):
    """Deactivate a stair-cased element band along a slit segment."""
    ids = slit_elements(mesh, start, angle, length)
    mesh.active[ids] = False
    return ids


def random_defects(rng, region_min, region_max, target_area,
                   mean_radius, std_radius, min_radius, max_tries=100000):
    """Sample circular defects until their cumulative area meets a target.

    Centers are uniform over the region; radii are normal with the
    given mean/std, truncated from below.  Returns a list of
    (center, radius) pairs; deterministic for a seeded generator.
    """
    lo = np.asarray(region_min, dtype=float)
    hi = np.asarray(region_max, dtype=float)
    if np.any(hi <= lo):
        raise ValueError(f"empty sampling region {lo} .. {hi}")
    if target_area < 0.0:
        raise ValueError(f"target area must be >= 0, got {target_area}")
    holes = []
    area = 0.0
    tries = 0
    while area < target_area:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"defect sampling did not reach the target area "
                f"{target_area:.4g} m^2 within {max_tries} draws")
        r = rng.normal(mean_radius, std_radius)
        if r < min_radius:
            continue
        c = lo + rng.random(lo.size) * (hi - lo)
        holes.append((c, float(r)))
        area += math.pi * r * r
    return holes


def apply_defects(mesh, holes):
    """Punch a list of (center, radius) defects, skipping unresolvable ones.

    Sub-cell defects are dropped (they would deactivate nothing useful);
    the number actually applied is returned.
    """
    h = float(np.max(mesh.element_size()))
    applied = 0
    for c, r in holes:
        if 2.0 * r < 2.0 * h:
            continue
        punch_hole(mesh, c, r)
        applied += 1
    return applied


# ----------------------------------------------------------------- I/O


_VTK_CELL = {4: 9, 8: 12}  # quad, hexahedron


def write_vtk(path, mesh, point_data=None, cell_data=None):
    """VTK legacy ASCII unstructured grid of the active elements.

    point_data: {name: (n_nodes,) or (n_nodes, k) array} written as
    SCALARS/VECTORS; cell_data likewise over active elements.  A field
    with another row count raises ValueError before the file is opened.
    """
    elems = mesh.elems[mesh.active]
    nodes = mesh.nodes

    def checked(kind, data, n, per):
        out = {}
        for name, arr in (data or {}).items():
            arr = np.asarray(arr, dtype=float)
            length = len(arr) if arr.ndim else 0
            if length != n:
                raise ValueError(f"{kind} {name!r} has length {length}, "
                                 f"expected {n} (one row per {per})")
            out[name] = arr
        return out

    point_data = checked("point_data", point_data, len(nodes), "node")
    cell_data = checked("cell_data", cell_data, len(elems), "active element")

    def rows(fmt, arr):
        return (fmt * len(arr)) % tuple(arr.ravel().tolist())

    def xyz(arr, n):
        pad = np.zeros((n, 3))
        pad[:, :arr.shape[1]] = arr
        return rows("%.9g %.9g %.9g\n", pad)

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("structured composite specimen\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(nodes)} double\n")
        f.write(xyz(nodes, len(nodes)))
        nper = elems.shape[1]
        f.write(f"CELLS {len(elems)} {len(elems) * (nper + 1)}\n")
        f.write(rows(f"{nper}" + " %d" * nper + "\n", elems))
        f.write(f"CELL_TYPES {len(elems)}\n")
        f.write("\n".join([str(_VTK_CELL[nper])] * len(elems)) + "\n")

        def write_arrays(data, n):
            for name, arr in data.items():
                if arr.ndim == 1:
                    f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    f.write(rows("%.9g\n", arr) or "\n")
                else:
                    f.write(f"VECTORS {name} double\n")
                    f.write(xyz(arr, n))

        if point_data:
            f.write(f"POINT_DATA {len(nodes)}\n")
            write_arrays(point_data, len(nodes))
        if cell_data:
            f.write(f"CELL_DATA {len(elems)}\n")
            write_arrays(cell_data, len(elems))
