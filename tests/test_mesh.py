"""Structured meshing, feature carving, defect sampling, and mesh I/O."""

import math

import numpy as np
import pytest

from piezofrac import mesh as meshing


def test_structured_counts_2d():
    m = meshing.structured_mesh((2.0, 1.0), (4, 3), thickness=0.01)
    assert m.n_nodes == 5 * 4
    assert len(m.elems) == 12
    assert m.active.sum() == 12
    assert m.dim == 2
    assert m.thickness == 0.01
    assert len(m.set_nodes("xmin")) == 4
    assert len(m.set_nodes("ymax")) == 5


def test_structured_counts_3d():
    m = meshing.structured_mesh((1.0, 1.0, 2.0), (2, 3, 4))
    assert m.n_nodes == 3 * 4 * 5
    assert len(m.elems) == 24
    assert m.dim == 3
    assert len(m.set_nodes("zmin")) == 12
    assert len(m.set_nodes("xmax")) == 20


def test_total_area_matches_domain():
    m = meshing.structured_mesh((0.10, 0.20), (20, 40))
    hx, hy = m.element_size()
    assert math.isclose(hx * hy * m.active.sum(), 0.02, rel_tol=1e-12)


def test_element_connectivity_counterclockwise():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    for conn in m.elems:
        p = m.nodes[conn]
        # shoelace signed area positive
        area = 0.5 * np.sum(p[:, 0] * np.roll(p[:, 1], -1)
                            - np.roll(p[:, 0], -1) * p[:, 1])
        assert area > 0.0


def test_missing_set_names_available():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    with pytest.raises(KeyError, match="xmin"):
        m.set_nodes("leftmost")


def test_bad_construction_raises():
    with pytest.raises(ValueError):
        meshing.structured_mesh((1.0, -1.0), (2, 2))
    with pytest.raises(ValueError):
        meshing.structured_mesh((1.0, 1.0), (2, 0))
    with pytest.raises(ValueError):
        meshing.structured_mesh((1.0, 1.0), (2, 2), thickness=0.0)
    with pytest.raises(ValueError):
        meshing.structured_mesh((1.0, 1.0, 1.0), (2, 2))


def test_hole_area_accuracy():
    # deactivated area approximates the disc to ~15% once r >= 2h
    m = meshing.structured_mesh((0.10, 0.20), (50, 100))
    r = 0.02
    meshing.punch_hole(m, (0.05, 0.10), r)
    cell = np.prod(m.element_size())
    removed = (len(m.elems) - m.active.sum()) * cell
    assert abs(removed - math.pi * r * r) / (math.pi * r * r) < 0.15


def test_hole_below_resolution_rejected():
    m = meshing.structured_mesh((0.10, 0.20), (10, 20))  # h = 1 cm
    with pytest.raises(ValueError, match="unresolvable"):
        meshing.punch_hole(m, (0.05, 0.10), 0.004)


def test_slit_below_resolution_rejected():
    m = meshing.structured_mesh((0.10, 0.20), (10, 20))
    with pytest.raises(ValueError, match="unresolvable"):
        meshing.slit_elements(m, (0.05, 0.10), 0.0, 0.005)


def test_slit_band_geometry():
    m = meshing.structured_mesh((0.10, 0.20), (40, 80))
    ang = math.radians(30.0)
    t = np.array([math.cos(ang), math.sin(ang)])
    start = np.array([0.05, 0.10]) - 0.015 * t
    ids = meshing.slit_elements(m, start, ang, 0.03)
    assert ids.size > 0
    # all selected centroids hug the segment
    cen = m.centroids()[ids]
    rel = cen - start
    s = np.clip(rel @ t, 0.0, 0.03)
    dist = np.linalg.norm(rel - s[:, None] * t, axis=1)
    h = float(np.max(m.element_size()))
    assert np.all(dist <= 0.5 * h + 1e-12)
    # band length comparable to slit length
    assert 0.03 / h * 0.8 <= ids.size <= 0.03 / h * 3.0


def test_cut_slit_deactivates():
    m = meshing.structured_mesh((0.10, 0.20), (40, 80))
    ids = meshing.cut_slit(m, (0.04, 0.10), 0.0, 0.02)
    assert not m.active[ids].any()
    assert m.active.sum() == len(m.elems) - ids.size


def test_punch_outside_cylinder_area():
    m = meshing.structured_mesh((0.04, 0.04, 0.05), (20, 20, 5))
    meshing.punch_outside_cylinder(m, (0.02, 0.02), 0.02)
    kept = m.active.sum() / len(m.elems)
    assert abs(kept - math.pi / 4.0) < 0.05


# the scenario schema's defect_{mean,std,min}_radius defaults
RADII = dict(mean_radius=2.0e-3, std_radius=1.2e-3, min_radius=0.25e-3)


def test_defect_sampler_targets_area():
    # one percent of a 10 x 20 cm plate is 2 cm^2 of holes; the stopping
    # rule overshoots by at most the final hole
    rng = np.random.default_rng(42)
    target = 0.01 * 0.10 * 0.20
    holes = meshing.random_defects(rng, (0.0, 0.0), (0.10, 0.20), target,
                                   **RADII)
    areas = [math.pi * r * r for _, r in holes]
    assert sum(areas) >= target
    assert sum(areas) - target <= max(areas)
    assert all(r >= 0.25e-3 for _, r in holes)
    for c, _r in holes:
        assert 0.0 <= c[0] <= 0.10 and 0.0 <= c[1] <= 0.20


def test_defect_sampler_deterministic():
    a = meshing.random_defects(np.random.default_rng(7), (0.0, 0.0),
                               (0.1, 0.2), 2e-4, **RADII)
    b = meshing.random_defects(np.random.default_rng(7), (0.0, 0.0),
                               (0.1, 0.2), 2e-4, **RADII)
    assert len(a) == len(b)
    for (ca, ra), (cb, rb) in zip(a, b):
        assert ra == rb and np.array_equal(ca, cb)


def test_defect_sampler_gives_up():
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="target area"):
        meshing.random_defects(rng, (0.0, 0.0), (1.0, 1.0), 1.0,
                               mean_radius=1e-3, std_radius=1e-4,
                               min_radius=0.25e-3, max_tries=50)


def test_apply_defects_skips_subcell():
    m = meshing.structured_mesh((0.10, 0.20), (20, 40))  # h = 5 mm
    holes = [(np.array([0.05, 0.05]), 0.001),   # sub-cell, skipped
             (np.array([0.05, 0.15]), 0.012)]
    n = meshing.apply_defects(m, holes)
    assert n == 1
    assert m.active.sum() < len(m.elems)


def test_vtk_writer_structure(tmp_path):
    m = meshing.structured_mesh((1.0, 2.0), (2, 4))
    m.active[0] = False
    path = tmp_path / "m.vtk"
    meshing.write_vtk(path, m,
                      point_data={"phi": np.arange(m.n_nodes, dtype=float),
                                  "u": np.ones((m.n_nodes, 2))},
                      cell_data={"H": np.zeros(m.active.sum())})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    ipts = next(i for i, l in enumerate(text) if l.startswith("POINTS"))
    assert int(text[ipts].split()[1]) == m.n_nodes
    icell = next(i for i, l in enumerate(text) if l.startswith("CELLS"))
    assert int(text[icell].split()[1]) == m.active.sum()
    assert any(l.startswith("SCALARS phi") for l in text)
    assert any(l.startswith("VECTORS u") for l in text)
    assert any(l.startswith("CELL_DATA") for l in text)
    # quad cell type
    itype = next(i for i, l in enumerate(text) if l.startswith("CELL_TYPES"))
    assert text[itype + 1].strip() == "9"


_GOLDEN_VTK = """\
# vtk DataFile Version 3.0
structured composite specimen
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 6 double
0 0 0
0 1 0
1 0 0
1 1 0
2 0 0
2 1 0
CELLS 1 5
4 0 2 3 1
CELL_TYPES 1
9
POINT_DATA 6
SCALARS phi double 1
LOOKUP_TABLE default
-0
1e-300
2.5e+10
nan
inf
0.333333333
VECTORS u double
-0.714285714 -0.571428571 0
-0.428571429 -0.285714286 0
-0.142857143 0 0
0.142857143 0.285714286 0
0.428571429 0.571428571 0
0.714285714 0.857142857 0
CELL_DATA 1
SCALARS d double 1
LOOKUP_TABLE default
0.125
"""


def test_vtk_writer_golden_file(tmp_path):
    m = meshing.structured_mesh((2.0, 1.0), (2, 1))
    m.active[1] = False
    path = tmp_path / "m.vtk"
    phi = np.array([-0.0, 1e-300, 2.5e10, np.nan, np.inf, 1.0 / 3.0])
    u = (np.arange(12.0).reshape(6, 2) - 5.0) / 7.0
    meshing.write_vtk(path, m, point_data={"phi": phi, "u": u},
                      cell_data={"d": np.array([0.125])})
    assert path.read_text() == _GOLDEN_VTK

    # no active element: the cell blocks are empty but keep their newline
    m.active[:] = False
    meshing.write_vtk(path, m, cell_data={"d": np.zeros(0)})
    tail = path.read_text().split("2 1 0\n", 1)[1]
    assert tail == ("CELLS 0 0\nCELL_TYPES 0\n\nCELL_DATA 0\n"
                    "SCALARS d double 1\nLOOKUP_TABLE default\n\n")


def test_vtk_writer_rejects_wrong_lengths_before_writing(tmp_path):
    path = tmp_path / "bad.vtk"
    m = meshing.structured_mesh((1, 1), (1, 1))
    with pytest.raises(ValueError, match=r"point_data 'phi' has length 3, "
                                         r"expected 4"):
        meshing.write_vtk(path, m, point_data={"phi": np.arange(3.0)})
    assert not path.exists()

    m = meshing.structured_mesh((2.0, 1.0), (2, 1))
    m.active[1] = False
    with pytest.raises(ValueError, match=r"cell_data 'd' has length 2, "
                                         r"expected 1"):
        meshing.write_vtk(path, m, point_data={"phi": np.zeros(6)},
                          cell_data={"d": np.zeros(2)})
    with pytest.raises(ValueError, match=r"point_data 'u' has length 5"):
        meshing.write_vtk(path, m, point_data={"u": np.zeros((5, 2))})
    assert not path.exists()


def test_active_nodes_tracks_carving():
    m = meshing.structured_mesh((1.0, 1.0), (4, 4))
    assert m.active_nodes().all()
    m.active[:] = False
    m.active[0] = True
    mask = m.active_nodes()
    assert mask.sum() == 4
    assert np.array_equal(np.flatnonzero(mask), np.sort(m.elems[0]))
