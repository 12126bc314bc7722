"""Shape functions, element tables, DOF layout, and Dirichlet plumbing."""

import numpy as np
import pytest

from piezofrac import elements, mesh as meshing


def test_partition_of_unity_2d():
    rng = np.random.default_rng(0)
    for xi in rng.uniform(-1, 1, (20, 2)):
        N, dN = elements.shape_functions(2, xi)
        assert abs(N.sum() - 1.0) < 1e-14
        assert np.abs(dN.sum(axis=0)).max() < 1e-14


def test_partition_of_unity_3d():
    rng = np.random.default_rng(1)
    for xi in rng.uniform(-1, 1, (20, 3)):
        N, dN = elements.shape_functions(3, xi)
        assert abs(N.sum() - 1.0) < 1e-14
        assert np.abs(dN.sum(axis=0)).max() < 1e-14


def test_lagrange_property():
    corners2, _, _ = elements._reference(2)
    for a, corner in enumerate(corners2):
        N, _ = elements.shape_functions(2, corner)
        want = np.zeros(4)
        want[a] = 1.0
        assert np.allclose(N, want, atol=1e-14)
    corners3, _, _ = elements._reference(3)
    for a, corner in enumerate(corners3):
        N, _ = elements.shape_functions(3, corner)
        want = np.zeros(8)
        want[a] = 1.0
        assert np.allclose(N, want, atol=1e-14)


def test_linear_completeness():
    # an affine field is reproduced exactly by the interpolation
    m = meshing.structured_mesh((1.3, 0.7), (3, 2))
    rng = np.random.default_rng(2)
    m.nodes[4:6] += 0.02 * rng.standard_normal((2, 2))
    t = elements.element_tables(m)
    a, b, c = 0.3, -1.7, 2.2
    f = a + b * m.nodes[:, 0] + c * m.nodes[:, 1]
    grads = np.einsum("egai,ea->egi", t.dNdx, f[t.conn])
    assert np.allclose(grads[..., 0], b, atol=1e-12)
    assert np.allclose(grads[..., 1], c, atol=1e-12)


def test_rigid_translation_zero_strain():
    m = meshing.structured_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    t = elements.element_tables(m)
    u = np.tile([0.3, -0.2, 0.9], m.n_nodes)
    edof = (t.conn[:, :, None] * 3 + np.arange(3)).reshape(len(t.conn), -1)
    eps = np.einsum("egKA,eA->egK", t.B, u[edof])
    assert np.abs(eps).max() < 1e-13


def test_affine_displacement_exact_strain_3d():
    # every B row, the three shear rows included, reads the engineering
    # strain of an affine field, also on a distorted brick
    m = meshing.structured_mesh((1.0, 2.0, 3.0), (2, 2, 2))
    center = np.flatnonzero(np.all(m.nodes == [0.5, 1.0, 1.5], axis=1))
    m.nodes[center] += [0.04, -0.06, 0.05]
    t = elements.element_tables(m)
    A = np.array([[0.3, -0.7, 0.2],
                  [0.5, -0.1, 0.9],
                  [-0.4, 0.6, 0.8]])
    u = (m.nodes @ A.T + [0.1, -0.2, 0.3]).ravel()
    edof = (t.conn[:, :, None] * 3 + np.arange(3)).reshape(len(t.conn), -1)
    eps = np.einsum("egKA,eA->egK", t.B, u[edof])
    want = [A[0, 0], A[1, 1], A[2, 2], A[1, 2] + A[2, 1], A[0, 2] + A[2, 0],
            A[0, 1] + A[1, 0]]
    assert np.allclose(eps, want, rtol=0.0, atol=1e-13)


def test_weights_sum_to_volume():
    m = meshing.structured_mesh((0.2, 0.1), (5, 4), thickness=0.005)
    t = elements.element_tables(m)
    assert abs(t.w.sum() - 0.2 * 0.1 * 0.005) < 1e-15
    m3 = meshing.structured_mesh((0.2, 0.1, 0.3), (3, 2, 4))
    t3 = elements.element_tables(m3)
    assert abs(t3.w.sum() - 0.2 * 0.1 * 0.3) < 1e-15


def test_inverted_element_named():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    # collapse element 3 by dragging one of its exclusive corners
    corner = m.elems[3, 2]
    m.nodes[corner] = m.nodes[m.elems[3, 0]] - 0.7
    with pytest.raises(elements.JacobianError, match="3"):
        elements.element_tables(m)


def test_tables_skip_inactive():
    m = meshing.structured_mesh((1.0, 1.0), (3, 3))
    m.active[4] = False
    t = elements.element_tables(m)
    assert len(t.conn) == 8
    assert t.n_elems == 8


def test_dofmap_layout():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    dm = elements.DofMap(m)
    n = m.n_nodes
    assert dm.ndof == 2 * n + n + n
    assert dm.off_phi == 2 * n
    assert dm.off_d == 3 * n
    nodes = np.array([0, 5])
    assert np.array_equal(dm.u_dofs(nodes, 0), [0, 10])
    assert np.array_equal(dm.u_dofs(nodes, 1), [1, 11])
    assert np.array_equal(dm.u_dofs(nodes).ravel(), [0, 1, 10, 11])
    assert np.array_equal(dm.phi_dofs(nodes), [2 * n, 2 * n + 5])
    assert dm.slices == (slice(0, 2 * n), slice(2 * n, 3 * n),
                         slice(3 * n, 4 * n))
    x = np.arange(float(dm.ndof))
    u, phi, d = dm.split(x)
    assert np.array_equal(np.concatenate([u, phi, d]), x)
    assert (u.size, phi.size, d.size) == (2 * n, n, n)
    d[0] = -1.0                       # views, not copies
    assert x[3 * n] == -1.0


def test_constraints_build_and_rescale():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    dm = elements.DofMap(m)
    con = elements.Constraints(dm)
    nodes = m.set_nodes("ymax")
    con.fix("pull", dm.u_dofs(nodes, 1), value=2.0)
    con.fix("pin", dm.u_dofs(m.set_nodes("ymin")).ravel())
    fixed, vals, free = con.build()
    assert fixed.size == len(nodes) + 2 * len(m.set_nodes("ymin"))
    assert set(fixed) | set(free) == set(range(dm.ndof))
    assert np.all(vals[np.isin(fixed, dm.u_dofs(nodes, 1))] == 2.0)
    con.set_value("pull", -1.0)
    _, vals2, _ = con.build()
    assert np.all(vals2[np.isin(fixed, dm.u_dofs(nodes, 1))] == -1.0)


def test_constraints_pattern_scaling():
    m = meshing.structured_mesh((2.0, 1.0), (2, 1))
    dm = elements.DofMap(m)
    con = elements.Constraints(dm)
    nodes = np.arange(m.n_nodes)
    con.fix("ramp", dm.u_dofs(nodes, 0), pattern=m.nodes[:, 0], value=3.0)
    fixed, vals, _ = con.build()
    got = vals[np.argsort(fixed)][:m.n_nodes]
    order = np.argsort(dm.u_dofs(nodes, 0))
    assert np.allclose(got, 3.0 * m.nodes[order, 0])


def test_constraints_conflict_rejected():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    dm = elements.DofMap(m)
    con = elements.Constraints(dm)
    con.fix("a", [0, 1], value=1.0)
    con.fix("b", [1, 2], value=2.0)
    with pytest.raises(ValueError, match="conflicting.*'a'.*'b'"):
        con.build()


def test_constraints_nearly_equal_values_conflict():
    """Groups agree on a shared DOF only with exactly equal values: 5e-9
    (metres or volts) against 0 is a conflict, not a merge."""
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    con = elements.Constraints(elements.DofMap(m))
    con.fix("tiny", [0, 1], value=5e-9)
    con.fix("zero", [1, 2], value=0.0)
    with pytest.raises(ValueError,
                       match=r"dof 1: group 'tiny' prescribes 5e-09, "
                             r"group 'zero' 0\.0"):
        con.build()


def test_constraints_agreeing_overlap_merged():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    dm = elements.DofMap(m)
    con = elements.Constraints(dm)
    con.fix("a", [0, 1], value=0.0)
    con.fix("b", [1, 2], value=0.0)
    fixed, vals, _ = con.build()
    assert np.array_equal(np.sort(fixed), [0, 1, 2])


def test_duplicate_group_name_rejected():
    m = meshing.structured_mesh((1.0, 1.0), (1, 1))
    con = elements.Constraints(elements.DofMap(m))
    con.fix("pin", [0])
    with pytest.raises(ValueError, match="already defined"):
        con.fix("pin", [1])


def test_inactive_nodes_auto_pinned():
    m = meshing.structured_mesh((1.0, 1.0), (3, 3))
    m.active[:3] = False   # strip the x = 0 column of elements
    dm = elements.DofMap(m)
    con = elements.Constraints(dm)
    fixed, vals, free = con.build()
    dead_nodes = np.flatnonzero(~m.active_nodes())
    assert dead_nodes.size > 0
    for node in dead_nodes:
        for dof in (dm.u_dofs([node]).ravel().tolist()
                    + [dm.phi_dofs([node])[0], dm.off_d + node]):
            assert dof in fixed
    assert np.all(vals == 0.0)
