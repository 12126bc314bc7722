"""Coupled-field assembly and the block-triangular stepping solver."""

import math

import numpy as np
import pytest

from piezofrac import elements, mesh as meshing, solver, tensors

MAT = dict(E=3.6e9, nu=0.27, Gc=180.0, ell=5e-3,
           rho0=9.66, lam11=1.0776, lam12=2.2776,
           k=50.0, n=6.0, eps_reg=1e-7)


def _mat(**kw):
    return solver.MaterialPoint(**{**MAT, **kw})


def _residual(sys_, x, H):
    """All three blocks' residual rows at state x, in full DOF layout."""
    g = sys_.gauss(x)
    return np.concatenate([sys_.block(k, g, H) for k in range(3)])


def _advance(sys_, state):
    return solver.advance_history(sys_, state, sys_.gauss(state.x)[0])


def _resistivity(mat, voigt):
    """Strained resistivity rho0 (I + r) of the linearized law, written
    out: the shear sensitivity (lam11 - lam12)/2 acts on engineering
    shears (Voigt order 11, 22, 33, 23, 13, 12)."""
    l11, l12 = mat.lam11, mat.lam12
    l44 = 0.5 * (l11 - l12)
    e1, e2, e3, g23, g13, g12 = voigt
    r = np.array([[l11 * e1 + l12 * (e2 + e3), l44 * g12, l44 * g13],
                  [l44 * g12, l11 * e2 + l12 * (e1 + e3), l44 * g23],
                  [l44 * g13, l44 * g23, l11 * e3 + l12 * (e1 + e2)]])
    return mat.rho0 * (np.eye(3) + r)


# ------------------------------------------------------- degradation


def test_h1_endpoints():
    assert solver.h1(0.0, 1e-7) == pytest.approx(1.0 + 1e-7, abs=1e-16)
    assert solver.h1(1.0, 1e-7) == pytest.approx(1e-7, abs=1e-16)
    assert solver.h1(0.5, eps_reg=0.0) == pytest.approx(0.25)


def test_h2_endpoints_and_midpoint():
    assert solver.h2(0.0, 50.0, 6.0, 1e-7) == pytest.approx(1.0 + 1e-7,
                                                            abs=1e-12)
    assert solver.h2(1.0, 50.0, 6.0, 1e-7) == pytest.approx(1e-7, abs=1e-12)
    # frozen midpoint: (1 - exp(-50 * 0.5^6)) / (1 - exp(-50))
    assert solver.h2(0.5, 50.0, 6.0, eps_reg=0.0) == pytest.approx(
        0.54216663822765787, rel=1e-12)


def test_h2_monotone_decreasing_all_shapes():
    # steep shapes are numerically flat near d = 0 (the change sits far
    # below one ulp of 1.0), so the grid check is non-increasing plus a
    # strict overall drop
    d = np.linspace(0.0, 1.0, 1001)
    for k in (10.0, 50.0, 90.0):
        for n in (4.0, 6.0, 8.0):
            v = solver.h2(d, k, n, 1e-7)
            assert np.all(np.diff(v) <= 0.0), (k, n)
            assert v[0] > v[-1]
            interior = v[(d > 0.3) & (d < 0.9)]
            assert np.all(np.diff(interior) < 0.0), (k, n)


def test_material_point_validation():
    with pytest.raises(ValueError):
        _mat(E=-1.0)
    with pytest.raises(ValueError):
        _mat(nu=0.6)
    with pytest.raises(ValueError):
        _mat(Gc=0.0)
    with pytest.raises(ValueError):
        _mat(rho0=0.0)
    with pytest.raises(ValueError):
        _mat(k=0.0)
    with pytest.raises(ValueError):
        _mat(n=0.5)
    with pytest.raises(ValueError):
        _mat(eps_reg=0.0)


def test_stiffness_matrices():
    m = _mat()
    C2 = m.stiffness(2)
    f = MAT["E"] / (1 - MAT["nu"] ** 2)
    assert C2[0, 0] == pytest.approx(f)
    assert C2[0, 1] == pytest.approx(f * MAT["nu"])
    assert C2[2, 2] == pytest.approx(0.5 * f * (1 - MAT["nu"]))
    C3 = m.stiffness(3)
    assert np.allclose(C3, tensors.isotropic_stiffness(MAT["E"], MAT["nu"]))


# ------------------------------------------------------------ assembly


def _uniform_strain_system(exx=1e-3, eyy=-4e-4, gxy=3e-4, divisions=(3, 2),
                           distort=True):
    m = meshing.structured_mesh((1.2, 0.9), divisions, thickness=1.0)
    if distort:
        rng = np.random.default_rng(5)
        inner = np.ones(m.n_nodes, dtype=bool)
        for s in ("xmin", "xmax", "ymin", "ymax"):
            inner[m.set_nodes(s)] = False
        m.nodes[inner] += rng.uniform(-0.04, 0.04, (int(inner.sum()), 2))
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    bnd = np.zeros(m.n_nodes, dtype=bool)
    for s in ("xmin", "xmax", "ymin", "ymax"):
        bnd[m.set_nodes(s)] = True
    ids = np.flatnonzero(bnd)
    ux = exx * m.nodes[ids, 0] + 0.5 * gxy * m.nodes[ids, 1]
    uy = eyy * m.nodes[ids, 1] + 0.5 * gxy * m.nodes[ids, 0]
    con.fix("bx", dm.u_dofs(ids, 0), pattern=ux, value=1.0)
    con.fix("by", dm.u_dofs(ids, 1), pattern=uy, value=1.0)
    con.fix("phi", dm.phi_dofs(np.arange(m.n_nodes)))
    con.fix("d", dm.off_d + np.arange(m.n_nodes))
    return m, sys_, con


def test_patch_test_distorted_quads():
    # linear boundary data reproduces the uniform strain state exactly
    exx, eyy, gxy = 1e-3, -4e-4, 3e-4
    m, sys_, con = _uniform_strain_system(exx, eyy, gxy)
    state, _ = solver.solve_step(sys_, sys_.empty_state(), con)
    eps, _, _, _ = sys_.gauss(state.x)
    target = np.array([exx, eyy, gxy])
    assert np.abs(eps - target).max() / np.abs(target).max() < 1e-10


def test_zero_fields_zero_residual():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    sys_ = solver.CoupledSystem(m, _mat())
    st = sys_.empty_state()
    R = _residual(sys_, st.x, st.H)
    assert np.abs(R).max() == 0.0


def test_non_finite_residual_names_its_element():
    # the message names the mesh element, not the history row: with
    # element 0 inactive, row 2 is mesh element 3
    for inactive, row in ((None, 3), (0, 2)):
        m = meshing.structured_mesh((1.0, 1.0), (2, 2))
        if inactive is not None:
            m.active[inactive] = False
        sys_ = solver.CoupledSystem(m, _mat())
        st = sys_.empty_state()
        st.H[row, 0] = np.nan
        with pytest.raises(solver.StepFailure, match=r"non-finite "
                           r"residual from active elements \[3\]$"):
            _residual(sys_, st.x, st.H)


def test_uniform_potential_zero_charge_residual():
    m = meshing.structured_mesh((1.0, 1.0), (3, 3))
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    x = np.zeros(dm.ndof)
    x[dm.off_phi:dm.off_d] = 4.2
    R = _residual(sys_, x, np.zeros_like(sys_.tables.w))
    assert np.abs(R[dm.off_phi:dm.off_d]).max() < 1e-12


def test_single_element_stiffness_hand_quadrature():
    # independent dense Gauss loop on one unit square element; node
    # reference coordinates come from physical position, so no local
    # ordering convention is assumed
    m = meshing.structured_mesh((1.0, 1.0), (1, 1))
    mat = _mat()
    sys_ = solver.CoupledSystem(m, mat)
    rng = np.random.default_rng(3)
    x = np.zeros(sys_.dofmap.ndof)
    x[:8] = 1e-4 * rng.standard_normal(8)
    R = _residual(sys_, x, np.zeros((1, 4)))

    ref = 2.0 * m.nodes - 1.0   # unit square -> reference square
    C = mat.stiffness(2)
    g = 1.0 / math.sqrt(3.0)
    K = np.zeros((8, 8))
    for xi in (-g, g):
        for eta in (-g, g):
            B = np.zeros((3, 8))
            for a in range(4):
                xa, ya = ref[a]
                # dN/dx = 2 dN/dxi on this geometry (J = I/2)
                dnx = 0.5 * xa * (1.0 + eta * ya)
                dny = 0.5 * ya * (1.0 + xi * xa)
                B[0, 2 * a] = dnx
                B[1, 2 * a + 1] = dny
                B[2, 2 * a] = dny
                B[2, 2 * a + 1] = dnx
            K += B.T @ C @ B * 0.25   # detJ = 1/4, unit weights/thickness
    want = (1.0 + 1e-7) * K @ x[:8]   # intact-material degradation floor
    assert np.allclose(R[:8], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_conductivity_matches_resistivity_map():
    mat = _mat()
    m = meshing.structured_mesh((1.0, 1.0), (1, 1))
    sys_ = solver.CoupledSystem(m, mat)
    eps2 = np.array([[[2e-3, -1e-3, 5e-4]]])
    sig = sys_.conductivity(eps2)[0, 0]
    voigt = np.array([2e-3, -1e-3, 0.0, 0.0, 0.0, 5e-4])
    rho = _resistivity(mat, voigt)
    assert np.allclose(sig, np.linalg.inv(rho[:2, :2]), rtol=1e-12)


def test_conductivity_3d_matches_resistivity_map():
    mat = _mat()
    m = meshing.structured_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    sys_ = solver.CoupledSystem(m, mat)
    voigt = np.array([2e-3, -1e-3, 4e-4, 3e-4, -2e-4, 5e-4])
    eps = voigt.reshape(1, 1, 6)
    sig = sys_.conductivity(eps)[0, 0]
    rho = _resistivity(mat, voigt)
    assert np.allclose(sig, np.linalg.inv(rho), rtol=1e-12)


@pytest.mark.parametrize("lengths, voigt", [
    ((1.0, 1.0), (-0.5, -0.5, 0.0)),
    # two negative eigenvalues: det(rho) > 0 although rho is indefinite
    ((1.0, 1.0, 1.0), (-0.15, -0.15, -0.25, 0.0, 0.0, 0.0)),
], ids=["quad", "brick"])
def test_conductivity_loses_definiteness_raises(lengths, voigt):
    mat = _mat()
    m = meshing.structured_mesh(lengths, (1,) * len(lengths))
    sys_ = solver.CoupledSystem(m, mat)
    eps = np.array(voigt).reshape(1, 1, -1)
    with pytest.raises(solver.StepFailure, match="definiteness"):
        sys_.conductivity(eps)


# ----------------------------------------------------- field solutions


def test_homogeneous_damage_exact():
    # uniform strain energy: d = 2 psi ell / (Gc + 2 psi ell); driving at
    # psi = Gc / (2 ell) lands exactly on d = 1/2
    m = meshing.structured_mesh((1.0, 1.0), (1, 1))
    mat = _mat()
    sys_ = solver.CoupledSystem(m, mat)
    dm = sys_.dofmap
    delta = math.sqrt(mat.Gc / (mat.ell * mat.stiffness(2)[0, 0]))
    con = elements.Constraints(dm)
    nodes = np.arange(m.n_nodes)
    con.fix("ux", dm.u_dofs(nodes, 0), pattern=m.nodes[:, 0], value=delta)
    con.fix("uy", dm.u_dofs(nodes, 1))
    con.fix("phi", dm.phi_dofs(nodes))
    state = sys_.empty_state()
    for _ in range(2):   # load, then hold so the history picks it up
        state, _ = solver.solve_step(sys_, state, con)
        _advance(sys_, state)
    d = state.x[dm.off_d:]
    assert np.abs(d - 0.5).max() < 1e-6


def test_block_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    m = meshing.structured_mesh((1.0, 0.8), (3, 2))
    m.nodes[5:8] += 0.02 * rng.standard_normal((3, 2))
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    n = m.n_nodes
    x = np.zeros(dm.ndof)
    x[:dm.off_phi] = 1e-4 * rng.standard_normal(dm.off_phi)
    x[dm.off_phi:dm.off_d] = rng.standard_normal(n)
    x[dm.off_d:] = rng.uniform(0.0, 0.9, n)
    H = rng.uniform(0.0, 1e4, sys_.tables.w.shape)
    spans = ((0, dm.off_phi), (dm.off_phi, dm.off_d), (dm.off_d, dm.ndof))
    for k, (lo, hi) in enumerate(spans):
        K = sys_.block(k, sys_.gauss(x), H, jacobian=True)[1]
        e = rng.standard_normal(hi - lo)
        e /= np.linalg.norm(e)
        step = 1e-6 * max(np.abs(x[lo:hi]).max(), 1e-3)
        xp, xm = x.copy(), x.copy()
        xp[lo:hi] += step * e
        xm[lo:hi] -= step * e
        fd = (_residual(sys_, xp, H)
              - _residual(sys_, xm, H))[lo:hi] / (2 * step)
        an = K @ e
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-6
    with pytest.raises(ValueError, match="block index"):
        sys_.block(3, sys_.gauss(x), H)


def test_history_monotone():
    m = meshing.structured_mesh((1.0, 1.0), (2, 2))
    sys_ = solver.CoupledSystem(m, _mat())
    state = sys_.empty_state()
    rng = np.random.default_rng(1)
    state.x[:sys_.dofmap.off_phi] = 1e-3 * rng.standard_normal(
        sys_.dofmap.off_phi)
    _advance(sys_, state)
    H1 = state.H.copy()
    assert np.all(H1 >= 0.0) and H1.max() > 0.0
    state.x[:sys_.dofmap.off_phi] *= 0.1   # unload
    _advance(sys_, state)
    assert np.array_equal(state.H, H1)


def test_damage_irreversible_on_unload():
    # load to partial damage, then unload to zero: d must not decrease
    m = meshing.structured_mesh((0.05, 0.013), (8, 3), thickness=0.005)
    mat = _mat()
    sys_ = solver.CoupledSystem(m, mat)
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("phi", dm.phi_dofs(np.arange(m.n_nodes)))
    state = sys_.empty_state()
    u_load = 0.05 * math.sqrt(mat.Gc / (mat.ell * mat.stiffness(2)[0, 0]))
    d_prev = state.x[dm.off_d:].copy()
    for val in (u_load, u_load, 0.0):
        con.set_value("pull", val)
        state, _ = solver.solve_step(sys_, state, con, d_floor=d_prev)
        _advance(sys_, state)
        d_now = state.x[dm.off_d:]
        assert np.all(d_now >= d_prev - 1e-15)
        d_prev = d_now.copy()
    assert d_prev.max() > 1e-4   # damage actually developed


def test_converged_step_is_exact():
    # triangular polish leaves every free residual at solver precision
    m = meshing.structured_mesh((0.05, 0.013), (10, 4), thickness=0.005)
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0), value=2e-5)
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    state, its = solver.solve_step(sys_, sys_.empty_state(), con)
    fixed, vals, free = con.build()
    R = _residual(sys_, state.x, state.H)
    scale = np.linalg.norm(R)
    assert np.linalg.norm(R[free]) < 1e-11 * scale
    assert its >= 1


def test_step_independent_of_start():
    # at frozen H the d -> u -> phi pass is exact, so the starting
    # interior values must not matter
    m = meshing.structured_mesh((0.05, 0.013), (10, 4), thickness=0.005)
    mat = _mat()
    sys_ = solver.CoupledSystem(m, mat)
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0), value=2e-5)
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    rng = np.random.default_rng(7)
    cold = sys_.empty_state()
    cold.H = rng.uniform(0.0, 2.0 * mat.Gc / mat.ell, cold.H.shape)
    warm = cold.copy()
    warm.x[:dm.off_phi] = rng.uniform(-1e-6, 1e-6, dm.off_phi)
    warm.x[dm.off_phi:dm.off_d] = rng.uniform(0.0, 1.7e-3, dm.n_nodes)
    warm.x[dm.off_d:] = rng.uniform(0.0, 0.5, dm.n_nodes)
    # a start strain at which the strained resistivity is indefinite:
    # the d and u solves must not read it
    strained = cold.copy()
    strained.x[:dm.off_phi] = rng.uniform(-5e-3, 5e-3, dm.off_phi)
    a, _ = solver.solve_step(sys_, cold, con)
    for start in (warm, strained):
        b, _ = solver.solve_step(sys_, start, con)
        for xa, xb in zip(sys_.dofmap.split(a.x), sys_.dofmap.split(b.x)):
            assert np.linalg.norm(xa - xb) <= 1e-10 * np.linalg.norm(xa)


def test_charge_conservation_under_strain():
    m = meshing.structured_mesh((0.05, 0.013), (10, 4), thickness=0.005)
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    res = solver.run_load_program(sys_, con, ["pull"], [1e-5, 2e-5, 3e-5],
                                  "drive", "ground", max_cutbacks=10)
    assert not res.aborted
    for r in res.records:
        assert r.charge_mismatch < 1e-12


def test_resistance_matches_analytic_baseline():
    # uniform strip: R = rho L / (W t) up to the conductance floor
    mat = _mat()
    m = meshing.structured_mesh((0.05, 0.013), (20, 6), thickness=0.005)
    sys_ = solver.CoupledSystem(m, mat)
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    res = solver.run_load_program(sys_, con, ["pull"], [1e-6],
                                  "drive", "ground", max_cutbacks=10)
    want = mat.rho0 * 0.05 / (0.013 * 0.005)
    got = res.records[0].resistance * (1.0 + mat.eps_reg)
    assert abs(got - want) / want < 1e-9
    # record self-consistency: R0 = V / I0
    r0 = res.records[0]
    assert abs(r0.resistance - 1.7e-3 / r0.current) / r0.resistance < 1e-10


def test_gauge_response_positive_slope():
    # axial tension raises resistance: slope ~ lam11 - nu lam12 > 0
    mat = _mat()
    m = meshing.structured_mesh((0.05, 0.013), (20, 6), thickness=0.005)
    sys_ = solver.CoupledSystem(m, mat)
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    res = solver.run_load_program(sys_, con, ["pull"], [5e-6, 1e-5],
                                  "drive", "ground", max_cutbacks=10)
    rel = np.array([r.rel_resistance for r in res.records])
    assert rel[0] == 0.0
    assert np.all(np.diff(rel) > 0.0)
    gf = rel[-1] / (1e-5 / 0.05)
    want = mat.lam11 - MAT["nu"] * mat.lam12
    assert 0.5 * want < gf < 2.0 * want


@pytest.mark.parametrize("drive, ground", [(2.5, 0.0), (3.0, 0.5)])
def test_voltage_read_from_electrode_groups(drive, ground):
    # the applied voltage is the drive group's value minus the ground
    # group's; no voltage is passed to the load program
    m = meshing.structured_mesh((0.05, 0.013), (8, 3), thickness=0.005)
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=drive)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")), value=ground)
    assert con.value("drive") - con.value("ground") == 2.5
    res = solver.run_load_program(sys_, con, ["pull"], [1e-5, 2e-5],
                                  "drive", "ground", max_cutbacks=10)
    assert len(res.records) == 3
    for r in res.records:
        assert r.current > 0.0
        assert r.resistance == 2.5 / r.current


def test_zero_voltage_zero_current():
    m = meshing.structured_mesh((0.05, 0.013), (8, 3), thickness=0.005)
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=0.0)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    res = solver.run_load_program(sys_, con, ["pull"], [1e-5, 2e-5],
                                  "drive", "ground", max_cutbacks=10)
    assert np.all(np.array([r.current for r in res.records]) == 0.0)
    assert np.all(np.isinf(np.array([r.resistance for r in res.records])))


def test_cutback_bisects_and_aborts_on_persistent_failure():
    # biaxial crush past the piezoresistive definiteness limit: the
    # final target can never converge, the ramp bisects toward it and
    # the run aborts with all converged steps preserved
    mat = _mat()
    m = meshing.structured_mesh((0.01, 0.01), (2, 2), thickness=0.005)
    sys_ = solver.CoupledSystem(m, mat)
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    nodes = np.arange(m.n_nodes)
    con.fix("cx", dm.u_dofs(nodes, 0), pattern=m.nodes[:, 0], value=0.0)
    con.fix("cy", dm.u_dofs(nodes, 1), pattern=m.nodes[:, 1], value=0.0)
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.0)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    res = solver.run_load_program(sys_, con, ["cx", "cy"], [-0.4],
                                  "drive", "ground", max_cutbacks=4)
    assert res.aborted
    assert "definiteness" in res.abort_reason
    assert len(res.records) >= 1          # baseline survived
    assert np.isfinite(res.state.x).all()
    # the last persisted record stays before the definiteness limit
    crush = abs(res.records[-1].u_applied) * (mat.lam11 + mat.lam12)
    assert crush < 1.0


def test_record_counts_cutbacks(monkeypatch):
    # the first target fails once, converges after one bisection, and
    # its record says so; the other records needed none
    m = meshing.structured_mesh((0.01, 0.01), (2, 2), thickness=0.005)
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.0)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    real, calls = solver.solve_step, []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise solver.StepFailure("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_step", flaky)
    res = solver.run_load_program(sys_, con, ["pull"], [1e-6, 2e-6],
                                  "drive", "ground", max_cutbacks=10)
    assert not res.aborted
    assert [r.cutbacks for r in res.records] == [0, 1, 0]
    assert len(calls) == 5


def test_run_deterministic():
    def run():
        m = meshing.structured_mesh((0.05, 0.013), (10, 4), thickness=0.005)
        sys_ = solver.CoupledSystem(m, _mat())
        dm = sys_.dofmap
        con = elements.Constraints(dm)
        con.fix("grip", dm.u_dofs(m.set_nodes("xmin")).ravel())
        con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
        con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
        con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
        return solver.run_load_program(sys_, con, ["pull"], [1e-5, 2e-5],
                                       "drive", "ground", max_cutbacks=10)

    a, b = run(), run()
    for ra, rb in zip(a.records, b.records):
        assert ra == rb   # bit-identical dataclass fields


def test_converged_step_evaluated_once_for_record_and_history(monkeypatch):
    # each converged step: one Gauss evaluation per block solve (d, u,
    # phi), then one evaluation of the converged state that feeds the
    # record's displacement and potential rows and the history update;
    # the damage rows are never assembled for the record
    m = meshing.structured_mesh((0.05, 0.013), (10, 4), thickness=0.005)
    sys_ = solver.CoupledSystem(m, _mat())
    dm = sys_.dofmap
    con = elements.Constraints(dm)
    con.fix("grip", dm.u_dofs(m.set_nodes("xmin")))
    con.fix("pull", dm.u_dofs(m.set_nodes("xmax"), 0))
    con.fix("drive", dm.phi_dofs(m.set_nodes("xmin")), value=1.7e-3)
    con.fix("ground", dm.phi_dofs(m.set_nodes("xmax")))
    gauss, block, calls = solver.CoupledSystem.gauss, \
        solver.CoupledSystem.block, []

    def counted_gauss(self, x):
        calls.append("gauss")
        return gauss(self, x)

    def counted_block(self, k, g, H, jacobian=False):
        calls.append((k, jacobian))
        return block(self, k, g, H, jacobian)

    monkeypatch.setattr(solver.CoupledSystem, "gauss", counted_gauss)
    monkeypatch.setattr(solver.CoupledSystem, "block", counted_block)
    res = solver.run_load_program(sys_, con, ["pull"], [1e-5, 2e-5],
                                  "drive", "ground", max_cutbacks=10)
    assert not res.aborted and len(res.records) == 3
    assert [r.cutbacks for r in res.records] == [0, 0, 0]
    step = ["gauss", (2, True), "gauss", (0, True), "gauss", (1, True),
            "gauss", (0, False), (1, False)]
    assert calls == 3 * step


def test_seed_history_placement():
    # mesh elements 3 and 7 land on their rows among the active ones
    for inactive, rows in ((None, [3, 7]), (0, [2, 6])):
        m = meshing.structured_mesh((0.1, 0.2), (10, 20))
        if inactive is not None:
            m.active[inactive] = False
        sys_ = solver.CoupledSystem(m, _mat())
        H = solver.seed_history(sys_, [3, 7], 1e5)
        assert H.shape == sys_.tables.w.shape
        assert np.all(H[rows] == 1e5)
        assert H.sum() == pytest.approx(2 * 4 * 1e5)


def test_seed_history_rejects_inactive():
    m = meshing.structured_mesh((0.1, 0.2), (10, 20))
    m.active[3] = False
    sys_ = solver.CoupledSystem(m, _mat())
    with pytest.raises(ValueError, match="inactive"):
        solver.seed_history(sys_, [3], 1e5)
