"""Exact block-triangular step solver for the strain-potential-damage system.

Each load step solves the three coupled fields at frozen damage-driving
history H: displacement equilibrium with stiffness degraded by h1(d),
charge balance with conductivity degraded by h2(d) and shifted by the
linearized piezoresistive law, and the damage equation driven by H.
With H frozen the step problem is block lower triangular and linear in
each block (d depends only on H, u on d, phi on u and d), so one sparse
LU pass d -> u -> phi solves it exactly; this is the history-field
scheme of Miehe, Hofacker & Welschinger (CMAME 2010).  Each block solve
assembles only its own block (`CoupledSystem.block`): its residual rows
and their Jacobian, from one Gauss-point evaluation of the current
state (`CoupledSystem.gauss`).  A converged state is evaluated once
more: that one evaluation gives the step record (the displacement rows
at the pulled DOFs and the potential rows at the electrodes) and the
history update.  A step that fails is bisected by `run_load_program`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from . import elements, tensors


def h1(d, eps_reg):
    """Stiffness degradation (1-d)^2 + eps_reg."""
    d = np.asarray(d)
    return (1.0 - d) ** 2 + eps_reg


def h2(d, k, n, eps_reg):
    """Conductivity degradation: exponential saturation in (1-d)^n.

    Flat near d = 0 (early damage barely cuts conduction) and dropping
    to eps_reg at full damage.  k > 0 and n >= 1, as `MaterialPoint`
    checks.
    """
    d = np.asarray(d)
    den = -np.expm1(-k)
    return -np.expm1(-k * (1.0 - d) ** n) / den + eps_reg


class StepFailure(RuntimeError):
    """A load step reached an unphysical or non-finite state."""


@dataclass(frozen=True)
class MaterialPoint:
    """Homogenized point data consumed by the assembly."""

    E: float
    nu: float
    Gc: float
    ell: float
    rho0: float
    lam11: float
    lam12: float
    k: float
    n: float
    eps_reg: float

    def __post_init__(self):
        if self.E <= 0.0 or not -1.0 < self.nu < 0.5:
            raise ValueError(f"bad elastic constants E={self.E}, nu={self.nu}")
        if self.Gc <= 0.0 or self.ell <= 0.0:
            raise ValueError(f"bad fracture data Gc={self.Gc}, ell={self.ell}")
        if self.rho0 <= 0.0:
            raise ValueError(f"resistivity must be positive, got {self.rho0}")
        if self.k <= 0.0 or self.n < 1.0:
            raise ValueError(f"bad degradation parameters k={self.k}, n={self.n}")
        if self.eps_reg <= 0.0:
            raise ValueError(f"regularization must be positive: {self.eps_reg}")

    def stiffness(self, dim):
        """Voigt stiffness: plane stress (3x3) in 2D, full 6x6 in 3D."""
        if dim == 3:
            return tensors.isotropic_stiffness(self.E, self.nu)
        f = self.E / (1.0 - self.nu ** 2)
        return f * np.array([[1.0, self.nu, 0.0],
                             [self.nu, 1.0, 0.0],
                             [0.0, 0.0, 0.5 * (1.0 - self.nu)]])


@dataclass
class FieldState:
    """Solution vector (orphan constraints applied) plus Gauss history."""

    x: np.ndarray   # ndof: displacement block, potential block, damage block
    H: np.ndarray   # (ne_active, n_gauss) history, J/m^3

    def copy(self):
        return FieldState(self.x.copy(), self.H.copy())


class CoupledSystem:
    """Vectorized residual/stiffness assembly over one mesh and material."""

    def __init__(self, mesh, mat):
        self.mesh = mesh
        self.mat = mat
        self.tables = elements.element_tables(mesh)
        self.dofmap = elements.DofMap(mesh)
        t = self.tables
        self.C = mat.stiffness(mesh.dim)
        self.CB = np.einsum("KL,egLA->egKA", self.C, t.B)
        self.lam44 = 0.5 * (mat.lam11 - mat.lam12)
        self.edof_u = self.dofmap.u_dofs(t.conn)
        # (element DOFs in block numbering, slice of x) per field block
        self.blocks = tuple(zip((self.edof_u, t.conn, t.conn),
                                self.dofmap.slices))

    # ------------------------------------------------------------ fields

    def empty_state(self):
        t = self.tables
        return FieldState(np.zeros(self.dofmap.ndof),
                          np.zeros((t.n_elems, t.n_gauss)))

    def gauss(self, x):
        """Gauss-point values of state x: (strain, d, grad phi, grad d)."""
        t = self.tables
        u, phi, d = self.dofmap.split(x)
        eps = np.einsum("egKA,eA->egK", t.B, u[self.edof_u])
        d_el = d[t.conn]
        d_gp = np.einsum("ga,ea->eg", t.N, d_el)
        gphi = np.einsum("egai,ea->egi", t.dNdx, phi[t.conn])
        gd = np.einsum("egai,ea->egi", t.dNdx, d_el)
        return eps, d_gp, gphi, gd

    def psi0(self, eps):
        """Undegraded strain energy density at each Gauss point."""
        return 0.5 * np.einsum("egK,KL,egL->eg", eps, self.C, eps)

    def conductivity(self, eps):
        """Strained conductivity tensor per Gauss point.

        Inverse of rho0 (I + r) with r the linearized piezoresistive
        map of the local strain: lam11 on the aligned normal strain,
        lam12 on the other two, and lam44 = (lam11 - lam12)/2 on each
        engineering shear.  In 2D only the in-plane (membrane) strain
        feeds the law and the in-plane resistivity block is inverted.
        """
        m = self.mat
        l11, l12, l44 = m.lam11, m.lam12, self.lam44
        if self.mesh.dim == 2:
            e1, e2, g12 = eps[..., 0], eps[..., 1], eps[..., 2]
            r00 = 1.0 + l11 * e1 + l12 * e2
            r11 = 1.0 + l11 * e2 + l12 * e1
            r01 = l44 * g12
            det = r00 * r11 - r01 * r01
            if np.any(det <= 0.0) or np.any(r00 <= 0.0):
                raise StepFailure(
                    "strained resistivity lost positive definiteness")
            sig = np.empty(eps.shape[:2] + (2, 2))
            sig[..., 0, 0] = r11
            sig[..., 1, 1] = r00
            sig[..., 0, 1] = -r01
            sig[..., 1, 0] = -r01
            return sig / (m.rho0 * det)[..., None, None]
        e1, e2, e3 = eps[..., 0], eps[..., 1], eps[..., 2]
        g23, g13, g12 = eps[..., 3], eps[..., 4], eps[..., 5]
        rho = np.empty(eps.shape[:2] + (3, 3))
        rho[..., 0, 0] = 1.0 + l11 * e1 + l12 * (e2 + e3)
        rho[..., 1, 1] = 1.0 + l11 * e2 + l12 * (e1 + e3)
        rho[..., 2, 2] = 1.0 + l11 * e3 + l12 * (e1 + e2)
        rho[..., 0, 1] = rho[..., 1, 0] = l44 * g12
        rho[..., 0, 2] = rho[..., 2, 0] = l44 * g13
        rho[..., 1, 2] = rho[..., 2, 1] = l44 * g23
        # Sylvester: all three leading minors positive
        minor2 = rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] ** 2
        if (np.any(rho[..., 0, 0] <= 0.0) or np.any(minor2 <= 0.0)
                or np.any(np.linalg.det(rho) <= 0.0)):
            raise StepFailure("strained resistivity lost positive definiteness")
        return np.linalg.inv(rho) / self.mat.rho0

    # ---------------------------------------------------------- assembly

    def block(self, k, g, H, jacobian=False):
        """Residual rows of field block k, in block numbering.

        g is `gauss(x)` of the state.  k indexes the blocks in DOF
        order: 0 displacement, 1 potential, 2 damage; only block 2
        reads the history H.  With `jacobian` it returns (R_k, K_k),
        where K_k is the sparse symmetric exact Jacobian of those rows
        in that block's unknowns at frozen cross-field values, built
        from the same Gauss-point data.
        """
        t, m = self.tables, self.mat
        w = t.w
        eps, d_gp, gphi, gd = g
        if k == 0:
            wh = w * h1(d_gp, m.eps_reg)
            sig0 = np.einsum("KL,egL->egK", self.C, eps)
            R_e = np.einsum("egKA,egK,eg->eA", t.B, sig0, wh)
            if jacobian:
                K_e = np.einsum("egKA,egKB,eg->eAB", t.B, self.CB, wh)
        elif k == 1:
            wh = w * h2(d_gp, m.k, m.n, m.eps_reg)
            sig_c = self.conductivity(eps)
            flux = np.einsum("egij,egj->egi", sig_c, gphi)
            R_e = np.einsum("egai,egi,eg->ea", t.dNdx, flux, wh)
            if jacobian:
                K_e = np.einsum("egai,egij,egbj,eg->eab", t.dNdx, sig_c,
                                t.dNdx, wh)
        elif k == 2:
            bulk = (m.Gc / m.ell) * d_gp - 2.0 * (1.0 - d_gp) * H
            R_e = (np.einsum("ga,eg->ea", t.N, bulk * w)
                   + m.Gc * m.ell * np.einsum("egai,egi,eg->ea", t.dNdx, gd, w))
            if jacobian:
                mass = np.einsum("ga,gb,eg->eab", t.N, t.N,
                                 w * (m.Gc / m.ell + 2.0 * H))
                K_e = mass + m.Gc * m.ell * np.einsum("egai,egbi,eg->eab",
                                                      t.dNdx, t.dNdx, w)
        else:
            raise ValueError(f"block index must be 0, 1 or 2, got {k}")

        edof, sl = self.blocks[k]
        n = sl.stop - sl.start
        R = np.bincount(edof.ravel(), R_e.ravel(), minlength=n)
        if not np.isfinite(R).all():
            bad = t.ids[~np.isfinite(R_e).all(axis=1)][:5].tolist()
            raise StepFailure(f"non-finite residual from active elements {bad}")
        if not jacobian:
            return R
        nper = edof.shape[1]
        rows = np.repeat(edof, nper, axis=1).ravel()
        cols = np.tile(edof, nper).ravel()
        return R, coo_matrix((K_e.ravel(), (rows, cols)), shape=(n, n)).tocsc()


# ------------------------------------------------------------- stepping


def solve_step(system, state, constraints, d_floor=None):
    """Exact solve of one load step at the current Dirichlet values.

    At frozen history H the step problem is block lower triangular and
    linear in each block: the damage equation involves only d and H,
    equilibrium is linear in u once d is known, and charge balance is
    linear in phi once u and d are known.  One LU solve per block, in
    the order d, u, phi, therefore zeroes every free residual row.  The
    monolithic residual vanishes exactly when each block's does, so this
    is the fixed point a monolithic quasi-Newton iteration converges to,
    reached without iterating.  Each solve assembles only its own
    block's rows and Jacobian and applies the increment
    x_f -= K_ff^-1 R_f with R in element flux form, so electrode
    currents balance to factorization precision.
    Damage bounds are applied between the damage and displacement
    solves so the final fields stay mutually consistent.

    Returns (new FieldState, number of block solves).  The history H is
    NOT advanced here; call `advance_history` between steps.  `d_floor`
    (previous converged damage) activates the irreversibility clamp.
    Raises StepFailure when the strained resistivity loses
    definiteness, a residual turns non-finite, or damage drops by more
    than `_D_DROP_TOL`.
    """
    fixed, vals, free = constraints.build()
    x = state.x.copy()
    x[fixed] = vals
    H = state.H
    solves = 0
    for k in (2, 0, 1):
        sl = system.blocks[k][1]
        xk = x[sl]
        f = free[(free >= sl.start) & (free < sl.stop)] - sl.start
        if f.size:
            R, K = system.block(k, system.gauss(x), H, jacobian=True)
            xk[f] -= splu(K[f][:, f]).solve(R[f])
            solves += 1
        if k == 2:
            _apply_damage_bounds(xk, d_floor)
    return FieldState(x, H), solves


# largest per-step damage decrease projected away rather than failed
_D_DROP_TOL = 5e-2


def _apply_damage_bounds(d, d_floor):
    """Project d onto its admissible band in place.

    d <= 1 is a bound constraint: the linear damage solve overshoots
    near saturated sharp-gradient bands (consistent-mass Gibbs effect)
    and the projection realizes the active set, so overshoot is never
    a failure.  A decrease below the previous step beyond _D_DROP_TOL,
    however, signals a diverged solve and aborts; smaller dips are the
    same discrete oscillation and are projected onto the floor.
    """
    if d.size == 0:
        return
    np.clip(d, 0.0, 1.0, out=d)
    if d_floor is not None:
        drop = np.max(d_floor - d)
        if drop > _D_DROP_TOL:
            raise StepFailure(f"damage decreased by {drop:.3e} in one step")
        np.maximum(d, d_floor, out=d)


def advance_history(system, state, eps):
    """Irreversible history update H <- max(H, psi0(eps)).

    eps is the Gauss-point strain of `state.x`.  H is replaced, not
    updated in place, so states that share the previous H keep it.
    """
    state.H = np.maximum(state.H, system.psi0(eps))
    return state


@dataclass
class StepRecord:
    """Per-step curve data of a displacement-controlled run."""

    step: int
    u_applied: float
    force: float
    current: float
    resistance: float
    rel_resistance: float
    max_d: float
    charge_mismatch: float
    cutbacks: int     # load bisections needed before this target converged


@dataclass
class RunResult:
    records: list
    state: FieldState
    aborted: bool = False
    abort_reason: str = ""


def run_load_program(system, constraints, load_groups, load_values,
                     drive_group, ground_group, *,
                     max_cutbacks, observer=None, initial=None):
    """Displacement-controlled stepping with curve extraction.

    load_groups: constraint-group names scaled by each value of
    load_values (monotone program, starting point 0 is implied).
    drive/ground groups name the electrode constraint groups: the
    applied voltage is the drive group's value minus the ground
    group's.  The reaction force is summed over the first load group's
    DOFs.  An observer(step, record, state) callback can dump fields.
    A failed step is retried at the midpoint of the increment; after
    `max_cutbacks` bisections of one target the run aborts and the last
    converged state is returned.
    """
    state = (initial or system.empty_state()).copy()
    # the displacement block starts at DOF 0, so its rows are the load
    # DOFs; the electrode rows are taken in the potential block's
    load_dofs = constraints.group_dofs(load_groups[0])
    off_phi = system.dofmap.off_phi
    drive_rows = constraints.group_dofs(drive_group) - off_phi
    ground_rows = constraints.group_dofs(ground_group) - off_phi
    voltage = constraints.value(drive_group) - constraints.value(ground_group)

    records = []

    def solve_at(value, step_index, cutbacks):
        for name in load_groups:
            constraints.set_value(name, value)
        new, _ = solve_step(system, state, constraints,
                            d_floor=system.dofmap.split(state.x)[2])
        # one evaluation of the converged state serves the reaction
        # force, the electrode currents and the history update; blocks
        # 0 and 1 do not read H
        g = system.gauss(new.x)
        force = float(np.sum(system.block(0, g, new.H)[load_dofs]))
        R_phi = system.block(1, g, new.H)
        i_drive = float(np.sum(R_phi[drive_rows]))
        i_ground = float(np.sum(R_phi[ground_rows]))
        current = max(abs(i_drive), abs(i_ground))
        resistance = abs(voltage) / current if current > 0.0 else math.inf
        r0 = records[0].resistance if records else None
        if r0 is None or r0 == 0.0 or not math.isfinite(r0):
            rel = 0.0
        elif not math.isfinite(resistance):
            rel = math.inf
        else:
            rel = (resistance - r0) / r0
        d = system.dofmap.split(new.x)[2]
        rec = StepRecord(
            step=step_index, u_applied=float(value), force=force,
            current=current, resistance=resistance, rel_resistance=rel,
            max_d=float(d.max()) if d.size else 0.0,
            charge_mismatch=abs(i_drive + i_ground) / max(current, 1e-300),
            cutbacks=cutbacks)
        advance_history(system, new, g[0])
        return rec, new

    # unstrained baseline (R0) before the program
    try:
        rec, state = solve_at(0.0, 0, 0)
    except StepFailure as err:
        return RunResult([], state, aborted=True,
                         abort_reason=f"baseline solve failed: {err}")
    records.append(rec)
    if observer:
        observer(0, rec, state)

    for i, target in enumerate(load_values, start=1):
        prev = records[-1].u_applied
        stack = [float(target)]
        depth = 0
        while stack:
            value = stack[-1]
            try:
                rec, state = solve_at(value, i, depth)
            except StepFailure as err:
                depth += 1
                if depth > max_cutbacks:
                    return RunResult(records, state, aborted=True,
                                     abort_reason=str(err))
                stack.append(0.5 * (prev + value))
                continue
            stack.pop()
            prev = value
        records.append(rec)
        if observer:
            observer(i, rec, state)
    return RunResult(records, state)


def seed_history(system, element_ids, value):
    """Initial-condition crack: raise H on the given active elements.

    Returns the H array shaped for FieldState; `value` is typically
    hundreds of Gc/(2 ell) so the damage equation saturates d near 1.
    """
    t = system.tables
    H = np.zeros((t.n_elems, t.n_gauss))
    ids = np.asarray(element_ids, dtype=np.int64)
    if not np.isin(ids, t.ids).all():
        raise ValueError("history seed on an inactive element")
    H[np.searchsorted(t.ids, ids)] = value
    return H
