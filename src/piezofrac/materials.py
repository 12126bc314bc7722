"""Composite material records and the derived-property pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from . import conduction, elastic


def mass_to_volume_fraction(w_p, rho_f, rho_m):
    """Filler volume fraction from its mass fraction and the densities."""
    if not 0.0 <= w_p < 1.0:
        raise ValueError(f"mass fraction outside [0, 1): {w_p}")
    if rho_f <= 0.0 or rho_m <= 0.0:
        raise ValueError("densities must be positive")
    vf = w_p / rho_f
    return vf / (vf + (1.0 - w_p) / rho_m)


@dataclass(frozen=True)
class CompositeSpec:
    """Immutable parameter record of one fiber/matrix/coating system.

    All fields SI except lambda_eV. The snubbing exponent mu_snub
    defaults to zero (no frictional amplification of inclined pull-out).
    """

    f_p0: float          # filler volume fraction
    L_cnt: float         # fiber length, m
    D_cnt: float         # fiber diameter, m
    E_cnt: float         # fiber Young's modulus, Pa
    nu_cnt: float        # fiber Poisson ratio
    E_m: float           # matrix Young's modulus, Pa
    nu_m: float          # matrix Poisson ratio
    E_i: float           # coating Young's modulus, Pa (Poisson ratio = matrix)
    t_i: float           # coating thickness for the stiffness model, m
    sigma_cnt: float     # fiber conductivity, S/m
    sigma_m: float       # matrix conductivity, S/m
    d_c: float           # tunneling cutoff distance, m
    lambda_eV: float     # tunneling barrier height, eV
    G0: float            # matrix critical energy release rate, J/m^2
    sigma_ult: float     # fiber tensile strength, Pa
    tau_int: float       # interfacial shear strength, Pa
    mu_snub: float = 0.0

    def __post_init__(self):
        pos = {"L_cnt": self.L_cnt, "D_cnt": self.D_cnt, "E_cnt": self.E_cnt,
               "E_m": self.E_m, "E_i": self.E_i, "sigma_cnt": self.sigma_cnt,
               "sigma_m": self.sigma_m, "d_c": self.d_c,
               "lambda_eV": self.lambda_eV, "sigma_ult": self.sigma_ult,
               "tau_int": self.tau_int}
        for name, val in pos.items():
            if val <= 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        if not 0.0 <= self.f_p0 < 1.0:
            raise ValueError(f"f_p0 outside [0, 1): {self.f_p0}")
        if self.t_i < 0.0:
            raise ValueError(f"t_i must be >= 0, got {self.t_i}")
        for name, nu in (("nu_cnt", self.nu_cnt), ("nu_m", self.nu_m)):
            if not -1.0 < nu < 0.5:
                raise ValueError(f"{name} outside (-1, 0.5): {nu}")
        if self.L_cnt < self.D_cnt:
            raise ValueError("fiber length below its diameter")
        if self.G0 < 0.0:
            raise ValueError(f"G0 must be >= 0, got {self.G0}")
        if self.mu_snub < 0.0:
            raise ValueError(f"mu_snub must be >= 0, got {self.mu_snub}")

    @property
    def kappa(self):
        """Fiber aspect ratio."""
        return self.L_cnt / self.D_cnt

    def with_filler(self, f_p0):
        return replace(self, f_p0=f_p0)


@dataclass(frozen=True)
class EffectiveProperties:
    """Homogenized inputs consumed by the field solver."""

    E: float        # Young's modulus, Pa
    nu: float       # Poisson ratio
    Gc: float       # critical energy release rate, J/m^2
    rho0: float     # virgin resistivity, ohm m
    lam11: float    # axial piezoresistive sensitivity
    lam12: float    # transverse piezoresistive sensitivity
    f_c: float      # percolation onset volume fraction

    @property
    def sigma0(self):
        """Virgin conductivity, S/m."""
        return 1.0 / self.rho0


@lru_cache(maxsize=32)
def derive_properties(spec):
    """Run the full homogenization chain for one material record."""
    E, nu = elastic.effective_engineering_constants(spec)
    Gc = elastic.fracture_energy(spec)
    if spec.f_p0 > 0.0:
        f_c = conduction.percolation_threshold(spec.kappa)
        rho0, l11, l12 = conduction.piezoresistivity_coeffs(spec)
    else:
        f_c = float("nan")
        rho0, l11, l12 = 1.0 / spec.sigma_m, 0.0, 0.0
    return EffectiveProperties(E=E, nu=nu, Gc=Gc, rho0=rho0, lam11=l11,
                               lam12=l12, f_c=f_c)


# filler and matrix mass densities of the preset systems, kg/m^3
PRESET_DENSITIES = {"mwcnt_epoxy": (1350.0, 1150.0),
                    "dwcnt_epoxy": (1350.0, 1150.0)}

# reference parameter cards: a bulk structural MWCNT/epoxy system and the
# DWCNT/epoxy dog-bone coupon used for resistance validation
_PRESETS = {
    "mwcnt_epoxy": dict(
        f_p0=0.01, L_cnt=3.21e-6, D_cnt=10.35e-9, E_cnt=700e9, nu_cnt=0.3,
        E_m=2.5e9, nu_m=0.28, E_i=2.17e9, t_i=31e-9, sigma_cnt=100.0,
        sigma_m=1.036e-10, d_c=0.22e-9, lambda_eV=0.69, G0=133.0,
        sigma_ult=35e9, tau_int=47e6),
    "dwcnt_epoxy": dict(
        f_p0=mass_to_volume_fraction(0.005, *PRESET_DENSITIES["dwcnt_epoxy"]),
        L_cnt=5.39e-6, D_cnt=1.203e-9, E_cnt=950e9, nu_cnt=0.3,
        E_m=2.79e9, nu_m=0.285, E_i=2.24e9, t_i=31e-9, sigma_cnt=764.91,
        sigma_m=1e-12, d_c=2.739e-9, lambda_eV=1.93, G0=220.0,
        sigma_ult=120e9, tau_int=47e6),
}


def preset(name, **overrides):
    """Built-in material card by name, optionally with fields replaced."""
    try:
        card = dict(_PRESETS[name])
    except KeyError:
        raise KeyError(f"unknown material preset '{name}'; "
                       f"available: {sorted(_PRESETS)}") from None
    card.update(overrides)
    return CompositeSpec(**card)
