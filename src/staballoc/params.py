"""The vehicle: its data, and the geometry and statics derived from them.

Defaults describe the mid-size passenger car used in every shipped scenario.
Tire curve coefficients, rolling-resistance coefficients and the friction
scale are configurable; the remaining entries are the stock vehicle data.
``VehicleParams`` adds what the plant, the controllers, the allocator and
the metrics share: the wheelbase, the hub-angle sines and cosines, the
static wheel loads and the weight.  The constants of the plant equations
are not kept here; ``plant.bind`` forms them once per parameter set.
All quantities are SI.  :class:`ConfigError` lives here, the lowest layer,
so every module that checks user configuration can raise it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

G = 9.81  # gravitational acceleration [m/s^2]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration: scenario files,
    gain and allocator settings, and command-line arguments."""


@dataclass(frozen=True)
class VehicleParams:
    h: float = 0.375      # CoG height [m]
    a: float = 1.125      # front axle to CoG [m]
    b: float = 1.375      # rear axle to CoG [m]
    w: float = 1.6        # track width [m]
    m: float = 1300.0     # vehicle mass [kg]
    I_x: float = 250.0    # roll inertia [kg m^2]
    I_y: float = 1000.0   # pitch inertia [kg m^2]
    I_z: float = 1300.0   # yaw inertia [kg m^2]
    I_w: float = 2.7      # wheel spin inertia [kg m^2]
    R_w: float = 0.33     # wheel radius [m]
    m_uf: float = 30.0    # front unsprung mass [kg]
    m_ur: float = 30.0    # rear unsprung mass [kg]
    k_uf: float = 2.0e5   # front tire spring rate [N/m]
    k_ur: float = 2.0e5   # rear tire spring rate [N/m]
    k_sf: float = 21.0e3  # front suspension spring rate [N/m]
    c_sf: float = 1000.0  # front suspension damping [N s/m]
    k_sr: float = 21.0e3  # rear suspension spring rate [N/m]
    c_sr: float = 1500.0  # rear suspension damping [N s/m]
    A_f: float = 2.2      # frontal area [m^2]
    C_d: float = 0.3      # aerodynamic drag coefficient [-]
    rho: float = 1.225    # air density [kg/m^3]

    # rolling resistance torque = (p0 + p1*Vx/30 + p2*Vx^4/30^4) * N
    p0: float = 0.009
    p1: float = 0.002
    p2: float = 0.0003

    # tire force curve coefficients (stiffness/shape/curvature), longitudinal
    # and lateral channels; peak force is mu * N
    B1: float = 10.0
    C1: float = 1.9
    E1: float = 0.97
    B2: float = 8.5
    C2: float = 1.3
    E2: float = -1.2
    mu: float = 1.0

    # geometry and statics, filled in __post_init__
    L: float = field(init=False, repr=False, default=0.0)
    sin_gf: float = field(init=False, repr=False, default=0.0)
    cos_gf: float = field(init=False, repr=False, default=0.0)
    sin_gr: float = field(init=False, repr=False, default=0.0)
    cos_gr: float = field(init=False, repr=False, default=0.0)
    N_front_static: float = field(init=False, repr=False, default=0.0)
    N_rear_static: float = field(init=False, repr=False, default=0.0)
    weight: float = field(init=False, repr=False, default=0.0)
    # the plant equations bound to these values, which plant.bind makes on
    # first use; they live and die with the parameter set
    _plant: object = field(init=False, repr=False, compare=False,
                           default=None)

    def __post_init__(self) -> None:
        for name in ("h", "a", "b", "w", "m", "I_x", "I_y", "I_z", "I_w",
                     "R_w", "m_uf", "m_ur", "k_uf", "k_ur", "k_sf", "k_sr",
                     "A_f", "rho", "mu"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.c_sf < 0.0 or self.c_sr < 0.0:
            raise ValueError("damping coefficients must be non-negative")
        set_ = object.__setattr__
        set_(self, "L", self.a + self.b)
        # hub angles: half-track over axle distance, from the geometry
        gamma_f = math.atan(self.w / (2.0 * self.a))
        gamma_r = math.atan(self.w / (2.0 * self.b))
        set_(self, "sin_gf", math.sin(gamma_f))
        set_(self, "cos_gf", math.cos(gamma_f))
        set_(self, "sin_gr", math.sin(gamma_r))
        set_(self, "cos_gr", math.cos(gamma_r))
        # per-wheel static loads from the weight split over the wheelbase
        set_(self, "N_front_static", self.m * G * self.b / (2.0 * self.L))
        set_(self, "N_rear_static", self.m * G * self.a / (2.0 * self.L))
        set_(self, "weight", self.m * G)
