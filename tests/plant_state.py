"""Named plant states and inputs for the tests.

The plant carries its state as a flat list of 24 floats in
`plant.STATE_NAMES` order, and takes the inputs of a step as the 12-entry
actuator vector plus the road steps and lateral friction scales.
`PlantState` and `Inputs` give those entries names, so a test can build
them, or read them, by name.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import List, NamedTuple, Sequence

from staballoc.params import VehicleParams
from staballoc.plant import ZERO4, bind


@dataclass
class PlantState:
    """The 24 state entries, in STATE_NAMES order."""
    Vx: float = 0.0
    Vy: float = 0.0
    r: float = 0.0
    z: float = 0.0
    zd: float = 0.0
    phi: float = 0.0
    phid: float = 0.0
    theta: float = 0.0
    thetad: float = 0.0
    z_ufl: float = 0.0
    zd_ufl: float = 0.0
    z_ufr: float = 0.0
    zd_ufr: float = 0.0
    z_url: float = 0.0
    zd_url: float = 0.0
    z_urr: float = 0.0
    zd_urr: float = 0.0
    w_fl: float = 0.0
    w_fr: float = 0.0
    w_rl: float = 0.0
    w_rr: float = 0.0
    X: float = 0.0
    Y: float = 0.0
    psi: float = 0.0

    def as_list(self) -> List[float]:
        """The state list the plant steps."""
        return list(astuple(self))

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "PlantState":
        return cls(*values)

    @classmethod
    def cruising(cls, v0: float, p: VehicleParams) -> "PlantState":
        """Straight driving at v0 with freely rolling wheels."""
        w = v0 / p.R_w
        return cls(Vx=v0, w_fl=w, w_fr=w, w_rl=w, w_rr=w)


class Inputs(NamedTuple):
    """Actuator and environment inputs, four per-wheel values each (fl, fr,
    rl, rr), held constant over one step."""
    steer: Sequence[float] = ZERO4
    torque: Sequence[float] = ZERO4
    f_z: Sequence[float] = ZERO4
    z_road: Sequence[float] = ZERO4
    lat_scale: Sequence[float] = (1.0, 1.0, 1.0, 1.0)

    def terms(self, p: VehicleParams) -> tuple:
        """The input-only terms bind(p).step_inputs forms of these inputs,
        as the closed loop hands them to step_rk4 and measure."""
        return bind(p).step_inputs([*self.steer, *self.torque, *self.f_z],
                                   self.z_road, self.lat_scale)
