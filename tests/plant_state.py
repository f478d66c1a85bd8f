"""Named plant states for the tests.

The plant carries its state as a flat list of 24 floats in
`plant.STATE_NAMES` order.  `PlantState` gives those entries names, so a
test can build a state, or read one, by name.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import List, Sequence

from staballoc.params import VehicleParams


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
