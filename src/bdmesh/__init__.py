"""bdmesh: peer-to-peer overlay networking with birthday-paradox NAT traversal.

The package splits into:

- probability: collision math for sizing probe runs
- netsim: deterministic virtual-time UDP network and NAT models
- traversal: hole-punch state machines (direct and birthday)
- rendezvous: coordinator, registration, introductions, relay
- securelink: authenticated key agreement and frame encryption
- meshplan: overlay scheme selection, link planning, realization
- scenario: declarative end-to-end runs over the simulator
- montecarlo: empirical validation of the collision math
- realbackend: the same protocols over real UDP/TCP sockets
- cli: the `bdmesh` command line
"""

from .errors import (
    BdmeshError,
    HandshakeError,
    InvalidParametersError,
    NoRouteError,
    PlanError,
    PortsExhaustedError,
    ProtocolError,
    ReplayError,
    ScenarioError,
    SimulationError,
    UnsupportedSchemeError,
)
from .probability import (
    PortSpace,
    min_probes,
    probability_curve,
    schedule_ports,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BdmeshError",
    "HandshakeError",
    "InvalidParametersError",
    "NoRouteError",
    "PlanError",
    "PortsExhaustedError",
    "ProtocolError",
    "ReplayError",
    "ScenarioError",
    "SimulationError",
    "UnsupportedSchemeError",
    "PortSpace",
    "min_probes",
    "probability_curve",
    "schedule_ports",
    "success_probability",
    "__version__",
]
