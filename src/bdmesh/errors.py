"""Exception hierarchy and process exit codes shared across the toolkit."""

# Exit codes of the `bdmesh` command and its coord/node services.
EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SIM_FAILURE = 3
EXIT_UNSUPPORTED_SCHEME = 4
EXIT_BIND_FAILURE = 5
EXIT_COORD_UNREACHABLE = 6
EXIT_IDENTITY_CONFLICT = 7
EXIT_INTERRUPTED = 130


class BdmeshError(Exception):
    """Base class for all toolkit errors."""


class InvalidParametersError(BdmeshError):
    """A caller supplied out-of-range or inconsistent parameters."""


class PortsExhaustedError(BdmeshError):
    """A NAT ran out of external ports to allocate."""


class UnsupportedSchemeError(BdmeshError):
    """The requested (G, P, theta) combination has no supported scheme."""

    def __init__(self, params, nearest: str, message: str):
        super().__init__(message)
        self.params = params
        self.nearest = nearest


class ScenarioError(BdmeshError):
    """A scenario file failed validation."""


class PlanError(ScenarioError):
    """An overlay plan could not be constructed from the given nodes."""


class NoRouteError(BdmeshError):
    """An overlay destination matches no node address and no subnet."""


class ProtocolError(BdmeshError):
    """A peer violated the control or data wire protocol."""


class HandshakeError(BdmeshError):
    """Key agreement failed: bad signature, bad suite, or malformed message."""


class ReplayError(BdmeshError):
    """A secure frame arrived with a counter at or below the replay window."""


class SimulationError(BdmeshError):
    """A simulation run could not complete."""
