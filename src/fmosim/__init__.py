"""Digital simulation of FMO exciton transport on a spin-chain quantum simulator.

The package has three layers:

- ``qcore`` / ``circuit``: dense linear algebra (with the dense-register cap
  and basis labels), a small gate-level IR with one Kraus channel type,
  statevector and density-matrix simulators, and a text serialization format.
- ``hamiltonians`` / ``compiler``: the FMO and Ising-chain Hamiltonians, and a
  pulse compiler that turns single-Z, ZZ and XX+YY evolution targets into
  X-pulse re/decoupling schedules synthesized from Hadamard sign matrices.
- ``channels`` / ``dynamics``: single-qubit Kraus channels (amplitude damping
  and dephasing) with CPTP audits and a one-ancilla circuit realization, plus
  Markovian open-system evolution of the 7-site chain, both as a Trotterized
  gate/channel pipeline and as a brute-force Lindblad integrator.

``cli`` exposes the ``fmosim`` command with ``compile``, ``verify``,
``evolve`` and ``channel`` subcommands; ``schema`` checks their input
documents.  Each command loads only the modules it runs: ``evolve`` and a
config load need neither ``compiler``, ``circuit`` nor ``channels``, a config
load needs no ``dataclasses``, no command but ``evolve`` loads ``dynamics``, and
``logging`` is loaded only to log a warning.  ``cli`` binds the names it takes
from ``compiler`` and ``dynamics`` on first use (``cli._LAZY_NAMES``).
"""

__version__ = "0.1.0"
