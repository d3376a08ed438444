"""Staggered-quantum-walk workbench.

Build tessellations of triangle-free graphs, evolve single-photon
states under the staggered evolution operator, solve the
superconducting-resonator parameter problem, and compile walk programs
into per-SQUID flux pulse schedules.
"""

# each module's __all__ is the one declaration of the public API
from .circuit import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .schedule import *  # noqa: F401,F403
from .walk import *  # noqa: F401,F403

__version__ = "0.1.0"
