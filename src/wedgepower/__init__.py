"""Power and sample size for cluster randomized and stepped wedge trials.

Two routes to the same answer: closed-form design effects that inflate
an unclustered sample size, and direct evaluation of the planned GLS
analysis on an exemplary dataset, giving a noncentral F power.  A Monte
Carlo oracle checks either route by simulation.
"""

from . import correlation, design_effects, designs, distributions, engine, mc
from .correlation import *  # noqa: F401,F403
from .design_effects import *  # noqa: F401,F403
from .designs import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .mc import *  # noqa: F401,F403

__version__ = "1.0.0"

# the namespace exports each module's own exports
__all__ = [
    "__version__",
    *distributions.__all__,
    *correlation.__all__,
    *designs.__all__,
    *design_effects.__all__,
    *engine.__all__,
    *mc.__all__,
]
