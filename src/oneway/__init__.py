"""Measurement patterns on graph states, compiled down to circuits.

Each module lists its public names in its own ``__all__``; the package
re-exports them all and adds none of its own.
"""

from .angles import *
from .graphs import *
from .determinism import *
from .circuits import *
from .extend import *
from .simulate import *
from .rewrite import *
from .pipeline import *

__all__ = (
    angles.__all__
    + graphs.__all__
    + determinism.__all__
    + circuits.__all__
    + extend.__all__
    + simulate.__all__
    + rewrite.__all__
    + pipeline.__all__
)

__version__ = "0.1.0"
