"""Classical fidelity bounds for coherent-state teleportation benchmarks.

The package answers three questions about measure-and-prepare (classical)
teleportation of coherent states:

  * what average fidelity can a classical strategy reach for a given input
    ensemble (whole-plane Gaussian, uniform disk, truncated Gaussian);
  * how the finite extent of a real input ensemble changes those bounds,
    in particular that the uniform-plane threshold 1/2 does not apply to
    finite-area data;
  * how to certify non-classicality of experimental records anyway, by
    Gaussian reweighting against the (1 + lam) / (2 + lam) bound.

Each module's __all__ is its public surface, and the package re-exports
exactly those names: a public name is declared once, in its own module.
"""

from . import bounds, certify, core, data, optimize, quadrature, simulate

# Built before the star imports, which rebind `simulate` to the function.
__all__ = [*bounds.__all__, *certify.__all__, *core.__all__, *data.__all__,
           *optimize.__all__, *quadrature.__all__, *simulate.__all__]

from .bounds import *  # noqa: E402,F403
from .certify import *  # noqa: E402,F403
from .core import *  # noqa: E402,F403
from .data import *  # noqa: E402,F403
from .optimize import *  # noqa: E402,F403
from .quadrature import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403

__version__ = "0.1.0"
