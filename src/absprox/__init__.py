"""Quadratic-minorant subdifferentials, proximal operators, and globally
convergent first-order methods for a class of nonconvex problems.

The working family is the set of elementary quadratics
phi(x) = -a||x||^2 + <u,x> + c.  Subdifferentials taken against this family
stay globally certified even for nonconvex f, which makes proximal-point,
forward-backward, and projected-subgradient iterations globally analyzable;
this package implements the operators, the algorithms, their diagnostics,
and a small experiment CLI.

Each public name is declared once, in the ``__all__`` of its module; the
package star-imports the modules below and so exports exactly those names.
"""

from .phi import *
from .oracles import *
from .prox import *
from .algorithms import *
from .diagnostics import *
from .config import *
from .experiments import *

__version__ = "0.1.0"
