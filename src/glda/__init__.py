"""Grouped-lasso sparse multi-class linear discriminant analysis.

The package exports every name that its modules list in ``__all__``.
"""

from .model import *
from .solvers import *
from .classify import *
from .select import *
from .simulate import *

__version__ = "0.1.0"
