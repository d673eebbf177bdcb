"""Magic optical-trapping conditions for bialkali rotational states.

Layers, bottom up: :mod:`~magictrap.units` and :mod:`~magictrap.angular`
(conversions and Wigner algebra), :mod:`~magictrap.potentials` and
:mod:`~magictrap.radial` (curves and bound-state solver),
:mod:`~magictrap.polarizability` (real and imaginary responses, closed
form and sum over states), :mod:`~magictrap.hyperfine` (field-dressed
eigenstates), :mod:`~magictrap.magic` (crossing searches and
calibration), :mod:`~magictrap.config` (INI run configuration, the one
source of the NaRb numbers), :mod:`~magictrap.narb` (the surrogate
excited complex built from a config), and the :mod:`~magictrap.cli`
scan tool, with :mod:`~magictrap.csvtable`, its writer of long CSV tables.

The package exports the ``__all__`` of each library layer, ``config``,
``narb``, ``cli`` and ``csvtable`` excepted.
"""

from . import (angular, errors, hyperfine, magic, polarizability, potentials,
               radial, units)
from .units import *
from .angular import *
from .errors import *
from .potentials import *
from .radial import *
from .polarizability import *
from .hyperfine import *
from .magic import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for layer in (units, angular, errors, potentials, radial, polarizability,
                  hyperfine, magic)
    for name in layer.__all__
]
