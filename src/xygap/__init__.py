"""Ground-state phase diagram and energy-gap scaling of the infinite-range
XY model in transverse and longitudinal fields.

The layer modules are the API: import ``xygap.exactnum``, ``xygap.gaplaw``,
``xygap.sequences`` and ``xygap.scaling`` for the exact h = 0 gap law and the
engineered size sequences, ``xygap.sector`` for the finite-size eigensolver
at h != 0, ``xygap.classical`` for the thermodynamic limit, and
``xygap.verify`` for the cross-oracle suites.  This package module itself
loads none of them.  Every layer needs only the standard library.
"""

__version__ = "0.1.0"
