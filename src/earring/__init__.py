"""Holonomy-perturbed traceless SU(2) moduli of the earring tangle.

Modules:
  quaternion      unit-quaternion / su(2) kernel
  pillowcase      pillowcase quotient metric, corners and triple invariants
  moduli          the gauge-fixed perturbed moduli space and its restrictions
  curves          sampled PL curves on the pillowcase via torus lifts, and
                  to_canonical, the one canonical-representative map
  correspondence  composition of curves with the correspondence; model map
  topology        intersection numbers, homology classes, classifiers, bigons
  algebra         the quiver algebra, twisted complexes, the mapping-cone
                  functor and the curve dictionary
  cli             command-line front end
"""

__version__ = "0.1.0"
