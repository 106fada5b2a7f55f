"""Exact Hopf-algebraic engine for arborified multiple zeta values.

Words under shuffle and quasi-shuffle, decorated rooted forests under the
admissible-cut coproduct, the simple and contracting arborification maps,
theta-regularized zeta characters with the exponential correction operator,
and certified numerical evaluation of the resulting nested sums.
"""

__version__ = "0.1.0"
