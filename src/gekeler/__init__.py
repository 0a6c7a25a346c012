"""Exact local ideal class monoids and Gekeler ratios over F_q[T].

Given an irreducible f in F_q[T][x] monic in x, the package computes the
ideal class monoid of the completed order at any prime p of F_q[T], the
exact local ratio at p, and the exact global product of all local ratios,
with brute-force oracles validating every closed form at desk scale.
"""

__version__ = "0.1.0"

from .gf import GF, gf, gf_of_order
from .fqpoly import FqPoly, poly_gcd
from .bipoly import BiPoly, discriminant, infinity_model
from .bifactor import is_irreducible_bivariate
from .parse import parse_bipoly, parse_fqpoly
from .context import AlgebraContext, KElement
from .ideals import FracIdeal, Order
from .amatrix import hnf
from .primes import (PrimeAbove, SplittingReport, kummer_dedekind,
                     discriminant_of_f, order_discriminant, singular_primes,
                     maximal_order, primes_above_in_max)
from .overorders import POverorderSet, p_overorders
from .weakeq import (LocalICMReport, weak_classes, locally_weakly_equivalent,
                     local_icm)
from .zeta import LPolynomial, constant_field_degree, genus, count_places, l_polynomial
from .ratios import (LocalRatio, ProductReport, gekeler_ratio, gekeler_product,
                     finite_level_ratio, partial_products)
