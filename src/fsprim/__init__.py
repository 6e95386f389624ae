"""Exact rational toolkit for finite-set map categories.

The package materializes, at bounded cardinality, the categories of finite
sets with surjections and with injections, linearized over the rationals.
On top of that substrate it provides symmetric-group character theory and
module decomposition, the section-sum pairing between surjection and
injection hom-spaces, the primitive filtration of the surjection category
with its subquotients, and a deterministic verification driver that
certifies the structural identities instance by instance.

All arithmetic is exact: matrices are sparse rational matrices, characters
and multiplicities are integers or exact fractions, and no floating point
is used anywhere.
"""

__version__ = "0.1.0"
