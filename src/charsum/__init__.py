"""Exact verification of additive structure induced by quadratic and cubic
characters over small finite fields.

The package builds complete arithmetic tables for F_{p^m}, partitions the
multiplicative group into character cosets, and then checks a family of
exact identities against brute-force enumeration: representation counts
of elements as two-coset sums, Jacobi/Gauss sum relations, the quadratic
and cubic equations satisfied by the coset characteristic functions in
the additive group algebra, and the quasi-duality linking maximal
representation counts to maximal shift counts.
"""

from .characters import (CosetPartition, char_sum_moment, character_exists,
                         partition, winterhof_counts)
from .cyclotomic import (a_beta, gauss_sum, jacobi_cubic, jacobi_from_gauss)
from .eisenstein import EisensteinInt, OMEGA, omega_pow
from .errors import IdentityViolation, UnsupportedCharacterError
from .field import (FieldSpec, FieldTable, build_field, find_irreducible,
                    parse_field_spec, prime_powers)
from .groupring import (GroupRingElement, characteristic_fn, cubic_sigma,
                        gr_mul, monomial, phi, quadratic_sigma)
from .repcount import (brute_rep_count, closed_rep_count_cubic,
                       closed_rep_count_quadratic, perron_table,
                       rep_count_zero)
from .shiftcount import (affine_max_shift3, affine_max_shift4,
                         closed_form_max3, max_shift_count, shift_count)

__version__ = "0.1.0"

__all__ = [
    "CosetPartition", "EisensteinInt", "FieldSpec",
    "FieldTable", "GroupRingElement", "IdentityViolation", "OMEGA",
    "UnsupportedCharacterError", "a_beta", "affine_max_shift3",
    "affine_max_shift4", "brute_rep_count",
    "build_field", "char_sum_moment", "character_exists",
    "characteristic_fn", "closed_form_max3", "closed_rep_count_cubic",
    "closed_rep_count_quadratic", "cubic_sigma", "find_irreducible",
    "gauss_sum", "gr_mul", "jacobi_cubic", "jacobi_from_gauss",
    "max_shift_count", "monomial", "omega_pow", "parse_field_spec",
    "partition", "perron_table", "phi", "prime_powers",
    "quadratic_sigma", "rep_count_zero", "shift_count", "winterhof_counts",
]
