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

import os

# numpy's OpenBLAS starts one worker thread per extra CPU at import, and
# they spin in every charsum process though charsum makes no BLAS call:
# every `@` and np.matmul here (field._matpow, FieldTable._mul_matrix,
# _find_alpha, _build_exp) multiplies int32/int64 arrays,
# which numpy computes in its own loops, never in BLAS; convolve's
# np.linalg.norm(v, axis=-1) is a ufunc reduction; pocketfft is
# single-threaded.  So one thread changes no result.  This must run before
# the first import of numpy (through .characters); a caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .characters import (CosetPartition, char_sum_moment, character_exists,
                         partition, winterhof_counts)
from .cyclotomic import (a_beta, exact_gauss_sum, gauss_sum, jacobi_cubic,
                         jacobi_from_gauss)
from .eisenstein import EisensteinInt, OMEGA, omega_pow
from .errors import IdentityViolation, UnsupportedCharacterError
from .field import (FieldSpec, FieldTable, build_field, find_irreducible,
                    parse_field_spec, prime_powers)
from .groupring import GroupRingElement, closed_sigmas, gr_mul
from .repcount import brute_rep_count, closed_rep_count, perron_table
from .shiftcount import (affine_max_shift, closed_form_max3, max_shift_count,
                         shift_count)

__version__ = "0.1.0"

__all__ = [
    "CosetPartition", "EisensteinInt", "FieldSpec", "FieldTable",
    "GroupRingElement", "IdentityViolation", "OMEGA",
    "UnsupportedCharacterError", "a_beta", "affine_max_shift",
    "brute_rep_count", "build_field", "char_sum_moment", "character_exists",
    "closed_form_max3", "closed_rep_count", "closed_sigmas", "exact_gauss_sum",
    "find_irreducible", "gauss_sum", "gr_mul", "jacobi_cubic",
    "jacobi_from_gauss", "max_shift_count", "omega_pow", "parse_field_spec",
    "partition", "perron_table", "prime_powers", "shift_count",
    "winterhof_counts",
]
