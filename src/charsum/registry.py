"""Invocation registry backing the verify suite's coverage self-test.

Every public operation calls ``mark()`` on entry.  ``charsum verify
--scope all`` then checks that each name in ``ALL_OPS`` was hit at least
once, so a refactor that silently stops exercising an operation turns
into a failed check rather than dead code.
"""

ALL_OPS = frozenset({
    # field
    "find_irreducible", "build_field", "dlog",
    # characters
    "partition", "char_sum_moment", "winterhof_counts",
    # cyclotomic sums
    "jacobi_cubic", "a_beta", "gauss_sum", "jacobi_from_gauss",
    # representation counts
    "brute_rep_count", "closed_rep_count_quadratic",
    "closed_rep_count_cubic", "rep_count_zero", "perron_table",
    # group ring
    "gr_mul", "characteristic_fn", "phi", "quadratic_sigma", "cubic_sigma",
    # shift counts
    "shift_count", "max_shift_count", "affine_max_shift3", "closed_form_max3",
    "verify_duality",
    # cli
    "run",
})

_called: set = set()


def mark(name: str) -> None:
    _called.add(name)


def called() -> frozenset:
    return frozenset(_called)


def merge(names) -> None:
    _called.update(names)


def missing() -> frozenset:
    return ALL_OPS - _called


def reset() -> None:
    _called.clear()
