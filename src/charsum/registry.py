"""Invocation registry backing the verify suite's coverage self-test.

The ops are the 20 functions declared with ``@op``.  An op's name joins
``ALL_OPS`` when its module is imported, and each call records it before
the body runs, so a call that raises still counts.  ``charsum verify
--scope all`` then checks that each name in ``ALL_OPS`` was hit at least
once, so a refactor that silently stops exercising an operation turns
into a failed check rather than dead code.
"""

import functools

ALL_OPS: set = set()
_called: set = set()


def op(fn):
    """Declare ``fn`` an op; the wrapper keeps its name and module."""
    name = fn.__name__
    ALL_OPS.add(name)

    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        _called.add(name)
        return fn(*args, **kwargs)
    return recorded


def called() -> frozenset:
    """The ops called so far."""
    return frozenset(_called)


def merge(names) -> None:
    _called.update(names)


def reset() -> None:
    _called.clear()
