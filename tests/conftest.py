import functools
import sys

from charsum import build_field, partition


@functools.lru_cache(maxsize=None)
def get_field(p, m=1):
    return build_field(p, m)


@functools.lru_cache(maxsize=None)
def get_partition(p, m, n, conjugate=False):
    return partition(get_field(p, m), n, conjugate=conjugate)


def count_calls(monkeypatch, name):
    """Calls to the charsum function ``name``, under every name bound to it.

    Every module bound to one function gets the same counting wrapper, so
    ``characters.memo``, which keys on the function, still sees one."""
    calls, wrappers = [], {}
    for mod in [m for k, m in sys.modules.items() if k.startswith("charsum")]:
        real = getattr(mod, name, None)
        if callable(real):
            if real not in wrappers:
                def counted(*args, _real=real, **kwargs):
                    calls.append(args)
                    return _real(*args, **kwargs)
                wrappers[real] = counted
            monkeypatch.setattr(mod, name, wrappers[real])
    return calls
