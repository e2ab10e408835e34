"""Compiled-kernel lookup for the memory models: there are none.

Every fold runs on numpy alone and numba is not a dependency.
:func:`lru_kernel` stays for host fingerprints that ask whether a
compiled kernel is active.
"""


def lru_kernel() -> None:
    """Always ``None``: there is no compiled LRU replay kernel."""
    return None
