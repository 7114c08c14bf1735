"""Constant name spaces for the DAG renaming of Section 4.1.

Names ("colors", DAG identifiers) are drawn from a constant space ``γ``.
The paper uses ``|γ| = δ**6`` in the Herman-Tixeuil scheme it builds on but
argues ``δ**2`` "or even δ" suffices here; Section 5's simulations draw DAG
identifiers between 0 and ``δ**2``.  Local uniqueness requires
``|γ| > δ``, otherwise a node surrounded by ``δ`` distinct names may find
no free name to draw.

:meth:`NameSpace.sample` makes one ``rng.integers(free)`` draw and maps
that index to the index-th free name by stepping past the sorted
exclusions, so a draw costs O(|exclude| log |exclude|) whatever ``|γ|``
is.  The test suite keeps the scan over ``γ`` as the oracle
(``tests/oracles/naming.py``).
"""

import operator

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


class NameSpace:
    """The finite set ``γ = {0, 1, ..., size - 1}`` of DAG names."""

    def __init__(self, size):
        if size < 1:
            raise ConfigurationError(f"name space size must be >= 1, got {size}")
        self.size = int(size)

    def __contains__(self, name):
        """True iff ``name`` is an integer (Python or numpy, never a
        bool) in ``[0, size)``."""
        if isinstance(name, bool):
            return False
        try:
            name = operator.index(name)
        except TypeError:
            return False
        return 0 <= name < self.size

    def __len__(self):
        return self.size

    def sample(self, rng, exclude=()):
        """``random(γ \\ exclude)``: uniform over the non-excluded names.

        Raises :class:`ConfigurationError` when every name is excluded,
        which means the name space is too small for the local degree.
        """
        rng = as_rng(rng)
        forbidden = sorted({operator.index(name) for name in exclude
                            if name in self})
        free = self.size - len(forbidden)
        if free <= 0:
            raise ConfigurationError(
                f"name space of size {self.size} exhausted by "
                f"{len(forbidden)} excluded names; increase |γ| above δ")
        # The index-th free name: each forbidden name at or below the
        # candidate pushes it one further up.
        name = int(rng.integers(free))
        for taken in forbidden:
            if taken > name:
                break
            name += 1
        return name

    def __repr__(self):
        return f"NameSpace(size={self.size})"


def recommended_size(delta, exponent=2):
    """``|γ| = δ**exponent`` (Section 4.1; Section 5 uses exponent 2).

    Always returns at least ``delta + 2`` so a name is available even in
    the worst local configuration, and at least 2 overall.
    """
    if delta < 0:
        raise ConfigurationError(f"delta must be non-negative, got {delta}")
    if exponent < 1:
        raise ConfigurationError(f"exponent must be >= 1, got {exponent}")
    return max(delta ** exponent, delta + 2, 2)
