"""Exact root systems, Weyl group longest elements, and their orthogonal
reflection decompositions.

Everything is integer arithmetic in the simple-root basis: roots are tuples
of coefficients, group elements are integer matrices, and inner products are
doubled so the half-integral normalizations stay exact.  The headline
operations build the canonical decomposition of the longest element into
reflections in mutually orthogonal roots, verify it, prove it unique on small
systems by exhaustive search, and walk the cross-rank recursion that
generates it.
"""
from __future__ import annotations

from . import decompose, errors, rootsys, weyl, words
from .decompose import *
from .errors import *
from .rootsys import *
from .weyl import *
from .words import *

__all__: list[str] = []
__all__ += decompose.__all__
__all__ += errors.__all__
__all__ += rootsys.__all__
__all__ += weyl.__all__
__all__ += words.__all__
__version__ = "0.1.0"
