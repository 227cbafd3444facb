"""Exact-arithmetic engine for rack and cubical homology: nerves, the two
collapse functors, normalized chain complexes over Q and F_p, half-shuffle
coproducts with their law checks, comparison maps to group homology, long
exact sequences, and the stable-matrix conjugation lemmas."""

from .exactfield import FieldTag, Matrix, QQ, column_space_analysis

__all__ = ["FieldTag", "Matrix", "QQ", "column_space_analysis"]
__version__ = "0.1.0"
