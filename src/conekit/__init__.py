"""Exact computations with multiprojective schemes: Groebner engines,
saturation and elimination, and the cone-degeneration verification checks."""

__version__ = "0.1.0"

from .fields import DEFAULT_PRIME, SECOND_PRIME, FieldConfig, PrimeField, QQ
from .ring import AmbientSpace, Block, Poly, PolyRing
from .groebner import DEFAULT_CAPS, ResourceCapExceeded, ResourceCaps
from .ideals import EngineContext, Ideal

__all__ = [
    "AmbientSpace",
    "Block",
    "DEFAULT_CAPS",
    "DEFAULT_PRIME",
    "EngineContext",
    "FieldConfig",
    "Ideal",
    "Poly",
    "PolyRing",
    "PrimeField",
    "QQ",
    "ResourceCapExceeded",
    "ResourceCaps",
    "SECOND_PRIME",
]
