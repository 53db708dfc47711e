"""Derivative descendants of extended cyclic codes and derivative decoding.

The package splits into algebra (fields, exponent sets, descendants),
decoding engines (sum-product, ordered statistics, exact ML), the
derivative-decoding loops built on them, and a Monte-Carlo AWGN harness
with a CLI.  Every module's public names (its `__all__`) are re-exported
here.
"""
from .gf2m import *
from .gf2 import *
from .cyclic import *
from .derivative import *
from .parity import *
from .decoders import *
from .ddcodec import *
from .sim import *

__version__ = "0.1.0"
