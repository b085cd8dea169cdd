"""Operator-parametrized proximal splitting for block-structured SDPs.

The top level holds what the library example needs; everything else is
imported from its submodule (``linalg``, ``params``, ``prox``, ``splitting``,
``tuning``, ``problems``, ``cli``).
"""

from .problems import build_prox_pair, gen_bqp, gen_sr, reference_solve
from .splitting import StopRule, run_drs
from .tuning import bqp_estimate, bqp_protocol_params, sr_estimate, sr_protocol_params

__version__ = "0.1.0"

__all__ = [
    "StopRule", "bqp_estimate", "bqp_protocol_params", "build_prox_pair", "gen_bqp",
    "gen_sr", "reference_solve", "run_drs", "sr_estimate", "sr_protocol_params",
]
