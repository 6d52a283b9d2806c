"""Simulator for delayed-pump intermodal four-wave-mixing photon-pair
sources in width-tapered multimode waveguides."""

__version__ = "0.1.0"

from .config import table1_config
from .simulate import run_source
