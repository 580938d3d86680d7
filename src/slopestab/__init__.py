"""Exact slope-stability invariants of polarized varieties along subschemes,
with an independent lattice-point verification oracle for toric models."""

from .models import ModelError, parse_model
from .slope import PositivityError, alpha_polys, stability_scan
from .toric import ToricError, export_table

__version__ = "0.1.0"
