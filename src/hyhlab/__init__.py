"""hyhlab: the HYH elliptic-curve signcryption scheme, its missing
validation, and working demonstrations of the attacks both enable."""

__version__ = "0.1.0"
