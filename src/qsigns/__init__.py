"""qsigns: exact q-expansion arithmetic for half-integral weight forms,
Shimura lifts, Hecke operators, and coefficient sign statistics."""

__version__ = "0.1.0"
