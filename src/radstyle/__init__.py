"""Graph-serialization report generation: parsing, prompting, scoring."""

__version__ = "0.1.0"
