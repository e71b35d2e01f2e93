"""Wieferich-ideal scans over cyclotomic values of units, abc-style radical
audits, and p-rationality classification for real quadratic fields."""

__version__ = "0.1.0"
