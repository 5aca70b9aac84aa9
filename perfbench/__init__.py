"""End-to-end session benchmark (see run.py)."""
