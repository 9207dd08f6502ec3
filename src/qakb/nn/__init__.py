"""Numpy-backed differentiable computation for the QA models."""
