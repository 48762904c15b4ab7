"""Scalar reference implementations the property suites compare ``src`` against."""
