"""Benchmark of the encrypted-inference path and the fleet replay; see README.md."""
