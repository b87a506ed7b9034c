"""Benchmark for ca_verify: see README.md in this directory."""
