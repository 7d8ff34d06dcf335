"""Benchmark of the few2d command line: seeded workloads, reference checks, layer traces."""
