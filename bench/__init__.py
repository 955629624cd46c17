"""The repository's benchmark: four workloads, one command (see README.md)."""
