"""perfbench: the repository's benchmark (see perfbench/README.md)."""
