"""The repository benchmark (see bench/README.md); run ``python3 bench/run.py``."""
