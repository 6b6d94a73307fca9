"""Monte Carlo safety certification for multi-agent CBF-QP control loops."""

__version__ = "0.1.0"
