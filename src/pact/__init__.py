"""Change-point preferential attachment trees.

Simulation of preferential attachment trees whose attachment offset switches
at prescribed fractions of the final size, exact and Monte Carlo evaluation
of the limiting degree laws and of the after-change duration's central limit
law, leaf-count fluctuation theory, and an offline change-point estimator,
wired into a reproducible experiment CLI (``pact``).
"""

__version__ = "0.1.0"
