"""i-Fibonacci words, their turtle curves, and the limiting fractals.

Submodules:
  words     word generation, substitution, structural decompositions
  turtle    drawing rule, curve statistics, bounding boxes
  analysis  closed-form scaling ratio, aspect limit, dimension
  ifs       derived five-map iterated function system and attractor
  metrics   Hausdorff distance, box counting, collage distance
  cli       command-line front end
"""

from . import analysis, errors, ifs, metrics, turtle, words

__version__ = "0.1.0"

__all__ = ["analysis", "errors", "ifs", "metrics", "turtle", "words", "__version__"]
