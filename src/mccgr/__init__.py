"""Non-negative matrix factorization with graph regularization and
correntropy-style robust reweighting, plus the clustering-evaluation
protocol used to compare the variants.

Data layout everywhere: X is features x samples, factored as H @ W with
H features x rank and W rank x samples; samples are columns.

The package exports exactly the names each module lists in its __all__.
"""

from . import errors, evaluation, factorization, graph, harness, matrix
from .errors import *
from .evaluation import *
from .factorization import *
from .graph import *
from .harness import *
from .matrix import *

__version__ = "0.1.0"

__all__ = errors.__all__ + evaluation.__all__ + factorization.__all__ + graph.__all__ + harness.__all__ + matrix.__all__
