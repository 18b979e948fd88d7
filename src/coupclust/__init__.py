"""Probabilistic clustering by maximal matrix-norm couplings.

Learn a soft assignment P(Z|Y) from a joint P(Y,X) by pushing matrix norms
of the divergence transition matrix as high as the data allows. Two solvers:
a penalized Frobenius ascent with simplex projection, and a nuclear-norm
alternation between Ky Fan features and a hard coupling step.
"""

from . import _threads  # noqa: F401  (must run before numpy loads)

__version__ = "0.1.0"

from . import core, data_io, embedding, errors, evaluation, frobenius, nuclear, simplex
from .core import *  # noqa: F403
from .data_io import *  # noqa: F403
from .embedding import *  # noqa: F403
from .errors import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .frobenius import *  # noqa: F403
from .nuclear import *  # noqa: F403
from .simplex import *  # noqa: F403

__all__ = [
    "__version__",
    *core.__all__,
    *data_io.__all__,
    *embedding.__all__,
    *errors.__all__,
    *evaluation.__all__,
    *frobenius.__all__,
    *nuclear.__all__,
    *simplex.__all__,
]
