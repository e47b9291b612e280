"""Cost-normalized research productivity indicators and rankings."""

__version__ = "0.1.0"

from .config import RunConfig
from .corpus import apply_exclusions, load_corpus
from .errors import ComputationError, FsskitError, InputError, LoadError
from .indicators import compute_field_means, fss_u, researcher_scores
from .normalize import compute_baselines

__all__ = [
    "__version__",
    "ComputationError", "FsskitError", "InputError", "LoadError", "RunConfig",
    "apply_exclusions", "compute_baselines", "compute_field_means", "fss_u", "load_corpus",
    "researcher_scores",
]
