"""satkit: a desk-scale self-attention transducer toolkit.

Pure-numpy training stack (tape autodiff, transducer lattice loss with one
batched anti-diagonal kernel, windowed self-attention encoder/prediction nets),
alignment-based regularization, greedy/beam/streaming decoding with n-gram
shallow fusion, synthetic datakit, and a CLI.
"""

from .lattice import PosteriorLattice, transducer_loss
from .model import ModelConfig, SATModel
from .nnet import ChunkSpec
from .pathreg import ParConfig, build_path, joint_loss
from .vocab import BLANK, SOS, UNK, Vocab

__version__ = "0.1.0"

# The one transducer kernel behind kernels.forward_backward; run records name it.
LATTICE_BACKEND = "numpy"

__all__ = [
    "BLANK", "SOS", "UNK", "Vocab", "ChunkSpec", "ModelConfig", "SATModel",
    "PosteriorLattice", "transducer_loss", "ParConfig", "build_path",
    "joint_loss", "LATTICE_BACKEND", "__version__",
]
