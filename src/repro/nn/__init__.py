"""A small numpy DNN training framework (the paper's PyTorch substitute).

Design: explicit layer objects with hand-derived ``forward``/``backward``
methods (no autograd tape).  Every backward pass is verified against central
differences in the test suite.  The PD layers implement the paper's
structure-preserving training rules: only stored (non-zero) weights receive
gradient, so a network that starts block-permuted diagonal stays so after any
number of optimizer steps (Sec. III-B/III-C).
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module
from repro.nn.sequential import Sequential
from repro.nn.layers.linear import Linear
from repro.nn.layers.perm_diag_linear import PermDiagLinear
from repro.nn.layers.masked_linear import MaskedLinear
from repro.nn.layers.circulant_linear import BlockCirculantLinear
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.perm_diag_conv2d import PermDiagConv2D
from repro.nn.layers.activations import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.normalization import BatchNorm1D, BatchNorm2D
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.recurrent import LSTM, LSTMCell
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD, Adam
from repro.nn.schedulers import CosineLR, StepLR
from repro.nn.serialization import (
    UnsupportedLayerError,
    load_model,
    save_model,
)
from repro.nn.trainer import Trainer, evaluate_classifier

__all__ = [
    "Adam",
    "AvgPool2D",
    "BatchNorm1D",
    "BatchNorm2D",
    "BlockCirculantLinear",
    "Conv2D",
    "CosineLR",
    "CrossEntropyLoss",
    "Dropout",
    "Embedding",
    "Flatten",
    "GlobalAvgPool2D",
    "LSTM",
    "LSTMCell",
    "LeakyReLU",
    "Linear",
    "MSELoss",
    "MaskedLinear",
    "MaxPool2D",
    "Module",
    "Parameter",
    "PermDiagConv2D",
    "PermDiagLinear",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "StepLR",
    "Tanh",
    "Trainer",
    "UnsupportedLayerError",
    "evaluate_classifier",
    "load_model",
    "save_model",
]
