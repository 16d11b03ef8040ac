"""Pure-NumPy neural-network substrate.

The paper trains a modified AlexNet (5 CONV + 5 FC layers, Fig. 3a) with
deep Q-learning, and its central algorithmic idea is *partial* online
training: only the last ``i`` fully connected layers are updated in real
time (configurations L2/L3/L4), while the frozen prefix lives in STT-MRAM.

This package implements the layers, the network container with
``backward(..., first_trainable=...)`` partial backpropagation, an SGD optimiser,
Q-learning losses, and the paper's network specifications at both paper
scale (for analytic hardware costing) and reduced scale (for functional RL
training inside tests and benchmarks).
"""

from repro.nn.initializers import he_normal
from repro.nn.layers import (
    Layer,
    Parameter,
    Conv2D,
    Dense,
    ReLU,
    LocalResponseNorm,
    MaxPool2D,
    Flatten,
)
from repro.nn.network import Network
from repro.nn.optim import SGD, Optimizer
from repro.nn.losses import mse_loss, huber_loss, q_learning_loss
from repro.nn.specs import ConvSpec, FCSpec, LayerSpec, NetworkSpec
from repro.nn.alexnet import (
    modified_alexnet_spec,
    scaled_drone_net_spec,
    build_network,
    parameter_table,
)

__all__ = [
    "he_normal",
    "Layer",
    "Parameter",
    "Conv2D",
    "Dense",
    "ReLU",
    "LocalResponseNorm",
    "MaxPool2D",
    "Flatten",
    "Network",
    "SGD",
    "Optimizer",
    "mse_loss",
    "huber_loss",
    "q_learning_loss",
    "ConvSpec",
    "FCSpec",
    "LayerSpec",
    "NetworkSpec",
    "modified_alexnet_spec",
    "scaled_drone_net_spec",
    "build_network",
    "parameter_table",
]
