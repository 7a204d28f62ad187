"""Dense views of a model's traffic, for tests that reason cell by cell."""

import numpy as np


def dense_traffic(model):
    """The n x n matrix whose cell (i, j) holds the bits layer i+1 sends to j+1."""
    matrix = np.zeros((model.num_layers, model.num_layers))
    matrix[model.src, model.dst] = model.bits
    return matrix
