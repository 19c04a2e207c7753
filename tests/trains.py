"""The window of a tensor train given in fibre form, for the tests."""

import numpy as np


def train_window(cores, l):
    """The window of a train stored as fibres (r_k, j, i, fibres), as
    tensors.path_cores and tensors.tt_svd give it: each core densified,
    G_k[j, :, i] = fibres, then contracted one core at a time, least
    significant digit first."""
    window = np.ones((1, 1))                  # (times so far, bond)
    for r, j, i, fibres in cores:
        core = np.zeros((window.shape[1], l, r))
        core[j, :, i] = fibres
        window = np.einsum("tj,jsi->sti", window, core).reshape(-1, r)
    return window[:, 0]
