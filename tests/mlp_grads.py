"""The MLP's batch step, as the entry point that the gradient checks compare
against finite differences and the per-tensor reference."""

import numpy as np

from pashtext.models.mlp import MLPModel, _batch_step


def mlp_loss_and_grads(model: MLPModel, batch):
    """Mean cross-entropy and mean gradient, a new flat buffer in the model's
    layout, over a batch of `row_samples`.

    It is the training loop's batch step, with its buffers bound once per
    call: each row's forward and backward pass touches only its stored
    entries, and the batch's touched w1 rows and its b1, w2 and b2 gradient
    are added into a zeroed flat buffer.
    """
    tail = np.empty(model.flat.size - model.w1.size)
    loss, touched, rows = _batch_step(model, tail, len(batch))(batch)
    grad = np.zeros_like(model.flat)
    grad[model.w1.size :] += tail
    model.split(grad)[0][touched] += rows
    return loss, grad
