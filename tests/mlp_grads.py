"""The MLP's row step over one batch, as the entry point that the gradient
checks compare against finite differences and the per-tensor reference."""

import numpy as np

from pashtext.models.mlp import MLPModel, _batch_loss, _row_step


def mlp_loss_and_grads(model: MLPModel, batch):
    """Mean cross-entropy and mean gradient, a new flat buffer in the model's
    layout, over a batch of `row_samples`.

    Each row's forward and backward pass touches only its stored entries;
    it is the training loop's row step, with its row buffers bound once per
    call.
    """
    grad = np.zeros_like(model.flat)
    step = _row_step(model, grad, model.split(grad))
    return _batch_loss(step, grad, batch), grad
