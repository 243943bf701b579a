"""The MLP's batch step, as the entry point that the gradient checks compare
against finite differences and the per-tensor reference."""

import numpy as np

from pashtext.models.mlp import AdamState, MLPModel, _batch_step, _row_step


def mlp_loss_and_grads(model: MLPModel, batch):
    """Mean cross-entropy and mean gradient, a new flat buffer in the model's
    layout, over a batch of `row_samples`.

    It is the training loop's batch step, with its buffers bound once per
    call: each row's forward and backward pass touches only its stored
    entries, and the batch's touched rows of Adam's block, the w1 rows and
    the b1, w2 and b2 tail, are added into a zeroed block of that shape.
    """
    adam = AdamState(model)
    batch = indexed(adam, batch)
    loss, index, rows = _batch_step(_row_step(model, adam, batch), adam)(batch)
    grad = np.zeros(adam.block.shape[1:])
    grad[index[0]] += rows
    return loss, grad.reshape(-1)[: model.flat.size]


def indexed(adam: AdamState, samples):
    """`row_samples` with each one's `adam.rows_of` appended, as `mlp_epoch`
    and `MLPModel.fit` take them."""
    return [(*sample, adam.rows_of(sample[0])) for sample in samples]
