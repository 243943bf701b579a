"""Eight classifier families behind one train/predict contract.

All families are implemented from first principles on top of numpy arrays;
the only shared machinery is the sparse feature matrix from
:mod:`pashtext.vectorize` and the package PRNG.  Every model scores whole
matrices at once: ``predict_scores`` returns an (n_rows, K) array and
``predict_rows`` its row-wise argmax.

Each family's model class is the one place that kind is described: its
``kind``, its hyperparameter record ``params_class`` (from
:mod:`.params`), its report ``display_name``, its ``fit`` and, where its
payload is named float arrays, their names ``payload_arrays``.  Defining the
class enters it in :data:`.base.KIND_CLASSES`, which training, model
documents (:mod:`.io`), hyperparameter parsing and the grid tables read.
Importing this package imports the five family modules, so the table is
full.  Other names are imported from the module that defines them.
"""

from . import knn, linear, mlp, naive_bayes, tree  # noqa: F401  (they fill KIND_CLASSES)
from .base import Model, ModelKind
from .train import train

__all__ = ["Model", "ModelKind", "train"]
