"""pashtext: dependency-light text classification for Arabic-script corpora.

The package covers the full experimental loop: corpus loading, validation
and stratified splitting; Unicode normalisation and tokenization tuned for
Pashto; unigram and TFIDF features with chi-square selection; eight
classifier families implemented from first principles; evaluation metrics;
and a deterministic 16-cell comparison grid, all scriptable through the
``pashtext`` command.  Each name is imported from the module that defines
it, for example ``from pashtext.corpus import load_corpus``.
"""

import os

# Before any submodule imports numpy: the models' matrix products are small,
# and OpenBLAS threads made them slower, never different.  A set value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
