"""Desk-scale transformer encoder pretraining kit.

Relative and absolute positional encodings inside multi-head self-attention,
whole-word masking data pipelines, LAMB/Adam optimizers with emulated mixed
precision, and a CLI harness for training, evaluation, and ablations. Import
each name from its module (``relpe.train``, ``relpe.encoder``, ...); the
package itself re-exports nothing.
"""
