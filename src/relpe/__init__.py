"""Desk-scale transformer encoder pretraining kit.

Relative and absolute positional encodings inside multi-head self-attention,
whole-word masking data pipelines, LAMB/Adam optimizers with emulated mixed
precision, and a CLI harness for training, evaluation, and ablations.
"""

from .attention import AttentionConfig, HeadWeights, attention_output, attention_scores, multi_head_attention
from .config import RunConfig
from .data import Lexicon, PretrainExample, Vocabulary, build_vocab, segment_words
from .encoder import EncoderConfig, EncoderModel, pretrain_loss
from .gradcheck import check_gradients
from .optim import (AdamOptimizer, LambOptimizer, LrSchedule, PrecisionPolicy,
                    lr_at_step, round_half, training_step)
from .posenc import RelPositionTable, Scheme, build_rel_table, frpe_vector
from .tensor import Tensor, gelu, layer_norm
from .train import Trainer, evaluate

__version__ = "0.1.0"
