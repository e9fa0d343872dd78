"""Synthetic corpora and tasks for desk-scale experiments.

Two generators:

* a toy character language whose sentences are sequences of two-character
  words with a deterministic second character, so masked positions are
  predictable from context and MLM training can make real progress;
* the offset-copy task, where a marked position must be filled with the
  symbol a fixed relative offset away. It is solvable only through position
  information, which makes positional-encoding differences (and length
  extrapolation) visible at desk scale.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import CLS_ID, MASK_ID, PretrainExample

SYMBOL_BASE = 0x4E00  # CJK block keeps the toy corpus visually word-like


def symbol(i: int) -> str:
    return chr(SYMBOL_BASE + i)


def partner(i: int, alphabet: int) -> int:
    return (i * 7 + 3) % alphabet


def toy_words(alphabet: int = 200) -> list[str]:
    """The language's two-character words: (s, partner(s)) for every symbol."""
    return [symbol(i) + symbol(partner(i, alphabet)) for i in range(alphabet)]


def generate_toy_corpus(path, num_docs: int = 20, sentences_per_doc: int = 12,
                        words_per_sentence: int = 12, alphabet: int = 200,
                        seed: int = 0):
    """Write a toy corpus plus its lexicon; returns (corpus_path, lexicon_path)."""
    rng = np.random.default_rng(seed)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    corpus_path = path / "corpus.txt"
    lexicon_path = path / "lexicon.txt"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for d in range(num_docs):
            if d:
                fh.write("\n")
            for _ in range(sentences_per_doc):
                firsts = rng.integers(alphabet, size=words_per_sentence)
                sentence = "".join(symbol(int(i)) + symbol(partner(int(i), alphabet))
                                   for i in firsts)
                fh.write(sentence + "\n")
    lexicon_path.write_text("\n".join(toy_words(alphabet)) + "\n", encoding="utf-8")
    return corpus_path, lexicon_path


def make_offset_copy_examples(num: int, seq_len: int, num_symbols: int,
                              offset: int, rng: np.random.Generator,
                              queries_per_seq: int = 2) -> list[PretrainExample]:
    """Sequences of random symbols; each query position is masked and labeled
    with the symbol ``offset`` places away.

    Query positions are spaced at least 2*|offset| apart so no query's source
    symbol is itself masked. Symbols use ids >= 5 (after the specials).
    """
    if offset == 0:
        raise ValueError("offset must be nonzero")
    first_id = 5
    examples = []
    span = abs(offset)
    lo = 1 + span if offset < 0 else 1
    hi = seq_len if offset < 0 else seq_len - span
    if hi - lo < (queries_per_seq - 1) * 2 * span + 1:
        raise ValueError(f"seq_len {seq_len} too short for offset {offset}")
    for _ in range(num):
        tokens = [CLS_ID] + [int(rng.integers(first_id, first_id + num_symbols))
                             for _ in range(seq_len - 1)]
        queries: list[int] = []
        attempts = 0
        while len(queries) < queries_per_seq and attempts < 200:
            q = int(rng.integers(lo, hi))
            if all(abs(q - p) >= 2 * span for p in queries):
                queries.append(q)
            attempts += 1
        queries.sort()
        labels = [tokens[q + offset] for q in queries]
        for q in queries:
            tokens[q] = MASK_ID
        examples.append(PretrainExample(
            tokens=tokens, segments=[0] * seq_len,
            predict_positions=queries, predict_labels=labels, nsp_label=0))
    return examples
