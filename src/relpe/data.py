"""Corpus to pretraining examples: vocabulary, segmentation, masking, NSP pairs.

Tokenization is per character. Word boundaries for whole-word masking come
from a greedy longest-match segmenter over a user-supplied lexicon
(``segment_words``, which ``make_example`` calls), so the pipeline is
deterministic and dependency-free.

Corpus files are UTF-8 text, one sentence per line, blank line between
documents. Example files are JSON-lines with the fields tokens, segments,
predict_positions, predict_labels, nsp_label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

# 12% masked, 1.5% randomly replaced, 1.5% kept unchanged: 15% targets total.
MASK_RATE = 0.12
RANDOM_RATE = 0.015
KEEP_RATE = 0.015


class CorpusError(ValueError):
    pass


def _read_text(path) -> str:
    """The UTF-8 text of ``path``; a file that is not UTF-8 is a CorpusError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    tokens: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}
        for i, name in enumerate(SPECIAL_TOKENS):
            if self.tokens[i:i + 1] != [name]:
                raise ValueError(f"special token {name} missing at id {i}")
        if len(self.tokens) < len(SPECIAL_TOKENS) + 2:   # a random replacement is another one
            raise ValueError("fewer than 2 regular tokens follow the special tokens")

    def __len__(self):
        return len(self.tokens)

    @property
    def first_regular_id(self) -> int:
        return len(SPECIAL_TOKENS)

    def encode(self, text: str) -> list[int]:
        return [self.index.get(c, UNK_ID) for c in text]

    def save(self, path):
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(tokens=tokens)


def build_vocab(corpus_paths, min_count: int = 1,
                max_size: int | None = None) -> Vocabulary:
    """Character vocabulary: specials first, then descending frequency.

    Frequency ties break by codepoint; characters rarer than ``min_count``
    (and anything truncated by ``max_size``) map to [UNK].
    """
    counts: dict[str, int] = {}
    for path in corpus_paths:
        for line in _read_text(path).splitlines():
            for ch in line:
                counts[ch] = counts.get(ch, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    chars = [ch for ch, c in ranked if c >= min_count]
    if len(chars) < 2:
        raise CorpusError(f"fewer than 2 characters occur min_count={min_count} times or more "
                          f"in corpus: {list(corpus_paths)}")
    tokens = list(SPECIAL_TOKENS) + chars
    if max_size is not None:
        tokens = tokens[:max_size]
    return Vocabulary(tokens=tokens)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

@dataclass
class Lexicon:
    words: set[str]
    max_word_len: int = field(init=False)

    def __post_init__(self):
        self.words = {w for w in self.words if len(w) >= 2}
        self.max_word_len = max((len(w) for w in self.words), default=1)

    @classmethod
    def load(cls, path) -> "Lexicon":
        words = {w.strip() for w in _read_text(path).splitlines() if w.strip()}
        return cls(words=words)

    @classmethod
    def empty(cls) -> "Lexicon":
        return cls(words=set())


def segment_words(chars: str, lexicon: Lexicon) -> list[tuple[int, int]]:
    """Greedy longest-match left-to-right; spans (start, end) partition the input."""
    spans = []
    i = 0
    n = len(chars)
    while i < n:
        match_len = 1
        for length in range(min(lexicon.max_word_len, n - i), 1, -1):
            if chars[i:i + length] in lexicon.words:
                match_len = length
                break
        spans.append((i, i + match_len))
        i += match_len
    return spans


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

class MaskAction(str, Enum):
    MASK = "mask"
    RANDOM_REPLACE = "random_replace"
    KEEP = "keep"


def _stochastic_count(rate: float, n: int, rng: np.random.Generator) -> int:
    """floor(rate * n), with the fractional part resolved by a coin flip so the
    expected count is exact."""
    exact = rate * n
    c = int(np.floor(exact))
    if rng.random() < exact - c:
        c += 1
    return c


def select_targets(maskable_positions, spans, strategy: str,
                   rng: np.random.Generator) -> dict[int, MaskAction]:
    """Choose prediction targets over the maskable positions: {position: action}.

    ``char`` samples positions directly; ``wwm`` samples whole spans until the
    target budget is met, with one action class drawn per span. Positions not
    covered by any span behave as singleton spans.
    """
    maskable = list(maskable_positions)
    n = len(maskable)
    actions: dict[int, MaskAction] = {}
    if n == 0:
        return actions

    c_mask = _stochastic_count(MASK_RATE, n, rng)
    c_rand = _stochastic_count(RANDOM_RATE, n, rng)
    c_keep = _stochastic_count(KEEP_RATE, n, rng)
    if c_mask + c_rand + c_keep == 0 and n >= 8:
        c_mask = 1

    if strategy == "char":
        order = rng.permutation(n)
        chosen = [maskable[i] for i in order[:c_mask + c_rand + c_keep]]
        for i, pos in enumerate(chosen):
            if i < c_mask:
                actions[pos] = MaskAction.MASK
            elif i < c_mask + c_rand:
                actions[pos] = MaskAction.RANDOM_REPLACE
            else:
                actions[pos] = MaskAction.KEEP
    elif strategy == "wwm":
        budget = c_mask + c_rand + c_keep
        maskable_set = set(maskable)
        covered = set()
        groups = []
        for span in spans:
            positions = [p for p in span if p in maskable_set]
            if positions:
                groups.append(positions)
                covered.update(positions)
        groups.extend([p] for p in maskable if p not in covered)
        order = rng.permutation(len(groups))
        selected = 0
        for gi in order:
            if selected >= budget:
                break
            group = groups[gi]
            draw = rng.random()
            if draw < 0.8:
                action = MaskAction.MASK
            elif draw < 0.9:
                action = MaskAction.RANDOM_REPLACE
            else:
                action = MaskAction.KEEP
            for pos in group:
                actions[pos] = action
            selected += len(group)
    else:
        raise ValueError(f"unknown masking strategy {strategy!r}")
    return actions


def apply_masking(token_ids, actions: dict[int, MaskAction], vocab: Vocabulary,
                  rng: np.random.Generator):
    """Corrupt the token ids per target action; labels are always the original ids."""
    ids = list(token_ids)
    positions = sorted(actions)
    labels = []
    lo, hi = vocab.first_regular_id, len(vocab)
    for pos in positions:
        original = ids[pos]
        if original in (PAD_ID, CLS_ID, SEP_ID):
            raise ValueError(f"masking plan targets special token at position {pos}")
        labels.append(original)
        action = actions[pos]
        if action is MaskAction.MASK:
            ids[pos] = MASK_ID
        elif action is MaskAction.RANDOM_REPLACE:
            # "another token": resample on collision with the original.
            replacement = original
            while replacement == original:
                replacement = int(rng.integers(lo, hi))
            ids[pos] = replacement
    return ids, positions, labels


# ---------------------------------------------------------------------------
# sentence pairing and example assembly
# ---------------------------------------------------------------------------

@dataclass
class PretrainExample:
    tokens: list[int]
    segments: list[int]
    predict_positions: list[int]
    predict_labels: list[int]
    nsp_label: int

    def to_dict(self) -> dict:
        return {"tokens": self.tokens, "segments": self.segments,
                "predict_positions": self.predict_positions,
                "predict_labels": self.predict_labels,
                "nsp_label": self.nsp_label}

    @classmethod
    def from_dict(cls, d: dict) -> "PretrainExample":
        """One example record, nsp_label an int and each other field a list of ints."""
        ex = cls(*(d[f.name] for f in fields(cls)))
        for name, value in vars(ex).items():
            if name != "nsp_label" and type(value) is not list:
                raise ValueError(f"{name} {value!r} is not a list")
            bad = [v for v in (value if name != "nsp_label" else [value]) if type(v) is not int]
            if bad:   # bools and floats included: JSON's true is not an id, nor is 1.5
                raise ValueError(f"{name}: {bad[0]!r} is not an integer")
        return ex


def _truncate_pair(a: str, b: str, budget: int) -> tuple[str, str]:
    """Trim the longer sentence from its end until both fit the budget."""
    while len(a) + len(b) > budget:
        if len(a) >= len(b):
            a = a[:-1]
        else:
            b = b[:-1]
    return a, b


def build_pairs(documents: list[list[str]], seq_len: int,
                rng: np.random.Generator, doc_index: int | None = None):
    """Yield (sentence_a, sentence_b, is_next) with a 50/50 positive rate.

    Negatives draw the second sentence from a different document. With
    ``doc_index`` set, only pairs anchored in that document are produced.
    """
    if len(documents) < 2:
        raise CorpusError("need at least 2 documents to sample NSP negatives")
    budget = seq_len - 3  # [CLS] + 2 x [SEP]
    if budget < 2:
        raise CorpusError(f"max_seq_len {seq_len} is too short for a sentence pair: "
                          f"[CLS], two [SEP] and a token of each sentence need 5")
    doc_range = [doc_index] if doc_index is not None else range(len(documents))
    for d in doc_range:
        doc = documents[d]
        for s in range(len(doc) - 1):
            a = doc[s]
            if rng.random() < 0.5:
                b = doc[s + 1]
                is_next = 1
            else:
                other = int(rng.integers(len(documents) - 1))
                if other >= d:
                    other += 1
                b = documents[other][int(rng.integers(len(documents[other])))]
                is_next = 0
            a_t, b_t = _truncate_pair(a, b, budget)
            if a_t and b_t:
                yield a_t, b_t, is_next


def make_example(a: str, b: str, is_next: int, vocab: Vocabulary,
                 lexicon: Lexicon, strategy: str,
                 rng: np.random.Generator) -> PretrainExample:
    """Frame a sentence pair, pick masking targets, and corrupt the tokens."""
    a_ids, b_ids = vocab.encode(a), vocab.encode(b)
    tokens = [CLS_ID] + a_ids + [SEP_ID] + b_ids + [SEP_ID]
    segments = [0] * (len(a_ids) + 2) + [1] * (len(b_ids) + 1)
    a_off, b_off = 1, len(a_ids) + 2
    maskable = list(range(a_off, a_off + len(a_ids))) \
        + list(range(b_off, b_off + len(b_ids)))
    spans = [] if strategy == "char" else [  # per-character targets never read spans
        range(off + s, off + e) for text, off in ((a, a_off), (b, b_off))
        for s, e in segment_words(text, lexicon)]
    actions = select_targets(maskable, spans, strategy, rng)
    ids, positions, labels = apply_masking(tokens, actions, vocab, rng)
    return PretrainExample(tokens=ids, segments=segments,
                           predict_positions=positions, predict_labels=labels,
                           nsp_label=is_next)


def make_examples(documents: list[list[str]], vocab: Vocabulary, lexicon: Lexicon,
                  strategy: str, seq_len: int, seed: int) -> list[PretrainExample]:
    """Deterministic corpus conversion; each document gets a derived seed."""
    examples = []
    for d in range(len(documents)):
        rng = np.random.default_rng([seed, d])
        for a, b, is_next in build_pairs(documents, seq_len, rng, doc_index=d):
            examples.append(make_example(a, b, is_next, vocab, lexicon, strategy, rng))
    return examples


def load_corpus(path) -> list[list[str]]:
    """One sentence per line, blank line separates documents."""
    documents = []
    current: list[str] = []
    for line in _read_text(path).splitlines():
        line = line.strip()
        if line:
            current.append(line)
        elif current:
            documents.append(current)
            current = []
    if current:
        documents.append(current)
    if not documents:
        raise CorpusError(f"corpus {path} contains no documents")
    return documents


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_examples(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_dict()) + "\n")


def read_examples(path) -> list[PretrainExample]:
    """A file's examples; a line not UTF-8 JSON of a record is a CorpusError naming it."""
    examples = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:   # bytes split on \n, \r\n and \r alone, as text mode does
            line = raw.decode("utf-8")
            if line.strip():
                examples.append(PretrainExample.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusError(f"{path}: malformed example on line {lineno}: {exc}")
    return examples


def masking_stats(examples: list[PretrainExample]) -> dict:
    """Aggregate target-rate statistics over an example set."""
    total_maskable = 0
    n_targets = 0
    n_replaced = 0
    per_example_rates = []
    positives = 0
    n_masked_tokens = 0
    for ex in examples:
        # frame is [CLS] A [SEP] B [SEP]: everything else is maskable
        maskable = len(ex.tokens) - 3
        total_maskable += maskable
        n_targets += len(ex.predict_positions)
        masked_here = sum(1 for p in ex.predict_positions if ex.tokens[p] == MASK_ID)
        # replacement resamples on collision, so token != label identifies it
        n_replaced += sum(1 for p, lab in zip(ex.predict_positions, ex.predict_labels)
                          if ex.tokens[p] != MASK_ID and ex.tokens[p] != lab)
        n_masked_tokens += masked_here
        per_example_rates.append(masked_here / maskable if maskable else 0.0)
        positives += ex.nsp_label
    hist, edges = np.histogram(per_example_rates, bins=10, range=(0.0, 0.3))
    return {
        "num_examples": len(examples),
        "total_maskable_positions": total_maskable,
        "target_rate": n_targets / total_maskable if total_maskable else 0.0,
        "mask_rate": n_masked_tokens / total_maskable if total_maskable else 0.0,
        "random_replace_rate": n_replaced / total_maskable if total_maskable else 0.0,
        "nsp_positive_fraction": positives / len(examples) if examples else 0.0,
        "mask_rate_histogram": {"bin_edges": [float(e) for e in edges],
                                "counts": [int(c) for c in hist]},
    }
