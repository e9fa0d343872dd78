import json

import numpy as np
import pytest

from relpe.data import (CLS_ID, KEEP_RATE, MASK_ID, MASK_RATE, PAD_ID,
                        RANDOM_RATE, SEP_ID, SPECIAL_TOKENS, UNK_ID,
                        CorpusError, Lexicon, MaskAction, MaskingPlan,
                        PretrainExample, Vocabulary, apply_masking, build_pairs,
                        build_vocab, load_corpus, make_example, make_examples,
                        masking_stats, read_examples, segment_words,
                        select_targets, write_examples)


def small_vocab(chars="abcdefgh"):
    return Vocabulary(tokens=list(SPECIAL_TOKENS) + list(chars))


class TestVocabulary:
    def test_special_ids_are_fixed(self):
        v = small_vocab()
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)
        assert v.first_regular_id == 5

    def test_misplaced_special_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=["[PAD]", "[CLS]", "[UNK]", "[SEP]", "[MASK]", "a"])

    def test_encode_decode_round_trip(self):
        v = small_vocab()
        ids = v.encode("cab")
        assert ids == [v.index["c"], v.index["a"], v.index["b"]]
        assert "".join(v.decode(i) for i in ids) == "cab"

    def test_unknown_maps_to_unk(self):
        assert small_vocab().encode("aZ") == [5, UNK_ID]

    def test_save_load_round_trip(self, tmp_path):
        v = small_vocab()
        v.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert loaded.tokens == v.tokens and loaded.index == v.index

    def test_derived_fields_are_not_arguments(self):
        # index follows tokens and max_word_len follows words; neither is settable
        with pytest.raises(TypeError):
            Vocabulary(tokens=list(SPECIAL_TOKENS) + ["a"], index={"a": 0})
        with pytest.raises(TypeError):
            Lexicon(words={"abc"}, max_word_len=1)


class TestBuildVocab:
    def test_frequency_order_with_codepoint_ties(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("bbba\ncaca\n", encoding="utf-8")  # a:3 b:3 c:2
        v = build_vocab([p])
        assert v.tokens[5:] == ["a", "b", "c"]

    def test_min_count_drops_rare_chars(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("aaab\n", encoding="utf-8")
        v = build_vocab([p], min_count=2)
        assert "b" not in v.index
        assert v.encode("b") == [UNK_ID]

    def test_max_size_truncates(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("aaabbc\n", encoding="utf-8")
        v = build_vocab([p], max_size=6)
        assert len(v) == 6 and v.tokens[5] == "a"

    def test_empty_corpus_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            build_vocab([p])


class TestSegmentation:
    def test_greedy_longest_match(self):
        lex = Lexicon(words={"ab", "abc", "cd"})
        assert segment_words("abcd", lex) == [(0, 3), (3, 4)]
        assert segment_words("abcd"[::-1], lex) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_no_lexicon_gives_singletons(self):
        assert segment_words("abc", Lexicon.empty()) == [(0, 1), (1, 2), (2, 3)]
        assert segment_words("", Lexicon.empty()) == []

    def test_single_char_words_ignored(self):
        lex = Lexicon(words={"a", "bc"})
        assert "a" not in lex.words
        assert segment_words("abc", lex) == [(0, 1), (1, 3)]

    def test_lexicon_load(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("ab\n\n xyz \nq\n", encoding="utf-8")
        lex = Lexicon.load(p)
        assert lex.words == {"ab", "xyz"} and lex.max_word_len == 3

    def test_partition_property_many_cases(self):
        # spans must tile [0, n) exactly, each multi-char span must be in the
        # lexicon, and no longer lexicon word may start where a span starts
        rng = np.random.default_rng(0)
        alphabet = "abcd"
        for _ in range(1000):
            n = int(rng.integers(0, 15))
            s = "".join(rng.choice(list(alphabet), size=n))
            words = {"".join(rng.choice(list(alphabet), size=int(rng.integers(2, 5))))
                     for _ in range(int(rng.integers(0, 6)))}
            lex = Lexicon(words=words)
            spans = segment_words(s, lex)
            flat = [i for a, b in spans for i in range(a, b)]
            assert flat == list(range(n))
            for a, b in spans:
                if b - a > 1:
                    assert s[a:b] in lex.words
                longest = b - a
                for length in range(n - a, longest, -1):
                    assert s[a:a + length] not in lex.words


class TestSelectTargets:
    def test_empty_input(self):
        plan = select_targets([], [], "char", np.random.default_rng(0))
        assert plan.actions == {}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_targets([1, 2], [], "word2vec", np.random.default_rng(0))

    def test_char_rates_converge_to_configured_split(self):
        counts = {a: 0 for a in MaskAction}
        total = 0
        for seed in range(300):
            plan = select_targets(list(range(1, 101)), [], "char",
                                  np.random.default_rng(seed))
            for action in plan.actions.values():
                counts[action] += 1
            total += 100
        assert counts[MaskAction.MASK] / total == pytest.approx(MASK_RATE, abs=0.01)
        assert counts[MaskAction.RANDOM_REPLACE] / total == pytest.approx(
            RANDOM_RATE, abs=0.005)
        assert counts[MaskAction.KEEP] / total == pytest.approx(KEEP_RATE, abs=0.005)

    def test_min_one_target_for_short_sequences(self):
        for seed in range(200):
            plan = select_targets(list(range(8)), [], "char",
                                  np.random.default_rng(seed))
            assert len(plan.actions) >= 1

    def test_targets_are_subset_of_maskable(self):
        maskable = [3, 5, 8, 13, 21, 34, 55, 89]
        for strategy in ("char", "wwm"):
            plan = select_targets(maskable, [range(3, 6)], strategy,
                                  np.random.default_rng(1))
            assert set(plan.actions) <= set(maskable)

    def test_wwm_selects_whole_spans_with_one_action(self):
        maskable = list(range(1, 41))
        spans = [range(1 + 4 * i, 1 + 4 * i + 4) for i in range(10)]
        for seed in range(100):
            plan = select_targets(maskable, spans, "wwm",
                                  np.random.default_rng(seed))
            for span in spans:
                hit = [p for p in span if p in plan.actions]
                assert hit == [] or len(hit) == len(list(span))
                assert len({plan.actions[p] for p in hit}) <= 1

    def test_wwm_span_action_split_is_80_10_10(self):
        maskable = list(range(200))
        spans = [range(2 * i, 2 * i + 2) for i in range(100)]
        counts = {a: 0 for a in MaskAction}
        for seed in range(400):
            plan = select_targets(maskable, spans, "wwm",
                                  np.random.default_rng(seed))
            seen = set()
            for p, a in plan.actions.items():
                g = p // 2
                if g not in seen:
                    seen.add(g)
                    counts[a] += 1
        total = sum(counts.values())
        assert counts[MaskAction.MASK] / total == pytest.approx(0.8, abs=0.04)
        assert counts[MaskAction.RANDOM_REPLACE] / total == pytest.approx(0.1, abs=0.03)
        assert counts[MaskAction.KEEP] / total == pytest.approx(0.1, abs=0.03)


class TestApplyMasking:
    def plan(self, mapping):
        return MaskingPlan(actions={k: MaskAction(v) for k, v in mapping.items()},
                           strategy="char")

    def test_actions_and_labels(self):
        v = small_vocab()
        ids = [CLS_ID, 5, 6, 7, SEP_ID]
        plan = self.plan({1: "mask", 2: "random_replace", 3: "keep"})
        out, positions, labels = apply_masking(ids, plan, v,
                                               np.random.default_rng(0))
        assert positions == [1, 2, 3]
        assert labels == [5, 6, 7]
        assert out[1] == MASK_ID
        assert out[2] != 6 and v.first_regular_id <= out[2] < len(v)
        assert out[3] == 7
        assert out[0] == CLS_ID and out[4] == SEP_ID

    def test_replacement_never_equals_original(self):
        v = small_vocab("ab")  # ids 5, 6: collisions are frequent
        for seed in range(200):
            out, _, _ = apply_masking([CLS_ID, 5, SEP_ID],
                                      self.plan({1: "random_replace"}), v,
                                      np.random.default_rng(seed))
            assert out[1] == 6

    def test_special_token_target_rejected(self):
        with pytest.raises(ValueError, match="position 0"):
            apply_masking([CLS_ID, 5], self.plan({0: "mask"}), small_vocab(),
                          np.random.default_rng(0))

    def test_original_ids_unchanged(self):
        ids = [CLS_ID, 5, 6, SEP_ID]
        apply_masking(ids, self.plan({1: "mask"}), small_vocab(),
                      np.random.default_rng(0))
        assert ids == [CLS_ID, 5, 6, SEP_ID]


class TestBuildPairs:
    def docs(self):
        return [[c * 5 for c in "aaaa"], [c * 5 for c in "bbbb"],
                [c * 5 for c in "cccc"]]

    def test_needs_two_documents(self):
        with pytest.raises(CorpusError):
            list(build_pairs([["aaa", "bbb"]], 16, np.random.default_rng(0)))

    def test_budget_respected(self):
        for a, b, _ in build_pairs(self.docs(), 8, np.random.default_rng(0)):
            assert len(a) + len(b) <= 5
            assert a and b

    def test_positive_rate_near_half(self):
        docs = [["a" * 4] * 30, ["b" * 4] * 30]
        labels = [is_next for _, _, is_next
                  in build_pairs(docs, 16, np.random.default_rng(3))]
        assert np.mean(labels) == pytest.approx(0.5, abs=0.1)

    def test_negative_second_sentence_from_other_document(self):
        docs = [["a" * 4] * 10, ["b" * 4] * 10, ["c" * 4] * 10]
        for a, b, is_next in build_pairs(docs, 16, np.random.default_rng(4),
                                         doc_index=0):
            assert set(a) == {"a"}
            if is_next:
                assert set(b) == {"a"}
            else:
                assert set(b) <= {"b", "c"}


class TestMakeExample:
    def test_frame_and_segments(self):
        v = small_vocab()
        ex = make_example("abc", "de", 1, v, Lexicon.empty(), "char",
                          np.random.default_rng(0))
        assert len(ex.tokens) == 8
        assert ex.tokens[0] == CLS_ID
        assert ex.tokens[4] == SEP_ID and ex.tokens[7] == SEP_ID
        assert ex.segments == [0, 0, 0, 0, 0, 1, 1, 1]
        assert ex.nsp_label == 1

    def test_labels_restore_clean_encoding(self):
        v = small_vocab()
        clean = [CLS_ID] + v.encode("abc") + [SEP_ID] + v.encode("dec") + [SEP_ID]
        for seed in range(50):
            ex = make_example("abc", "dec", 0, v, Lexicon.empty(), "char",
                              np.random.default_rng(seed))
            restored = list(ex.tokens)
            for p, lab in zip(ex.predict_positions, ex.predict_labels):
                restored[p] = lab
            assert restored == clean

    def test_wwm_never_splits_a_lexicon_word(self):
        v = small_vocab()
        lex = Lexicon(words={"abc", "de"})
        for seed in range(100):
            ex = make_example("abcfg", "dehh", 1, v, lex, "wwm",
                              np.random.default_rng(seed))
            word_positions = [1, 2, 3]  # "abc" occupies frame slots 1-3
            hit = [p for p in word_positions if p in ex.predict_positions]
            assert hit == [] or hit == word_positions

    def test_char_examples_do_not_read_the_lexicon(self, tmp_path):
        docs = [["abcdefgh", "hgfedcba", "abcabcde"], ["defdefgh", "aabbccdd"]]
        for name, lex in (("empty", Lexicon.empty()), ("real", Lexicon(words={"abc", "de", "fgh"}))):
            write_examples(make_examples(docs, small_vocab(), lex, "char", 16, seed=5),
                           tmp_path / name)
        assert (tmp_path / "empty").read_bytes() == (tmp_path / "real").read_bytes()

    def test_make_examples_deterministic(self):
        v = small_vocab()
        docs = [["abcd", "efgh", "abef"], ["cdgh", "aabb"]]
        a = make_examples(docs, v, Lexicon.empty(), "char", 16, seed=5)
        b = make_examples(docs, v, Lexicon.empty(), "char", 16, seed=5)
        c = make_examples(docs, v, Lexicon.empty(), "char", 16, seed=6)
        assert [e.to_dict() for e in a] == [e.to_dict() for e in b]
        assert [e.to_dict() for e in a] != [e.to_dict() for e in c]


class TestCorpusIO:
    def test_blank_line_separates_documents(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("s1\ns2\n\n\ns3\n", encoding="utf-8")
        assert load_corpus(p) == [["s1", "s2"], ["s3"]]

    def test_empty_corpus_rejected(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("  \n\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(p)

    def test_examples_round_trip(self, tmp_path):
        ex = PretrainExample(tokens=[2, 5, 3], segments=[0, 0, 0],
                             predict_positions=[1], predict_labels=[6], nsp_label=0)
        path = tmp_path / "ex.jsonl"
        write_examples([ex, ex], path)
        back = read_examples(path)
        assert len(back) == 2
        assert back[0].to_dict() == ex.to_dict()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        good = json.dumps(PretrainExample([2, 3], [0, 0], [], [], 1).to_dict())
        path.write_text(good + "\n{not json}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            read_examples(path)

    @pytest.mark.parametrize("fields, problem", [
        (dict(tokens=[], segments=[]), "nonzero"),
        (dict(segments=[0, 0]), "3 tokens and 2 segments"),
        (dict(predict_labels=[6, 7]), "1 predict_positions but 2 predict_labels"),
        (dict(predict_positions=[3]), "outside the length-3 sequence"),
        (dict(predict_positions=[-1]), "outside the length-3 sequence"),
        (dict(predict_labels=[-1]), "must be >= 0"),
        (dict(nsp_label=2), "nsp_label 2 must be 0 or 1"),
    ])
    def test_example_the_encoder_cannot_run_is_rejected(self, tmp_path, fields, problem):
        record = {**PretrainExample([2, 5, 3], [0, 0, 0], [1], [6], 0).to_dict(), **fields}
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError,
                           match=f"ex.jsonl: malformed example on line 1: .*{problem}"):
            read_examples(path)


class TestMaskingStats:
    def test_hand_computed(self):
        ex1 = PretrainExample(tokens=[2, MASK_ID, 6, 7, 8, 3, 9, 3],
                              segments=[0] * 8, predict_positions=[1, 2],
                              predict_labels=[5, 10], nsp_label=1)
        ex2 = PretrainExample(tokens=[2, 5, 3, 6, 3], segments=[0] * 5,
                              predict_positions=[], predict_labels=[],
                              nsp_label=0)
        stats = masking_stats([ex1, ex2])
        assert stats["num_examples"] == 2
        assert stats["total_maskable_positions"] == 5 + 2
        assert stats["mask_rate"] == pytest.approx(1 / 7)
        assert stats["random_replace_rate"] == pytest.approx(1 / 7)  # pos 2: 6 != 10
        assert stats["nsp_positive_fraction"] == 0.5
        assert sum(stats["mask_rate_histogram"]["counts"]) == 2

    def test_large_sample_rates_match_configured_split(self):
        v = small_vocab()
        docs = [["abcdefgh" * 12 for _ in range(40)] for _ in range(4)]
        examples = make_examples(docs, v, Lexicon.empty(), "char", 128, seed=11)
        stats = masking_stats(examples)
        assert stats["mask_rate"] == pytest.approx(MASK_RATE, abs=0.01)
        assert stats["random_replace_rate"] == pytest.approx(RANDOM_RATE, abs=0.005)
        assert stats["target_rate"] == pytest.approx(
            MASK_RATE + RANDOM_RATE + KEEP_RATE, abs=0.015)
        assert stats["nsp_positive_fraction"] == pytest.approx(0.5, abs=0.1)
