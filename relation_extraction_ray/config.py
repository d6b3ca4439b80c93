"""Typed pipeline configuration.

The reference configures behavior through a plain dict + click CLI flags
(``relembed.py:79-101``; ``wiki_and_semeval2sdp.py:319-330``); the engine
uses one frozen dataclass shared by the Ray pipeline and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KGConfig:
    # SDP extraction (CLI flags --minlen/--maxlen/--include_ends,
    # wiki_and_semeval2sdp.py:325-328; wiki defaults 1..7, combined 0..10)
    min_len: int = 1
    max_len: int = 10
    include_ends: bool = False
    max_pairs_per_sentence: int = 200  # scale guard on O(k^2) fan-out (SURVEY §7.5)

    # vocab build (-m/-v flags, wiki2sdp.py:277-278)
    vocab_limit: int | None = None
    min_count: int | None = None
    oov_count: int = 1
    oov_percent: int = 75

    # 'single' reversed-duplicate mode (wiki_and_semeval2sdp.py:430-441)
    single: bool = False
    # '--sentence' mode: path = raw token subsequence X..Y instead of the
    # SDP (convert_nominals_to_sentence, semeval_data_helper.py:130-151)
    sentence_mode: bool = False

    # scorer fixture seed (FIXTURES.md F7)
    scorer_seed: int = 7
    # model-scale emulation: repeat the scorer forward pass this many times
    # to emulate production-model FLOPs (the reference's real successors are
    # transformer-scale; our numpy GRU is ~100x lighter).  Output is
    # unchanged — only compute cost scales (read by ScorerStage).  Used by
    # bench --scaling to measure orchestration scaling in the CPU-bound
    # regime.
    model_scale: int = 1
