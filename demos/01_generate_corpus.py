"""
Synthetic clip corpus: generate, inspect, round-trip
====================================================

Every downstream capability (naming, semantic streams, the reasoning
network) runs on these clips, so this walk-through starts at the source:
a deterministic generator that fabricates per-frame detections, subtitle
lines, multiple-choice QA items, and a face->character truth sidecar.
"""

import tempfile
from pathlib import Path

from charqa.corpus import GenConfig, generate_corpus, read_corpus, write_corpus

# A pocket-sized corpus: 3 principal characters, 1 recurring extra,
# 8 clips of 6 frames. d_f is the face-embedding width.
cfg = GenConfig(k_principals=3, n_extras=1, n_clips=8, d_f=16, seed=42)
corpus = generate_corpus(cfg)
print(f"generated {len(corpus)} clips, principals = {cfg.principal_names()}")

# Anatomy of one clip.
clip = corpus[0]
print(f"\n{clip.clip_id}: {len(clip.frames)} frames, "
      f"{len(clip.subtitles)} subtitle lines, {len(clip.qas)} QA items")

for line in clip.subtitles:
    print(f"  [{line.t_start:4.1f}-{line.t_end:4.1f}] {line.speaker}: "
          f"{' '.join(line.tokens)}")

frame = clip.frames[0]
print(f"\nframe 0 at t={frame.time}:")
print(f"  faces        {[(f.face_id, clip.truth[f.face_id]) for f in frame.faces]}")
print(f"  human boxes  {[w for _, w in frame.human_boxes]}")
print(f"  objects      {frame.objects}")
print(f"  triples      {[t.tokens for t in frame.triples]}")

# QA items carry a time-stamped evidence interval and 5 candidate answers.
for qa in clip.qas:
    gold = " ".join(qa.answers[qa.correct_index])
    print(f"\n  ({qa.qtype}) {' '.join(qa.question)}?  ts={qa.ts_interval}")
    print(f"    candidates {[' '.join(a) for a in qa.answers]}  gold = {gold!r}")

# Persistence is JSON Lines with a schema header; identical configs give
# byte-identical files, which the test suite leans on heavily.
with tempfile.TemporaryDirectory() as tmp:
    write_corpus(corpus, Path(tmp) / "demo_corpus.jsonl")
    again = read_corpus(Path(tmp) / "demo_corpus.jsonl")
print(f"\nround trip: {len(again)} clips, equal = {again == corpus}")
