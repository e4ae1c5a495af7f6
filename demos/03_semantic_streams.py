"""
Character-aware semantic streams
================================

Raw detections say "man holds cup". Once faces carry predicted names, the
human-referring endpoints of relation triples are rewritten to those names
("Ada holds cup"), and plain object detections can be crossed with the
names present in the frame. These token streams are what the reasoning
network actually reads.
"""

from charqa.carn import ModalityConfig, subtitle_stream
from charqa.castlist import CastList
from charqa.corpus import GenConfig, generate_corpus
from charqa.semantics import (augment_objects_with_names, frame_names,
                              match_faces_to_humans, replace_names, visual_stream)

corpus = generate_corpus(GenConfig(k_principals=3, n_extras=1, n_clips=4,
                                   d_f=16, seed=3))
clip = corpus[0]
names = dict(clip.truth)  # oracle names here; training uses predictions
cast = CastList(tuple(GenConfig(k_principals=3).principal_names()), (30, 20, 10))

# Step 1: tie each detected human box to the face it contains (overlap
# ratio over the face area, ties to the lowest face id).
frame = next(f for f in clip.frames if f.human_boxes and f.triples)
matches = match_faces_to_humans(frame.faces, [b for b, _ in frame.human_boxes])
print(f"frame {frame.frame_id}: human boxes -> faces {matches}")

# Step 2: rewrite triples through the face names; replace_names makes the
# same match itself.
before = [t.tokens for t in frame.triples]
after = [t.tokens for t in replace_names(frame, names)]
for b, a in zip(before, after):
    mark = "->" if a != b else "  (unchanged)"
    print(f"  {b} {mark} {a if a != b else ''}")

# Step 3: objects crossed with the names present in the frame.
present = frame_names(frame, names)
print(f"\nobjects {frame.objects} x names {present}")
print(f"  {augment_objects_with_names(frame.objects, present)}")

# The nine ablation variants toggle which streams exist and whether they
# carry names. Flags mark name tokens for the embedding tables.
for label in ("Sub", "Sub + Objs", "Sub + Objs_nm + Rels_nm"):
    modality = ModalityConfig.from_label(label)
    toks, flags = visual_stream(clip.frames, modality, names, cast)
    print(f"\n[{label}] visual stream, {len(toks)} tokens")
    print("  " + " ".join(f"{t}*" if fl else t for t, fl in zip(toks[:18], flags[:18]))
          + (" ..." if len(toks) > 18 else ""))

subs, sub_flags = subtitle_stream(clip.subtitles, cast)
print(f"\nsubtitle stream ({len(subs)} tokens, * = name):")
print("  " + " ".join(f"{t}*" if fl else t for t, fl in zip(subs[:20], sub_flags[:20]))
      + (" ..." if len(subs) > 20 else ""))
