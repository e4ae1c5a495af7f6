"""
Weakly supervised face naming
=============================

Nobody labels faces. The only supervision is the subtitle speaker: while
Ada is talking, SOME face on screen is probably Ada's. Broadcasting the
speaker label to every face in the overlapping frames gives noisy targets;
a min-over-faces KL loss per frame lets the model satisfy each frame with
its single best face, and the noise washes out across clips.
"""

import numpy as np

from charqa.carn import ModelConfig
from charqa.corpus import GenConfig, generate_corpus
from charqa.harness import TrainConfig, train
from charqa.naming import (broadcast_targets, face_accuracy, face_table, naming_forward,
                           rkl_loss_with_grad, smoothed_onehot)

# The target for a frame is a smoothed one-hot over cast labels + UNKNAME.
g = smoothed_onehot(1, 3, epsilon=0.05)
print(f"smoothed target for class 1 of 3, eps=0.05: {np.round(g, 4)}")

corpus = generate_corpus(GenConfig(k_principals=3, n_extras=1, n_clips=60,
                                   d_f=16, seed=1))
config = TrainConfig(epochs=12, batch_size=8,
                     model=ModelConfig(d_model=16, d_ff=24, d_h1=8,
                                       heads=2, d_f=16))
model, report = train(corpus, config)
cast = model.cast
print(f"cast {cast.label_names()}")

# What broadcasting produced for one clip: every face in a frame that
# overlaps a principal's line inherits that speaker's target. The targets
# name faces by their rows of the clip's face table.
clip = corpus[0]
face_ids, _ = face_table(clip)
targets = broadcast_targets(clip, cast, epsilon=0.05)
for frame_id, rows, g in list(zip(targets.frame_ids, targets.face_rows, targets.targets))[:4]:
    spk = cast.label_names()[int(np.argmax(g))]
    print(f"  frame {frame_id}: faces {[face_ids[r] for r in rows if r >= 0]} <- speaker {spk}")

# The loss takes the best face per frame; a perfect prediction on one face
# zeroes that frame's term even if the other faces disagree.
rows = naming_forward(model.params, face_table(clip)[1])  # the head's rows on the table
loss, _ = rkl_loss_with_grad(rows, targets)
print(f"clip rkl after training: {loss:.4f}")

# Predicted names vs the withheld truth sidecar.
assigned = model.name_assignments(clip)
for fid in sorted(clip.truth)[:8]:
    hit = "ok " if assigned.get(fid) == clip.truth[fid] else "MISS"
    print(f"  face {fid}: predicted {assigned.get(fid, '-'):>8}  "
          f"truth {clip.truth[fid]:>8}  {hit}")

correct, total = face_accuracy(assigned, clip.truth, cast)
print(f"\nclip face accuracy {correct}/{total}; corpus-level {report.face_acc:.3f} "
      f"after {config.epochs} epochs (no face label ever seen)")
