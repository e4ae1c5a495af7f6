"""
Joint training and the modality ablation grid
=============================================

One loss trains everything: cross-entropy on the 5-way answer plus a
weighted naming term. Ablations then toggle the input streams (subtitles
only, + objects, + relations, each with or without injected names) to show
where the answers actually come from.
"""

import tempfile
from pathlib import Path

from charqa.carn import Model, ModelConfig
from charqa.corpus import GenConfig, generate_corpus
from charqa.harness import (TrainConfig, ablate, evaluate, format_report,
                            metrics_csv_text, train)

corpus = generate_corpus(GenConfig(k_principals=3, n_extras=1, n_clips=30,
                                   d_f=16, seed=2))
config = TrainConfig(epochs=6, batch_size=8,
                     model=ModelConfig(d_model=16, d_ff=24, d_h1=8,
                                       heads=2, d_f=16))

model, report = train(corpus, config)
print(f"variant {report.variant!r}, per-epoch loss "
      f"{[round(x, 2) for x in report.losses]}")
print(f"qa_acc={report.qa_acc:.3f} (visual {report.qa_acc_visual:.3f}, "
      f"textual {report.qa_acc_textual:.3f}), face_acc={report.face_acc:.3f}")

# Checkpoints round-trip through .npz with the model's variant and training
# seed; evaluation reads both from the model and is read-only.
with tempfile.TemporaryDirectory() as tmp:
    model.save(Path(tmp) / "demo_model.npz")
    loaded = Model.load(Path(tmp) / "demo_model.npz")
print(f"checkpoint variant {loaded.modality.label()!r}, seed {loaded.seed}")
again = evaluate(loaded, corpus, use_ts=True)
print(f"reloaded checkpoint reproduces the row: {again.row() == report.row()}")

# The w/-ts protocol windows each item to its evidence interval; w/o ts
# the model reads the whole clip.
wo = evaluate(loaded, corpus, use_ts=False)
print(f"w/ ts {report.qa_acc:.3f} vs w/o ts {wo.qa_acc:.3f}")

# A 3-variant slice of the 9-variant grid (each trains its own model, so
# this stays small on purpose). At 30 clips every variant can fit the
# training items outright, so the columns mostly measure memorization;
# the stream separation only shows at a couple hundred clips, where the
# subtitles-only variant stays near chance on visual questions.
labels = ("Sub", "Sub + Objs", "Sub + Objs_nm + Rels_nm")
reports = ablate(corpus, config, variants=labels)
print()
print(format_report(reports))
print()
print(metrics_csv_text(reports[:2]), end="")
