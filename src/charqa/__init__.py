"""Character-aware video-story question answering on synthetic corpora.

Weakly supervised face naming from subtitle speaker broadcasts, character
name injection into scene-graph relations, and a co-attention transformer
over subtitle/object/relation streams, trained jointly on a multi-task
objective. Includes a synthetic clip generator with exact ground truth, an
ablation harness, and finite-difference gradient verification.
"""

from .carn import (VARIANT_LABELS, ModalityConfig, Model, ModelConfig, Vocab, build_vocab,
                   joint_loss)
from .castlist import (UNKNAME, CastList, build_cast_list, count_speakers, map_speaker,
                       scaled_min_count)
from .corpus import (BBox, Clip, FaceDetection, Frame, GenConfig, QAItem, RelationTriple,
                     SubtitleLine, clip_view, generate_corpus, read_corpus, write_corpus)
from .errors import CharqaError
from .naming import (assign_names, broadcast_targets, face_accuracy, naming_forward,
                     rkl_loss_with_grad)
from .semantics import augment_objects_with_names, match_faces_to_humans, replace_names

__version__ = "0.1.0"

__all__ = [
    "BBox", "CastList", "CharqaError", "Clip", "FaceDetection",
    "Frame", "GenConfig",
    "ModalityConfig", "Model", "ModelConfig", "QAItem", "RelationTriple",
    "SubtitleLine", "UNKNAME",
    "VARIANT_LABELS", "Vocab", "assign_names", "augment_objects_with_names",
    "broadcast_targets", "build_cast_list", "build_vocab", "clip_view",
    "count_speakers", "face_accuracy", "generate_corpus",
    "joint_loss", "map_speaker", "match_faces_to_humans", "naming_forward",
    "read_corpus", "replace_names", "rkl_loss_with_grad", "scaled_min_count",
    "write_corpus", "__version__",
]
