"""Clip data model, synthetic corpus generator, and JSON Lines persistence.

A clip bundles per-frame detections (faces with embeddings, human boxes,
objects, relation triples), subtitle lines, and multiple-choice QA items.
The generator produces clips with a known face->character truth sidecar so
that weak-supervision experiments can be scored exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, CorpusParseError, SchemaVersionError

SCHEMA_VERSION = "carn-corpus-1"

DEFAULT_HUMAN_WORDS = ("man", "woman", "person", "boy", "girl", "guy", "lady", "people")

# Small on purpose: with few distinct objects the candidate sets of different
# visual questions collide, so answer-set lookup cannot beat reading the scene.
DEFAULT_OBJECT_VOCAB = (
    "bottle", "flower", "book", "glass", "plate",
    "phone", "mug", "pen", "bag", "box",
)

DEFAULT_PREDICATE_VOCAB = ("hold", "carry", "lift")

DEFAULT_SPATIAL_PREDICATES = ("on", "under", "near", "beside")

DEFAULT_ATTRIBUTE_VOCAB = ("red", "blue", "green", "small", "big", "old")

# Sized to frames_per_clip on purpose: every clip says the same few words in
# a different order, so dialogue carries no per-clip fingerprint a
# subtitles-only model could memorize visual answers from.
DEFAULT_DIALOGUE_VOCAB = ("okay", "really", "listen", "tomorrow", "party", "meeting")

PRINCIPAL_NAME_POOL = (
    "Ada", "Ben", "Cleo", "Dev", "Esme", "Finn", "Gia", "Hugo",
    "Iris", "Jude", "Kira", "Liam", "Mona", "Nils", "Opal", "Pax",
)

# Name-shaped fillers for QA distractors when the cast is tiny.
FILLER_NAME_POOL = ("Quinn", "Rory", "Sage", "Tess", "Uma", "Vik")

FPS = 1.0  # frame i is shown at time i / FPS
BYSTANDER_RATE = 0.5  # chance of one or two principals in frame beside the speaker
EXTRA_FACE_RATE = 0.08  # chance of an extra's face in a frame
SPEAKER_UNK_RATE = 0.01  # chance that an extra speaks a line
OBJ_SUPPORT_FRAC = 0.5  # chance that an actor's handled object is also detected
OBJECT_NOISE_RATE = 0.25  # chance that a plain detection comes from the relation pool
ATTRIBUTE_RATE = 0.7  # chance that a plain detection carries an attribute


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, x0 < x1 and y0 < y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        vals = (self.x0, self.y0, self.x1, self.y1)
        # Comparisons, not math.isfinite, which raises OverflowError for an
        # integer too large for a float; they also refuse NaN.
        if not all(0 <= v <= sys.float_info.max for v in vals):
            raise ValueError(f"box coordinates must be finite and >= 0, got {vals}")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"box has no positive area {vals}")

    @property
    def area(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def intersection_area(self, other: "BBox") -> float:
        w = min(self.x1, other.x1) - max(self.x0, other.x0)
        h = min(self.y1, other.y1) - max(self.y0, other.y0)
        if w <= 0 or h <= 0:
            return 0.0
        return w * h


@dataclass(eq=False)
class FaceDetection:
    face_id: int
    frame_id: int
    box: BBox
    embedding: np.ndarray  # unit-norm, shape (d_f,)

    def __eq__(self, other):
        if not isinstance(other, FaceDetection):
            return NotImplemented
        return (
            self.face_id == other.face_id
            and self.frame_id == other.frame_id
            and self.box == other.box
            and np.array_equal(self.embedding, other.embedding)
        )


@dataclass(frozen=True)
class RelationTriple:
    subject: str
    predicate: str
    object: str
    subject_box: BBox | None = None
    object_box: BBox | None = None

    def __post_init__(self):
        if not (self.subject and self.predicate and self.object):
            raise ValueError("triple tokens must be non-empty")

    @property
    def tokens(self):
        return (self.subject, self.predicate, self.object)


@dataclass
class Frame:
    frame_id: int
    time: float
    faces: list[FaceDetection] = field(default_factory=list)
    human_boxes: list[tuple[BBox, str]] = field(default_factory=list)
    objects: list[tuple[str, str | None]] = field(default_factory=list)
    triples: list[RelationTriple] = field(default_factory=list)


@dataclass
class SubtitleLine:
    speaker: str
    tokens: list[str]
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise ValueError(f"subtitle interval reversed ({self.t_start}, {self.t_end})")
        if not self.speaker:
            raise ValueError("speaker must be non-empty")


@dataclass
class QAItem:
    question: list[str]
    answers: list[list[str]]  # exactly 5 candidates
    correct_index: int
    ts_interval: tuple[float, float]
    qtype: str = "textual"  # "visual" | "textual"

    def __post_init__(self):
        if len(self.answers) != 5:
            raise ValueError(f"expected 5 answers, got {len(self.answers)}")
        if not 0 <= self.correct_index < 5:
            raise ValueError(f"correct_index {self.correct_index} out of range")
        if self.ts_interval[0] > self.ts_interval[1]:
            raise ValueError(f"ts_interval reversed {self.ts_interval}")
        if self.qtype not in ("visual", "textual"):
            raise ValueError(f"qtype must be 'visual' or 'textual', got {self.qtype!r}")


@dataclass
class Clip:
    clip_id: str
    frames: list[Frame]
    subtitles: list[SubtitleLine]
    qas: list[QAItem]
    truth: dict[int, str] | None = None  # face_id -> character name, eval only

    def duration(self) -> float:
        t = 0.0
        if self.frames:
            t = max(t, max(f.time for f in self.frames))
        if self.subtitles:
            t = max(t, max(s.t_end for s in self.subtitles))
        return t

    def all_faces(self):
        for f in self.frames:
            yield from f.faces


@dataclass(frozen=True)
class GenConfig:
    """The generator settings that `charqa gen` exposes as flags; the rest
    of the generator's shape is fixed by the module constants above."""

    k_principals: int = 4
    n_extras: int = 2
    n_clips: int = 20
    frames_per_clip: int = 6
    d_f: int = 256
    noise_sigma: float = 0.1
    cooccur_rho: float = 0.9
    seed: int = 0
    # Two visual and two speaker questions per clip, in this order.
    qa_templates: ClassVar[tuple[str, ...]] = ("visual", "visual", "textual_who", "textual_who")

    def __post_init__(self):
        for name, low in (("k_principals", 1), ("n_extras", 0), ("n_clips", 1),
                          ("frames_per_clip", 1), ("d_f", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        # Two clip actors split the frames into one scene block each.
        if self.frames_per_clip < min(2, self.k_principals):
            raise ConfigError("frames_per_clip must be >= 2 when k_principals >= 2, "
                              "one scene per clip actor")
        # Each frame speaks a distinct dialogue word.
        if self.frames_per_clip > len(DEFAULT_DIALOGUE_VOCAB):
            raise ConfigError(f"frames_per_clip must be <= {len(DEFAULT_DIALOGUE_VOCAB)}, "
                              "the size of the dialogue vocabulary")
        # math.isfinite would raise OverflowError for an integer too large for a float.
        if not 0 <= self.noise_sigma <= sys.float_info.max:
            raise ConfigError("noise_sigma must be a finite value >= 0")
        if not 0.0 <= self.cooccur_rho <= 1.0:
            raise ConfigError("cooccur_rho must lie in [0, 1]")

    def principal_names(self):
        pool = list(PRINCIPAL_NAME_POOL)
        while len(pool) < self.k_principals:
            pool.append(f"Char{len(pool) + 1}")
        return pool[: self.k_principals]

    def extra_names(self):
        return [f"Guest{i + 1}" for i in range(self.n_extras)]


# ---------------------------------------------------------------------------
# Generation


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        v = np.ones_like(v)
        n = np.linalg.norm(v)
    return v / n


def _sample_face_embedding(rng, proto, sigma):
    return _unit(proto + sigma * rng.standard_normal(proto.shape))


# Frame canvas and face slot geometry: four disjoint slots so that human
# boxes drawn around a face never swallow a neighbour's face.
_CANVAS_W, _CANVAS_H = 640.0, 360.0
_SLOT_W = _CANVAS_W / 4.0


def _face_box(rng, slot):
    side = rng.uniform(40.0, 56.0)
    x0 = slot * _SLOT_W + rng.uniform(4.0, _SLOT_W - side - 4.0)
    y0 = rng.uniform(60.0, 160.0)
    return BBox(x0, y0, x0 + side, y0 + side)


def _human_box(rng, face: BBox):
    # Person box containing the face, clipped to the slot margins.
    x0 = max(0.0, face.x0 - rng.uniform(8.0, 18.0))
    x1 = min(_CANVAS_W, face.x1 + rng.uniform(8.0, 18.0))
    y0 = max(0.0, face.y0 - rng.uniform(4.0, 10.0))
    y1 = min(_CANVAS_H, face.y1 + rng.uniform(90.0, 150.0))
    return BBox(x0, y0, x1, y1)


def _object_box(rng):
    w = rng.uniform(20.0, 60.0)
    h = rng.uniform(20.0, 60.0)
    x0 = rng.uniform(0.0, _CANVAS_W - w)
    y0 = rng.uniform(0.0, _CANVAS_H - h)
    return BBox(x0, y0, x0 + w, y0 + h)


def _gen_clip(cfg: GenConfig, clip_idx: int, protos: dict[str, np.ndarray]) -> Clip:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, clip_idx)))
    principals = cfg.principal_names()
    extras = cfg.extra_names()
    n_frames = cfg.frames_per_clip
    dt = 1.0 / FPS

    # Two clip actors carry the interaction event; with k=1 there is one.
    n_actors = min(2, len(principals))
    actors = [str(a) for a in rng.choice(principals, size=n_actors, replace=False)]
    event_pred = str(rng.choice(DEFAULT_PREDICATE_VOCAB))
    actor_objects = {
        a: str(o)
        for a, o in zip(actors, rng.choice(DEFAULT_OBJECT_VOCAB, size=n_actors, replace=False))
    }
    obj_supported = {a: bool(rng.random() < OBJ_SUPPORT_FRAC) for a in actors}

    # One single-topic subtitle line per frame; actors split the timeline in
    # blocks.  One token per line keeps the window of any question down to a
    # handful of heavily reused words, so dialogue alone cannot fingerprint
    # a clip.
    topics = [str(t) for t in rng.choice(DEFAULT_DIALOGUE_VOCAB, size=n_frames, replace=False)]
    scene = [actors[0] if i < (n_frames + 1) // 2 else actors[-1] for i in range(n_frames)]
    speakers = []
    for i in range(n_frames):
        s = scene[i]
        r = rng.random()
        if extras and r < SPEAKER_UNK_RATE:
            s = str(rng.choice(extras))
        elif r < SPEAKER_UNK_RATE + 0.15 and len(principals) > n_actors:
            s = str(rng.choice([p for p in principals if p not in actors]))
        speakers.append(s)

    subtitles = []
    for i, (s, topic) in enumerate(zip(speakers, topics)):
        subtitles.append(SubtitleLine(s, [topic], i * dt, (i + 0.9) * dt))

    # Face presence per frame: the speaker with probability rho, up to two
    # bystander principals, at most one extra.  Slots keep boxes disjoint.
    face_plan = []  # per frame: list of names
    for i in range(n_frames):
        present = []
        if speakers[i] in principals and rng.random() < cfg.cooccur_rho:
            present.append(speakers[i])
        others = [p for p in principals if p not in present]
        n_by = int(rng.choice([0, 1, 2], p=[1 - BYSTANDER_RATE, BYSTANDER_RATE * 0.7, BYSTANDER_RATE * 0.3]))
        n_by = min(n_by, len(others), 3 - len(present))
        if n_by > 0:
            present.extend(str(x) for x in rng.choice(others, size=n_by, replace=False))
        if extras and len(present) < 4 and rng.random() < EXTRA_FACE_RATE:
            present.append(str(rng.choice(extras)))
        face_plan.append(present)

    # Guarantee each actor's face shows up inside their own scene block
    # (preferably while speaking), otherwise the clip would hold no event
    # triple for them and their visual question would have no evidence.
    for a in actors:
        block = [i for i in range(n_frames) if scene[i] == a]
        if any(a in face_plan[i] for i in block):
            continue
        speaking = [i for i in block if speakers[i] == a]
        i = int(rng.choice(speaking if speaking else block))
        if len(face_plan[i]) >= 4:
            face_plan[i] = face_plan[i][:3]
        face_plan[i].append(a)

    # Background vocab is split per clip: plain_pool feeds the plain object
    # detections, rel_pool feeds non-event triples (and the occasional
    # detector confusion controlled by OBJECT_NOISE_RATE).  Distractors are
    # drawn from the rel side, so the plain-object stream correlates with
    # the answer without pinning it down.
    reserved = set(actor_objects.values())
    bg_objects = [o for o in DEFAULT_OBJECT_VOCAB if o not in reserved]
    bg_perm = [bg_objects[i] for i in rng.permutation(len(bg_objects))]
    plain_pool = bg_perm[: len(bg_perm) // 2]
    rel_pool = bg_perm[len(bg_perm) // 2 :]

    frames = []
    next_face_id = 0
    truth: dict[int, str] = {}
    actor_triple_frames: dict[str, list[int]] = {a: [] for a in actors}
    for i in range(n_frames):
        slots = list(rng.permutation(4))
        faces = []
        name_by_face = {}
        for name in face_plan[i]:
            box = _face_box(rng, int(slots.pop()))
            emb = _sample_face_embedding(rng, protos[name], cfg.noise_sigma)
            fd = FaceDetection(next_face_id, i, box, emb)
            faces.append(fd)
            truth[next_face_id] = name
            name_by_face[next_face_id] = name
            next_face_id += 1

        human_boxes = []
        triples = []
        objects = []
        for fd in faces:
            name = name_by_face[fd.face_id]
            if name in actors and scene[i] == name:
                # The interaction is detected during the actor's own scene;
                # a bystander glimpse in the other half does not drag their
                # handled object into frame.
                hb = _human_box(rng, fd.box)
                human_boxes.append((hb, str(rng.choice(DEFAULT_HUMAN_WORDS))))
                obj = actor_objects[name]
                triples.append(RelationTriple(human_boxes[-1][1], event_pred, obj,
                                              subject_box=hb, object_box=_object_box(rng)))
                actor_triple_frames[name].append(i)
                # The detector co-fires on the handled object at most once
                # per clip; repeated detections would hand the Objs-only
                # variant a frequency cue the relation stream is meant to own.
                if obj_supported[name]:
                    objects.append((obj, None))
                    obj_supported[name] = False
            elif name in principals and rng.random() < 0.15:
                hb = _human_box(rng, fd.box)
                human_boxes.append((hb, str(rng.choice(DEFAULT_HUMAN_WORDS))))
                triples.append(RelationTriple(human_boxes[-1][1], str(rng.choice(DEFAULT_SPATIAL_PREDICATES)),
                                              str(rng.choice(rel_pool)), subject_box=hb))

        # Background scene: plain object detections plus object-object
        # spatial triples.  A detector confusion (OBJECT_NOISE_RATE) draws
        # the detection from the relation pool instead, so plain-detection
        # presence alone cannot cleanly separate candidates.
        for _ in range(int(rng.integers(1, 3))):
            pool = rel_pool if rng.random() < OBJECT_NOISE_RATE else plain_pool
            label = str(rng.choice(pool))
            attr = str(rng.choice(DEFAULT_ATTRIBUTE_VOCAB)) if rng.random() < ATTRIBUTE_RATE else None
            objects.append((label, attr))
        if rng.random() < 0.15:
            a_o, b_o = rng.choice(rel_pool, size=2, replace=False)
            triples.append(RelationTriple(str(a_o), str(rng.choice(DEFAULT_SPATIAL_PREDICATES)), str(b_o)))

        frames.append(Frame(i, i * dt, faces, human_boxes, objects, triples))

    # Visual distractors come from other (non-event) triples in the clip;
    # pad with extra background triples until four distinct ones exist.
    rel_set = set(rel_pool)
    vis_pool = sorted({t.object for f in frames for t in f.triples} & rel_set)
    unused = [o for o in rel_pool if o not in vis_pool]
    while len(vis_pool) < 4:
        o = unused.pop(0)
        f = frames[int(rng.integers(0, n_frames))]
        f.triples.append(RelationTriple(str(rng.choice(plain_pool)),
                                        str(rng.choice(DEFAULT_SPATIAL_PREDICATES)), o))
        vis_pool = sorted(set(vis_pool) | {o})

    duration = (n_frames - 1) * dt + 0.9 * dt
    all_names = principals + extras + list(FILLER_NAME_POOL)
    textual_lines = [i for i, s in enumerate(speakers) if s in principals] or [0]
    rng.shuffle(textual_lines)

    def _five(correct_tokens, distractor_tokens):
        answers = [correct_tokens] + [[d] for d in distractor_tokens]
        order = rng.permutation(5)
        correct_index = int(np.argwhere(order == 0)[0, 0])
        return [answers[j] for j in order], correct_index

    qas = []
    vis_i = tex_i = 0
    for tmpl in cfg.qa_templates:
        if tmpl == "visual":
            actor = actors[vis_i % len(actors)]
            vis_i += 1
            distractors = [str(x) for x in rng.choice(vis_pool, size=4, replace=False)]
            answers, correct_index = _five([actor_objects[actor]], distractors)
            span = actor_triple_frames[actor]
            t0 = max(0.0, min(span) * dt - 0.5 * dt)
            t1 = min(duration, (max(span) + 0.95) * dt)
            qas.append(QAItem(["what", "does", actor, event_pred], answers, correct_index,
                              (t0, t1), qtype="visual"))
        else:  # textual_who
            line_i = textual_lines[tex_i % len(textual_lines)]
            tex_i += 1
            line = subtitles[line_i]
            distractors = [str(x) for x in rng.choice([n for n in all_names if n != line.speaker],
                                                      size=4, replace=False)]
            answers, correct_index = _five([line.speaker], distractors)
            t0 = max(0.0, line.t_start - 0.5 * dt)
            t1 = min(duration, line.t_end + 0.5 * dt)
            qas.append(QAItem(["who", "says", topics[line_i]], answers, correct_index,
                              (t0, t1), qtype="textual"))

    return Clip(f"clip{clip_idx:05d}", frames, subtitles, qas, truth)


def generate_corpus(cfg: GenConfig) -> list[Clip]:
    """Generate a deterministic synthetic corpus from the config (seed included).

    Each character owns a latent unit-norm prototype; every face observation is
    normalize(prototype + noise_sigma * gaussian).  A speaking character's face
    appears in temporally overlapping frames with probability cooccur_rho.
    """
    proto_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    protos = {}
    for name in cfg.principal_names() + cfg.extra_names():
        protos[name] = _unit(proto_rng.standard_normal(cfg.d_f))
    return [_gen_clip(cfg, i, protos) for i in range(cfg.n_clips)]


# ---------------------------------------------------------------------------
# Serialization (JSON Lines, one clip per line)


def _box_to_list(b: BBox | None):
    return None if b is None else [b.x0, b.y0, b.x1, b.y1]


# Field types of a parsed record. JSON gives exact Python types, so a type
# test excludes bool from the numbers, and a string is never taken for a
# list (it would iterate as one-letter tokens).
_NUMBER = (int, float)
_TYPE_NAMES = {int: "an integer", _NUMBER: "a number", str: "a string", list: "a list",
               (str, type(None)): "a string or null", (dict, type(None)): "an object or null"}


def _shown(v) -> str:
    text = json.dumps(v)
    return text if len(text) <= 40 else text[:37] + "..."


def _of(v, kind, what: str):
    """v if its type is kind (a type or a tuple of types); TypeError naming
    the field otherwise."""
    if type(v) not in (kind if type(kind) is tuple else (kind,)):
        raise TypeError(f"{what} must be {_TYPE_NAMES[kind]}, got {_shown(v)}")
    return v


def _token(v, what: str, kind=str):
    """_of(v, kind, what), refusing the empty string: an empty token has no
    embedding."""
    if _of(v, kind, what) == "":
        raise ValueError(f"{what} must not be empty")
    return v


def _strings(v, what: str) -> list[str]:
    if type(v) is list:
        try:
            "".join(v)  # the type check of every item, at C speed
        except TypeError:
            pass
        else:
            if "" in v:
                raise ValueError(f"{what} must not hold an empty token, got {_shown(v)}")
            return v
    raise TypeError(f"{what} must be a list of strings, got {_shown(v)}")


def _box_from_list(v, what: str) -> BBox:
    return BBox(*_of(v, list, what))


def _embedding(v) -> np.ndarray:
    e = np.asarray(_of(v, list, "face embedding"))
    if e.ndim != 1 or e.dtype.kind not in "if":
        raise TypeError(f"face embedding must be a flat list of numbers, got {_shown(v)}")
    return e.astype(np.float64, copy=False)


def clip_to_dict(clip: Clip) -> dict:
    """The clip's JSON record; it shares no list with the clip."""
    return {
        "schema_version": SCHEMA_VERSION,
        "clip_id": clip.clip_id,
        "frames": [
            {
                "frame_id": f.frame_id,
                "time": f.time,
                "faces": [
                    {
                        "face_id": fc.face_id,
                        "frame_id": fc.frame_id,
                        "box": _box_to_list(fc.box),
                        "embedding": [float(x) for x in fc.embedding],
                    }
                    for fc in f.faces
                ],
                "human_boxes": [{"box": _box_to_list(b), "word": w} for b, w in f.human_boxes],
                "objects": [{"label": label, "attribute": attr} for label, attr in f.objects],
                "triples": [
                    {
                        "subject": t.subject,
                        "predicate": t.predicate,
                        "object": t.object,
                        "subject_box": _box_to_list(t.subject_box),
                        "object_box": _box_to_list(t.object_box),
                    }
                    for t in f.triples
                ],
            }
            for f in clip.frames
        ],
        "subtitles": [
            {"speaker": s.speaker, "tokens": list(s.tokens), "t_start": s.t_start,
             "t_end": s.t_end}
            for s in clip.subtitles
        ],
        "qas": [
            {
                "question": list(q.question),
                "answers": [list(a) for a in q.answers],
                "correct_index": q.correct_index,
                "ts_interval": [q.ts_interval[0], q.ts_interval[1]],
                "qtype": q.qtype,
            }
            for q in clip.qas
        ],
        "truth": None if clip.truth is None else {str(k): v for k, v in clip.truth.items()},
    }


def _ts_interval(v) -> tuple[float, float]:
    if type(v) is not list or len(v) != 2 or not all(type(t) in _NUMBER for t in v):
        raise TypeError(f"ts_interval must be a pair of numbers, got {_shown(v)}")
    return v[0], v[1]


def clip_from_dict(d: dict) -> Clip:
    """The clip of a parsed corpus record, each field checked for its JSON
    type and each token for being non-empty as it is read; KeyError,
    TypeError or ValueError on the first bad field. validate_clip checks
    what relates fields to each other."""
    frames = [
        Frame(
            _of(f["frame_id"], int, "frame_id"),
            _of(f["time"], _NUMBER, "frame time"),
            [
                FaceDetection(_of(fc["face_id"], int, "face_id"),
                              _of(fc["frame_id"], int, "face frame_id"),
                              _box_from_list(fc["box"], "face box"),
                              _embedding(fc["embedding"]))
                for fc in _of(f["faces"], list, "faces")
            ],
            [(_box_from_list(h["box"], "human box"), _token(h["word"], "human word"))
             for h in _of(f["human_boxes"], list, "human_boxes")],
            [(_token(o["label"], "object label"),
              _token(o["attribute"], "object attribute", (str, type(None))))
             for o in _of(f["objects"], list, "objects")],
            [
                RelationTriple(*_strings([t["subject"], t["predicate"], t["object"]],
                                         "triple tokens"),
                               *(None if t[k] is None else _box_from_list(t[k], k)
                                 for k in ("subject_box", "object_box")))
                for t in _of(f["triples"], list, "triples")
            ],
        )
        for f in _of(d["frames"], list, "frames")
    ]
    subtitles = [SubtitleLine(_of(s["speaker"], str, "speaker"),
                              _strings(s["tokens"], "subtitle tokens"),
                              _of(s["t_start"], _NUMBER, "t_start"),
                              _of(s["t_end"], _NUMBER, "t_end"))
                 for s in _of(d["subtitles"], list, "subtitles")]
    qas = [
        QAItem(_strings(q["question"], "question"),
               [_strings(a, "answer") for a in _of(q["answers"], list, "answers")],
               _of(q["correct_index"], int, "correct_index"),
               _ts_interval(q["ts_interval"]), _of(q.get("qtype", "textual"), str, "qtype"))
        for q in _of(d["qas"], list, "qas")
    ]
    truth = _of(d["truth"], (dict, type(None)), "truth")
    if truth is not None:
        truth = {int(k): _of(v, str, "truth name") for k, v in truth.items()}
    return Clip(_of(d["clip_id"], str, "clip_id"), frames, subtitles, qas, truth)


def write_corpus(clips: list[Clip], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for clip in clips:
            fh.write(json.dumps(clip_to_dict(clip), separators=(",", ":")))
            fh.write("\n")


def read_corpus(path) -> list[Clip]:
    clips = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as e:
                raise CorpusParseError(line_no, f"not UTF-8 ({e})") from e
            except json.JSONDecodeError as e:
                raise CorpusParseError(line_no, f"invalid JSON ({e.msg})") from e
            if not isinstance(d, dict) or "schema_version" not in d:
                raise CorpusParseError(line_no, "missing schema_version")
            if d["schema_version"] != SCHEMA_VERSION:
                raise SchemaVersionError(
                    f"line {line_no}: unsupported schema_version {d['schema_version']!r}"
                    f" (expected {SCHEMA_VERSION!r})"
                )
            try:
                clip = clip_from_dict(d)
                validate_clip(clip)
            except (KeyError, IndexError, AttributeError, TypeError, ValueError) as e:
                raise CorpusParseError(line_no, f"bad clip record: {e}") from e
            clips.append(clip)
    return clips


# ---------------------------------------------------------------------------
# Per-question views


def clip_view(clip: Clip, qa: QAItem, use_ts: bool) -> tuple[Clip, bool]:
    """Restrict a clip to the QA item's time-stamp interval.

    With use_ts the view keeps only frames whose time lies inside the interval
    and subtitle lines whose span intersects it; without, the clip is returned
    unchanged.  Returns (view, warned) where warned flags a time-stamped view
    that came back with no frames and no subtitles.
    """
    if not use_ts:
        return clip, False
    t0, t1 = qa.ts_interval
    frames = [f for f in clip.frames if t0 <= f.time <= t1]
    subs = [s for s in clip.subtitles if s.t_start <= t1 and s.t_end >= t0]
    warned = not frames and not subs
    view = Clip(clip.clip_id, frames, subs, [qa], clip.truth)
    return view, warned


def validate_clip(clip: Clip) -> None:
    """Check cross-field invariants the dataclasses cannot see locally."""
    ids = [f.frame_id for f in clip.frames]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ValueError(f"{clip.clip_id}: frame_ids not strictly increasing")
    face_ids = [fc.face_id for fc in clip.all_faces()]
    if len(set(face_ids)) != len(face_ids):
        raise ValueError(f"{clip.clip_id}: duplicate face_ids")
    for f in clip.frames:
        for fc in f.faces:
            if fc.frame_id != f.frame_id:
                raise ValueError(f"{clip.clip_id}: face {fc.face_id} frame_id mismatch")
            n = np.linalg.norm(fc.embedding)
            if not abs(n - 1.0) <= 1e-6:  # NaN fails too
                raise ValueError(f"{clip.clip_id}: face {fc.face_id} embedding norm {n}")
    if clip.truth is not None:
        if set(clip.truth) != set(face_ids):
            raise ValueError(f"{clip.clip_id}: truth keys do not cover faces exactly")
    dur = clip.duration()
    for q in clip.qas:
        if not (0.0 <= q.ts_interval[0] and q.ts_interval[1] <= dur + 1e-9):
            raise ValueError(f"{clip.clip_id}: ts_interval {q.ts_interval} outside duration {dur}")


__all__ = [
    "SCHEMA_VERSION", "BBox", "FaceDetection", "RelationTriple", "Frame",
    "SubtitleLine", "QAItem", "Clip", "GenConfig", "generate_corpus",
    "write_corpus", "read_corpus", "clip_to_dict", "clip_from_dict",
    "clip_view", "validate_clip",
    "DEFAULT_HUMAN_WORDS",
]
