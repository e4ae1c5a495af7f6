"""Per-frame visual semantics: face-to-human matching, character name
injection into relation triples, name-augmented object runs, and
`visual_stream`, the one builder that lays these out as aligned (tokens,
name_flags) lists for a model variant.

Matching normalizes overlap by face area rather than IoU: faces are small
relative to person boxes, so IoU would be near zero even for a correct
containment. The argmax under any monotone normalization is what matters.
"""

from __future__ import annotations

from .corpus import DEFAULT_HUMAN_WORDS, BBox, FaceDetection, Frame, RelationTriple


def overlap_score(face: BBox, human: BBox) -> float:
    """area(face ∩ human) / area(face), in [0, 1]."""
    return face.intersection_area(human) / face.area


def match_faces_to_humans(faces: list[FaceDetection], human_boxes: list[BBox]) -> list[int | None]:
    """Per human box, the face_id with maximal overlap score; None where no
    face overlaps it.

    Ties go to the lowest face_id (faces are scanned in face_id order and
    only a strictly better score displaces the incumbent).
    """
    ordered = sorted(faces, key=lambda f: f.face_id)
    matches = []
    for hb in human_boxes:
        best = None
        best_score = 0.0
        for fc in ordered:
            s = overlap_score(fc.box, hb)
            if s > best_score:
                best_score = s
                best = fc.face_id
        matches.append(best)
    return matches


def replace_names(frame: Frame, face_names: dict[int, str]) -> list[RelationTriple]:
    """The frame's triples with human-referring endpoints rewritten to
    character names.

    An endpoint changes only when its token is in DEFAULT_HUMAN_WORDS, its
    box resolves to a face, and that face has a name in face_names. A box
    resolves through the human box equal to it, wherever that box is in the
    frame's list; otherwise through the human box with the largest positive
    intersection, ties to the lowest index. That box's face is the one
    match_faces_to_humans gives it. An unchanged triple is returned as the
    same object, so the operation is idempotent once no human words remain.
    """
    boxes = [b for b, _ in frame.human_boxes]
    matches = match_faces_to_humans(frame.faces, boxes)

    def resolve(token: str, box: BBox | None) -> str:
        if token not in DEFAULT_HUMAN_WORDS or box is None:
            return token
        face_id = None
        best_area = 0.0
        for hb, match in zip(boxes, matches):
            if hb == box:
                face_id = match
                break
            a = hb.intersection_area(box)
            if a > best_area:
                best_area = a
                face_id = match
        return token if face_id is None else face_names.get(face_id, token)

    out = []
    for t in frame.triples:
        s = resolve(t.subject, t.subject_box)
        o = resolve(t.object, t.object_box)
        if s == t.subject and o == t.object:
            out.append(t)
        else:
            out.append(RelationTriple(s, t.predicate, o, t.subject_box, t.object_box))
    return out


def frame_names(frame: Frame, face_names: dict[int, str]) -> list[str]:
    """Names detected in the frame, face_id order, first occurrence kept."""
    seen = []
    for fc in sorted(frame.faces, key=lambda f: f.face_id):
        name = face_names.get(fc.face_id)
        if name is not None and name not in seen:
            seen.append(name)
    return seen


def augment_objects_with_names(objects, names: list[str]) -> list[tuple[str, bool]]:
    """The (token, is_name) object run: each object is its optional
    attribute token then its label token.

    With names, each (object, name) pair of their cross product emits the
    object's tokens immediately followed by the name token; with no names
    the objects pass through unchanged.
    """
    toks = []
    for label, attr in objects:
        obj = [(label, False)] if attr is None else [(attr, False), (label, False)]
        if not names:
            toks.extend(obj)
        for name in names:
            toks.extend(obj)
            toks.append((name, True))
    return toks


def visual_stream(frames: list[Frame], modality, face_names: dict[int, str],
                  cast) -> tuple[list[str], list[bool]]:
    """The (tokens, name_flags) stream of the frames' visual runs that the
    variant `modality` (a carn.ModalityConfig) enables.

    The full objects run precedes the full relations run, triples as S P O
    token runs with their boxes discarded; within each run, frames go in
    temporal order and triples in detection order. face_names holds the
    current (predicted or oracle) face labels; a relation token counts as a
    name when it is a member of the cast list.
    """
    ordered = sorted(frames, key=lambda f: f.frame_id)
    toks: list[str] = []
    flags: list[bool] = []
    if modality.use_objs:
        for frame in ordered:
            names = frame_names(frame, face_names) if modality.objs_names else []
            run = augment_objects_with_names(frame.objects, names)
            toks.extend(t for t, _ in run)
            flags.extend(f for _, f in run)
    if modality.use_rels:
        for frame in ordered:
            triples = replace_names(frame, face_names) if modality.rels_names else frame.triples
            for t in triples:
                toks.extend(t.tokens)
                flags.extend(tok in cast for tok in t.tokens)
    return toks, flags


__all__ = [
    "overlap_score", "match_faces_to_humans", "replace_names", "frame_names",
    "augment_objects_with_names", "visual_stream",
]
