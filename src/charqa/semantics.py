"""Per-frame visual semantics: face-to-human matching, character name
injection into relation triples, name-augmented object streams, and the
visual stream builder that lays these out as aligned (tokens, name_flags)
lists.

Matching normalizes overlap by face area rather than IoU: faces are small
relative to person boxes, so IoU would be near zero even for a correct
containment. The argmax under any monotone normalization is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import DEFAULT_HUMAN_WORDS, BBox, FaceDetection, Frame, RelationTriple

UNMATCHED = None


@dataclass(frozen=True)
class FaceHumanAssignment:
    """For each human box (by index) the face_id it matched, or UNMATCHED."""

    human_boxes: tuple[BBox, ...]
    matches: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.human_boxes) != len(self.matches):
            raise ValueError("matches must align with human_boxes")

    def face_for_box(self, box: BBox) -> int | None:
        """Resolve a triple endpoint box to its matched face.

        Exact coordinate equality wins; otherwise the human box with the
        largest positive intersection (ties to the lowest index).
        """
        best = UNMATCHED
        best_area = 0.0
        for hb, face_id in zip(self.human_boxes, self.matches):
            if hb == box:
                return face_id
            a = hb.intersection_area(box)
            if a > best_area:
                best_area = a
                best = face_id
        return best


def overlap_score(face: BBox, human: BBox) -> float:
    """area(face ∩ human) / area(face), in [0, 1]."""
    return face.intersection_area(human) / face.area


def match_faces_to_humans(faces: list[FaceDetection], human_boxes: list[BBox]) -> FaceHumanAssignment:
    """Per human box, the face with maximal overlap score; 0 -> UNMATCHED.

    Ties go to the lowest face_id (faces are scanned in face_id order and
    only a strictly better score displaces the incumbent).
    """
    ordered = sorted(faces, key=lambda f: f.face_id)
    matches = []
    for hb in human_boxes:
        best = UNMATCHED
        best_score = 0.0
        for fc in ordered:
            s = overlap_score(fc.box, hb)
            if s > best_score:
                best_score = s
                best = fc.face_id
        matches.append(best)
    return FaceHumanAssignment(tuple(human_boxes), tuple(matches))


def replace_names(triples: list[RelationTriple],
                  assignment: FaceHumanAssignment,
                  face_names: dict[int, str]) -> list[RelationTriple]:
    """Rewrite human-referring triple endpoints to predicted character names.

    An endpoint changes only when its token is in DEFAULT_HUMAN_WORDS, its
    box resolves through the assignment to a face, and that face has a name
    in face_names. Everything else (predicates, counts, boxes) is preserved,
    so the operation is idempotent once no human words remain.
    """

    def resolve(token: str, box: BBox | None) -> str:
        if token not in DEFAULT_HUMAN_WORDS or box is None:
            return token
        face_id = assignment.face_for_box(box)
        if face_id is UNMATCHED:
            return token
        return face_names.get(face_id, token)

    out = []
    for t in triples:
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


def object_tokens(objects) -> list[tuple[str, bool]]:
    """Plain object stream: optional attribute token then the label token."""
    toks = []
    for label, attr in objects:
        if attr is not None:
            toks.append((attr, False))
        toks.append((label, False))
    return toks


def augment_objects_with_names(objects, names: list[str]) -> list[tuple[str, bool]]:
    """Cross product of frame objects with frame names.

    Each (object, name) pair emits the object tokens immediately followed
    by the name token; with no names the objects pass through unchanged.
    """
    if not names:
        return object_tokens(objects)
    toks = []
    for label, attr in objects:
        for name in names:
            if attr is not None:
                toks.append((attr, False))
            toks.append((label, False))
            toks.append((name, True))
    return toks


def build_semantic_stream(frames: list[Frame],
                          face_names: dict[int, str],
                          use_objs: bool,
                          use_rels: bool,
                          objs_names: bool,
                          rels_names: bool,
                          name_set=frozenset()) -> tuple[list[str], list[bool]]:
    """The visual (tokens, name_flags) stream of a set of frames.

    The full objects run precedes the full relations run, triples as S P O
    token runs with their boxes discarded; within each run, frames go in
    temporal order and triples in detection order. face_names holds the
    current (predicted or oracle) face labels; name_set marks which relation
    tokens count as names after replacement (cast membership).
    """
    ordered = sorted(frames, key=lambda f: f.frame_id)
    toks: list[str] = []
    flags: list[bool] = []
    if use_objs:
        for frame in ordered:
            names = frame_names(frame, face_names) if objs_names else []
            run = augment_objects_with_names(frame.objects, names)
            toks.extend(t for t, _ in run)
            flags.extend(f for _, f in run)
    if use_rels:
        for frame in ordered:
            triples = frame.triples
            if rels_names:
                assignment = match_faces_to_humans(frame.faces, [b for b, _ in frame.human_boxes])
                triples = replace_names(triples, assignment, face_names)
            for t in triples:
                toks.extend(t.tokens)
                flags.extend(tok in name_set for tok in t.tokens)
    return toks, flags


__all__ = [
    "UNMATCHED", "FaceHumanAssignment", "overlap_score", "match_faces_to_humans",
    "replace_names", "frame_names", "object_tokens", "augment_objects_with_names",
    "build_semantic_stream",
]
