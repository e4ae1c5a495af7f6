import numpy as np

from charqa.corpus import BBox, FaceDetection, Frame, RelationTriple
from charqa.semantics import (FaceHumanAssignment, UNMATCHED,
                              augment_objects_with_names, build_semantic_stream,
                              frame_names, match_faces_to_humans, object_tokens,
                              overlap_score, replace_names)


def face(fid, box):
    e = np.zeros(4)
    e[0] = 1.0
    return FaceDetection(fid, 0, box, e)


def grid_overlap(face_box, human_box):
    """Pixel-grid oracle: count unit cells of the face inside the human box."""
    inside = 0
    for x in range(face_box.x0, face_box.x1):
        for y in range(face_box.y0, face_box.y1):
            if human_box.x0 <= x and x + 1 <= human_box.x1 \
                    and human_box.y0 <= y and y + 1 <= human_box.y1:
                inside += 1
    return inside / face_box.area


class TestMatching:
    def test_containment_vs_disjoint(self):
        f = face(0, BBox(10, 10, 20, 20))
        h1, h2 = BBox(0, 0, 50, 100), BBox(100, 0, 150, 100)
        a = match_faces_to_humans([f], [h1, h2])
        assert a.matches == (0, UNMATCHED)

    def test_nested_boxes_both_match_same_face(self):
        f = face(0, BBox(10, 10, 20, 20))
        outer, inner = BBox(0, 0, 100, 100), BBox(5, 5, 40, 40)
        a = match_faces_to_humans([f], [outer, inner])
        assert a.matches == (0, 0)

    def test_tie_goes_to_lowest_face_id(self):
        box = BBox(10, 10, 20, 20)
        a = match_faces_to_humans([face(3, box), face(1, box)], [BBox(0, 0, 50, 50)])
        assert a.matches == (1,)

    def test_zero_overlap_is_unmatched(self):
        a = match_faces_to_humans([face(0, BBox(0, 0, 5, 5))], [BBox(50, 50, 60, 60)])
        assert a.matches == (UNMATCHED,)

    def test_score_matches_pixel_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            fx0, fy0 = rng.integers(0, 30, size=2)
            fb = BBox(int(fx0), int(fy0),
                      int(fx0 + rng.integers(1, 12)), int(fy0 + rng.integers(1, 12)))
            hx0, hy0 = rng.integers(0, 30, size=2)
            hb = BBox(int(hx0), int(hy0),
                      int(hx0 + rng.integers(1, 25)), int(hy0 + rng.integers(1, 25)))
            s = overlap_score(fb, hb)
            assert 0.0 <= s <= 1.0
            assert s == grid_overlap(fb, hb)

    def test_face_for_box_prefers_exact_box(self):
        b1, b2 = BBox(0, 0, 10, 10), BBox(2, 2, 8, 8)
        a = FaceHumanAssignment((b1, b2), (0, 1))
        assert a.face_for_box(b2) == 1
        assert a.face_for_box(b1) == 0


class TestReplaceNames:
    def test_human_word_replaced_by_matched_name(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("man", "holds", "bottle", human)
        a = FaceHumanAssignment((human,), (0,))
        out = replace_names([t], a, {0: "Ted"})
        assert out[0].tokens == ("Ted", "holds", "bottle")
        assert out[0].predicate == "holds"

    def test_non_human_triple_unchanged(self):
        t = RelationTriple("table", "under", "window")
        out = replace_names([t], FaceHumanAssignment((), ()), {})
        assert out[0] is t

    def test_unmatched_box_left_alone(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("woman", "sits", "couch", human)
        a = FaceHumanAssignment((human,), (UNMATCHED,))
        out = replace_names([t], a, {0: "Penny"})
        assert out[0].tokens == ("woman", "sits", "couch")

    def test_unnamed_face_left_alone(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("man", "holds", "cup", human)
        a = FaceHumanAssignment((human,), (0,))
        out = replace_names([t], a, {})
        assert out[0].tokens == ("man", "holds", "cup")

    def test_idempotent_and_token_count_preserving(self):
        human = BBox(0, 0, 50, 100)
        triples = [RelationTriple("man", "holds", "bottle", human),
                   RelationTriple("cup", "on", "table"),
                   RelationTriple("woman", "near", "man", human, human)]
        a = FaceHumanAssignment((human,), (0,))
        once = replace_names(triples, a, {0: "Ted"})
        twice = replace_names(once, a, {0: "Ted"})
        assert once == twice
        assert len(once) == len(triples)
        for before, after in zip(triples, once):
            assert len(before.tokens) == len(after.tokens)

    def test_only_configured_words_rewritten(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("dude", "holds", "cup", human)
        a = FaceHumanAssignment((human,), (0,))
        out = replace_names([t], a, {0: "Ted"})
        assert out[0].subject == "dude"


class TestObjectAugmentation:
    def test_cross_product_order(self):
        objects = [("food", None), ("wine glass", None)]
        toks = augment_objects_with_names(objects, ["Leonard", "Penny"])
        assert toks == [("food", False), ("Leonard", True),
                        ("food", False), ("Penny", True),
                        ("wine glass", False), ("Leonard", True),
                        ("wine glass", False), ("Penny", True)]

    def test_no_names_passes_objects_through(self):
        objects = [("food", "red")]
        assert augment_objects_with_names(objects, []) == object_tokens(objects)
        assert object_tokens(objects) == [("red", False), ("food", False)]

    def test_no_objects_is_empty(self):
        assert augment_objects_with_names([], ["Leonard"]) == []

    def test_frame_names_ordered_by_face_id_unique(self):
        f = Frame(0, 0.0, [face(2, BBox(0, 0, 4, 4)), face(5, BBox(8, 8, 12, 12)),
                           face(9, BBox(14, 14, 18, 18))], [], [], [])
        names = frame_names(f, {5: "Ada", 2: "Ben", 9: "Ben"})
        assert names == ["Ben", "Ada"]


def relations(frames):
    """The relation run alone, without names: (tokens, flags)."""
    return build_semantic_stream(frames, {}, use_objs=False, use_rels=True,
                                 objs_names=False, rels_names=False)


class TestStream:
    def make_frame(self):
        fb = BBox(10, 10, 20, 20)
        human = BBox(5, 5, 40, 80)
        return Frame(0, 0.0, [face(0, fb)], [(human, "man")],
                     [("cup", None), ("vase", "blue")],
                     [RelationTriple("man", "hold", "cup", human)])

    def test_two_triples_six_tokens(self):
        fr = Frame(0, 0.0, [], [], [],
                   [RelationTriple("a", "p", "b"), RelationTriple("c", "q", "d")])
        assert relations([fr]) == (["a", "p", "b", "c", "q", "d"], [False] * 6)

    def test_empty(self):
        assert relations([Frame(0, 0.0)]) == ([], [])

    def test_frame_order(self):
        f1 = Frame(1, 1.0, [], [], [], [RelationTriple("x", "p", "y")])
        f0 = Frame(0, 0.0, [], [], [], [RelationTriple("a", "p", "b")])
        assert relations([f1, f0])[0] == ["a", "p", "b", "x", "p", "y"]

    def test_relation_tokens_multiple_of_three(self):
        fr = self.make_frame()
        kw = dict(use_rels=True, rels_names=True, name_set=frozenset({"Ada"}))
        toks, flags = build_semantic_stream([fr], {0: "Ada"}, use_objs=True,
                                            objs_names=True, **kw)
        rel_toks, _ = build_semantic_stream([fr], {0: "Ada"}, use_objs=False,
                                            objs_names=False, **kw)
        assert len(rel_toks) % 3 == 0
        assert toks[len(toks) - len(rel_toks):] == rel_toks
        assert len(toks) == len(flags)

    def test_name_injection_and_flags(self):
        fr = self.make_frame()
        toks, flags = build_semantic_stream([fr], {0: "Ada"},
                                            use_objs=True, use_rels=True,
                                            objs_names=True, rels_names=True,
                                            name_set=frozenset({"Ada"}))
        # The object run, then the relation run.
        assert toks == ["cup", "Ada", "blue", "vase", "Ada", "Ada", "hold", "cup"]
        assert flags == [False, True, False, False, True, True, False, False]

    def test_names_off_keeps_human_words(self):
        fr = self.make_frame()
        toks, flags = build_semantic_stream([fr], {0: "Ada"},
                                            use_objs=True, use_rels=True,
                                            objs_names=False, rels_names=False,
                                            name_set=frozenset({"Ada"}))
        assert toks == ["cup", "blue", "vase", "man", "hold", "cup"]
        assert not any(flags)

    def test_deterministic(self):
        fr = self.make_frame()
        kw = dict(use_objs=True, use_rels=True, objs_names=True,
                  rels_names=True, name_set=frozenset({"Ada"}))
        a = build_semantic_stream([fr], {0: "Ada"}, **kw)
        b = build_semantic_stream([fr], {0: "Ada"}, **kw)
        assert a == b
