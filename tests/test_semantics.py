import numpy as np

from charqa.corpus import BBox, FaceDetection, Frame, RelationTriple
from charqa.carn import ModalityConfig
from charqa.castlist import CastList
from charqa.semantics import (augment_objects_with_names, frame_names, match_faces_to_humans,
                              overlap_score, replace_names, visual_stream)


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


def human_frame(triples, faces=(), boxes=()):
    """A frame whose human boxes are `boxes`, all labelled "man"."""
    return Frame(0, 0.0, list(faces), [(b, "man") for b in boxes], [], list(triples))


class TestMatching:
    def test_containment_vs_disjoint(self):
        f = face(0, BBox(10, 10, 20, 20))
        h1, h2 = BBox(0, 0, 50, 100), BBox(100, 0, 150, 100)
        assert match_faces_to_humans([f], [h1, h2]) == [0, None]

    def test_nested_boxes_both_match_same_face(self):
        f = face(0, BBox(10, 10, 20, 20))
        outer, inner = BBox(0, 0, 100, 100), BBox(5, 5, 40, 40)
        assert match_faces_to_humans([f], [outer, inner]) == [0, 0]

    def test_tie_goes_to_lowest_face_id(self):
        box = BBox(10, 10, 20, 20)
        assert match_faces_to_humans([face(3, box), face(1, box)], [BBox(0, 0, 50, 50)]) == [1]

    def test_zero_overlap_is_unmatched(self):
        assert match_faces_to_humans([face(0, BBox(0, 0, 5, 5))],
                                     [BBox(50, 50, 60, 60)]) == [None]

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

    def test_triple_box_prefers_exact_box(self):
        # Face 0 lies in b1 only, face 1 in both, so b1 -> 0 and b2 -> 1.
        # A triple on b2 intersects b1 just as much, but the equal box wins.
        b1, b2 = BBox(0, 0, 10, 10), BBox(2, 2, 8, 8)
        faces = [face(0, BBox(0, 0, 2, 2)), face(1, BBox(3, 3, 5, 5))]
        assert match_faces_to_humans(faces, [b1, b2]) == [0, 1]
        triples = [RelationTriple("man", "holds", "cup", b2),
                   RelationTriple("man", "holds", "cup", b1)]
        out = replace_names(human_frame(triples, faces, [b1, b2]), {0: "Ted", 1: "Ada"})
        assert [t.subject for t in out] == ["Ada", "Ted"]

    def test_triple_box_falls_back_to_largest_intersection(self):
        # Neither triple box equals a human box. The subject box overlaps
        # b1 and b2 by 50 each, so b1, the lower index, names it. The object
        # box overlaps b1 by 20 and b2 by 100, so the larger one names it.
        b0, b1, b2 = BBox(0, 0, 10, 10), BBox(10, 0, 20, 10), BBox(20, 0, 30, 10)
        faces = [face(0, BBox(1, 1, 3, 3)), face(1, BBox(11, 1, 13, 3)),
                 face(2, BBox(21, 1, 23, 3))]
        names = {0: "Ted", 1: "Ada", 2: "Ben"}
        frame = human_frame([RelationTriple("man", "near", "woman", BBox(15, 0, 25, 10),
                                            BBox(18, 0, 30, 10))], faces, [b0, b1, b2])
        assert match_faces_to_humans(faces, [b0, b1, b2]) == [0, 1, 2]
        assert replace_names(frame, names)[0].tokens == ("Ada", "near", "Ben")
        # With no positive intersection the endpoint stays a human word.
        far = human_frame([RelationTriple("man", "near", "cup", BBox(50, 50, 60, 60))],
                          faces, [b0, b1, b2])
        assert replace_names(far, names)[0].tokens == ("man", "near", "cup")


class TestReplaceNames:
    def test_human_word_replaced_by_matched_name(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("man", "holds", "bottle", human)
        out = replace_names(human_frame([t], [face(0, BBox(10, 10, 20, 20))], [human]),
                            {0: "Ted"})
        assert out[0].tokens == ("Ted", "holds", "bottle")
        assert out[0].predicate == "holds"

    def test_non_human_triple_unchanged(self):
        t = RelationTriple("table", "under", "window")
        out = replace_names(human_frame([t]), {})
        assert out[0] is t

    def test_unmatched_box_left_alone(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("woman", "sits", "couch", human)
        frame = human_frame([t], [face(0, BBox(60, 0, 70, 10))], [human])
        assert match_faces_to_humans(frame.faces, [human]) == [None]
        out = replace_names(frame, {0: "Penny"})
        assert out[0].tokens == ("woman", "sits", "couch")

    def test_unnamed_face_left_alone(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("man", "holds", "cup", human)
        out = replace_names(human_frame([t], [face(0, BBox(10, 10, 20, 20))], [human]), {})
        assert out[0].tokens == ("man", "holds", "cup")

    def test_idempotent_and_token_count_preserving(self):
        human = BBox(0, 0, 50, 100)
        triples = [RelationTriple("man", "holds", "bottle", human),
                   RelationTriple("cup", "on", "table"),
                   RelationTriple("woman", "near", "man", human, human)]
        faces = [face(0, BBox(10, 10, 20, 20))]
        once = replace_names(human_frame(triples, faces, [human]), {0: "Ted"})
        twice = replace_names(human_frame(once, faces, [human]), {0: "Ted"})
        assert once == twice
        assert len(once) == len(triples)
        for before, after in zip(triples, once):
            assert len(before.tokens) == len(after.tokens)

    def test_only_configured_words_rewritten(self):
        human = BBox(0, 0, 50, 100)
        t = RelationTriple("dude", "holds", "cup", human)
        out = replace_names(human_frame([t], [face(0, BBox(10, 10, 20, 20))], [human]),
                            {0: "Ted"})
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
        assert augment_objects_with_names(objects, []) == [("red", False), ("food", False)]

    def test_no_objects_is_empty(self):
        assert augment_objects_with_names([], ["Leonard"]) == []

    def test_frame_names_ordered_by_face_id_unique(self):
        f = Frame(0, 0.0, [face(2, BBox(0, 0, 4, 4)), face(5, BBox(8, 8, 12, 12)),
                           face(9, BBox(14, 14, 18, 18))], [], [], [])
        names = frame_names(f, {5: "Ada", 2: "Ben", 9: "Ben"})
        assert names == ["Ben", "Ada"]


ADA = CastList(("Ada",), (1,))


def stream(frames, label, cast=ADA):
    return visual_stream(frames, ModalityConfig.from_label(label).runs, {0: "Ada"}, cast)


def relations(frames):
    """The relation run alone, without names: (tokens, flags)."""
    return visual_stream(frames, ("Rels",), {}, CastList((), ()))


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
        toks, flags = stream([fr], "Objs_nm + Rels_nm")
        rel_toks, _ = stream([fr], "Rels_nm")
        assert len(rel_toks) % 3 == 0
        assert toks[len(toks) - len(rel_toks):] == rel_toks
        assert len(toks) == len(flags)

    def test_name_injection_and_flags(self):
        fr = self.make_frame()
        toks, flags = stream([fr], "Objs_nm + Rels_nm")
        # The object run, then the relation run.
        assert toks == ["cup", "Ada", "blue", "vase", "Ada", "Ada", "hold", "cup"]
        assert flags == [False, True, False, False, True, True, False, False]

    def test_names_off_keeps_human_words(self):
        fr = self.make_frame()
        toks, flags = stream([fr], "Objs + Rels")
        assert toks == ["cup", "blue", "vase", "man", "hold", "cup"]
        assert not any(flags)

    def test_deterministic(self):
        fr = self.make_frame()
        a = stream([fr], "Objs_nm + Rels_nm")
        b = stream([fr], "Objs_nm + Rels_nm")
        assert a == b

    def test_runs_laid_out_in_the_order_given(self):
        fr = self.make_frame()
        rels, rel_flags = stream([fr], "Rels_nm")
        objs, obj_flags = stream([fr], "Objs_nm")
        toks, flags = visual_stream([fr], ("Rels_nm", "Objs_nm"), {0: "Ada"}, ADA)
        assert (toks, flags) == (rels + objs, rel_flags + obj_flags)
        assert visual_stream([fr], (), {0: "Ada"}, ADA) == ([], [])
