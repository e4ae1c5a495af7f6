import pytest

from charqa.castlist import (CastList, UNKNAME, build_cast_list, count_speakers,
                             map_speaker, scaled_min_count)
from charqa.corpus import Clip, GenConfig, SubtitleLine, generate_corpus
from charqa.errors import EmptyCastError


def clip_with_speakers(cid, speakers):
    subs = [SubtitleLine(s, ["x"], float(i), float(i) + 0.5)
            for i, s in enumerate(speakers)]
    return Clip(cid, [], subs, [], None)


class TestCountSpeakers:
    def test_basic_counting(self):
        clips = [clip_with_speakers("a", ["Ted", "Lily"]),
                 clip_with_speakers("b", ["Ted"])]
        assert count_speakers(clips) == {"Ted": 2, "Lily": 1}

    def test_empty_subtitles_give_empty_map(self):
        assert count_speakers([Clip("a", [], [], [], None)]) == {}

    def test_case_sensitive_keys(self):
        clips = [clip_with_speakers("a", ["ted", "Ted"])]
        assert count_speakers(clips) == {"ted": 1, "Ted": 1}


class TestBuildCastList:
    def test_himym_style_table(self):
        cast = build_cast_list({"Ted": 900, "Lily": 620, "Marshall": 510, "Guest": 60})
        assert cast.names == ("Ted", "Lily", "Marshall")
        assert cast.counts == (900, 620, 510)
        assert cast.k == 3
        assert cast.unk_index == 3

    def test_min_count_filters(self):
        cast = build_cast_list({"A": 2000, "B": 150})
        assert cast.names == ("A",)

    def test_499_is_empty_cast(self):
        with pytest.raises(EmptyCastError):
            build_cast_list({"A": 499})

    def test_500_boundary_is_strict(self):
        # "more than 500": exactly 500 fails, 501 passes.
        with pytest.raises(EmptyCastError):
            build_cast_list({"A": 500})
        assert build_cast_list({"A": 501}).names == ("A",)

    def test_none_scales_min_count_to_the_counted_lines(self):
        # 8 lines scale the 500-line rule to its floor of 2.
        counts = {"A": 5, "B": 3}
        assert scaled_min_count(sum(counts.values())) == 2
        assert build_cast_list(counts, min_count=None).names == ("A", "B")
        with pytest.raises(EmptyCastError):
            build_cast_list({"A": 2}, min_count=None)

    def test_ratio_boundary_is_inclusive(self):
        counts = {"A": 1000, "B": 100, "C": 99}
        cast = build_cast_list(counts, min_count=50, max_ratio=0.1)
        assert cast.names == ("A", "B")

    def test_ratio_uses_max_over_all_speakers(self):
        # C passes min_count but sits below 1/10 of the global max even
        # though the max itself fails min_count.
        counts = {"A": 5000, "B": 400, "C": 80}
        cast = build_cast_list(counts, min_count=60, max_ratio=0.1)
        assert "C" not in cast.names
        assert cast.names == ("A",)

    def test_empty_counts_error(self):
        with pytest.raises(EmptyCastError):
            build_cast_list({})

    def test_sorted_by_count_then_name(self):
        counts = {"Zed": 700, "Amy": 700, "Bob": 900}
        cast = build_cast_list(counts)
        assert cast.names == ("Bob", "Amy", "Zed")

    def test_order_stable_under_clip_permutation(self):
        speakers = ["Ada"] * 5 + ["Ben"] * 5 + ["Cleo"] * 3
        clips = [clip_with_speakers(str(i), [s]) for i, s in enumerate(speakers)]
        a = build_cast_list(count_speakers(clips), min_count=2)
        b = build_cast_list(count_speakers(clips[::-1]), min_count=2)
        assert a == b

    def test_counts_descending_invariant(self):
        cast = build_cast_list({"A": 501, "B": 900, "C": 700})
        assert list(cast.counts) == sorted(cast.counts, reverse=True)

    def test_round_trip(self):
        cast = build_cast_list({"A": 900, "B": 600})
        assert CastList.from_dict(cast.to_dict()) == cast

    def test_unkname_is_neither_principal_nor_ratio_base(self):
        # Lines labelled UNKNAME map to the off-cast class already; with
        # 5000 of them as the base, B would fall below 1/10 of the maximum.
        cast = build_cast_list({UNKNAME: 5000, "A": 600, "B": 480}, min_count=50)
        assert cast.names == ("A", "B")

    def test_unkname_speaker_of_a_generated_corpus(self):
        clips = generate_corpus(GenConfig(n_clips=6, d_f=8, seed=1))
        for clip in clips:
            for line in clip.subtitles:
                if line.speaker == "Ada":
                    line.speaker = UNKNAME
        cast = build_cast_list(count_speakers(clips), min_count=None)
        assert cast.names == ("Cleo", "Dev", "Ben")
        assert cast.label_names().count(UNKNAME) == 1

    def test_unkname_is_no_cast_name(self):
        with pytest.raises(ValueError, match="UNKNAME is reserved"):
            CastList(("A", UNKNAME), (5, 3))


class TestMapSpeaker:
    @pytest.fixture
    def cast(self):
        return build_cast_list({"Ted": 900, "Lily": 620, "Marshall": 510})

    def test_principal_maps_to_index(self, cast):
        assert map_speaker("Ted", cast) == 0
        assert map_speaker("Marshall", cast) == 2

    def test_unknown_maps_to_unk(self, cast):
        assert map_speaker("RandomGuy", cast) == 3

    def test_case_sensitive(self, cast):
        assert map_speaker("ted", cast) == cast.unk_index

    def test_total_over_label_space(self, cast):
        for name in ["Ted", "Lily", "Marshall", "", "zzz", UNKNAME]:
            assert 0 <= map_speaker(name, cast) <= cast.k

    def test_label_names_end_with_unkname(self, cast):
        labels = cast.label_names()
        assert len(labels) == cast.k + 1
        assert labels[-1] == UNKNAME


class TestScaledMinCount:
    def test_reference_volume_gives_500(self):
        assert scaled_min_count(152500) == 500

    def test_small_volume_floors_at_2(self):
        assert scaled_min_count(10) == 2
        assert scaled_min_count(0) == 2

    def test_rounds_up(self):
        # 500 * 1000 / 152500 = 3.27... -> 4
        assert scaled_min_count(1000) == 4
