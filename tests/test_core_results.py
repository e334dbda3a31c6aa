"""Result record behaviour: serialisation, derived properties."""

import json

from hypothesis import given, strategies as st

from repro.core.results import FlipTemplate, SteeringResult, TemplatingResult


def make_template(**overrides):
    base = dict(
        page_va=0x7FFE_0000_0000,
        page_offset=0x680,
        bit=3,
        flips_to_one=True,
        aggressor_vas=(0x7FFE_0001_0000, 0x7FFE_0003_0000),
    )
    base.update(overrides)
    return FlipTemplate(**base)


class TestFlipTemplate:
    def test_byte_va(self):
        template = make_template()
        assert template.byte_va == template.page_va + 0x680

    def test_round_trip_dict(self):
        template = make_template()
        assert FlipTemplate.from_dict(template.to_dict()) == template

    def test_dict_is_json_safe(self):
        payload = json.dumps(make_template().to_dict())
        assert FlipTemplate.from_dict(json.loads(payload)) == make_template()

    @given(
        offset=st.integers(min_value=0, max_value=4095),
        bit=st.integers(min_value=0, max_value=7),
        direction=st.booleans(),
    )
    def test_round_trip_property(self, offset, bit, direction):
        template = make_template(page_offset=offset, bit=bit, flips_to_one=direction)
        assert FlipTemplate.from_dict(template.to_dict()) == template


class TestTemplatingResult:
    def test_flip_counters(self):
        result = TemplatingResult(
            buffer_bytes=1 << 30,
            rounds_per_pair=1000,
            pairs_hammered=2,
            templates=[make_template(), make_template(page_offset=1)],
        )
        assert result.flips_found == 2
        assert result.flips_per_gib == 2.0

    def test_zero_buffer(self):
        result = TemplatingResult(buffer_bytes=0, rounds_per_pair=1, pairs_hammered=0)
        assert result.flips_per_gib == 0.0


class TestSteeringResult:
    def test_landing_index(self):
        result = SteeringResult(
            steered_pfn=7,
            victim_pfns=[3, 7, 9],
            success=True,
            victim_request_pages=3,
            same_cpu=True,
        )
        assert result.landing_index == 1

    def test_landing_index_missing(self):
        result = SteeringResult(
            steered_pfn=7,
            victim_pfns=[3, 9],
            success=False,
            victim_request_pages=2,
            same_cpu=True,
        )
        assert result.landing_index is None
