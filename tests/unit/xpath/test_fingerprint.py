"""Canonical query fingerprints (:mod:`repro.xpath.fingerprint`)."""

import pytest

from repro.xpath.ast import Param
from repro.xpath.fingerprint import (
    UNPARSED_SHAPE,
    BoundQuery,
    Fingerprint,
    bind_template,
    fingerprint_shape,
    parameterize,
    query_fingerprint,
    slot_index,
)
from repro.xpath.parser import parse_xpath


class TestShape:
    def test_value_predicates_are_masked(self):
        shape = fingerprint_shape(parse_xpath('//patient[wardNo = "7"]'))
        assert '"7"' not in shape
        assert "$_" in shape

    def test_attribute_value_predicates_are_masked(self):
        shape = fingerprint_shape(parse_xpath('//drug[@name = "aspirin"]'))
        assert "aspirin" not in shape

    def test_parameters_are_masked(self):
        literal = fingerprint_shape(parse_xpath('//patient[wardNo = "7"]'))
        parameterized = fingerprint_shape(
            parse_xpath("//patient[wardNo = $ward]")
        )
        assert literal == parameterized

    def test_structure_is_preserved(self):
        a = fingerprint_shape(parse_xpath("//patient/name"))
        b = fingerprint_shape(parse_xpath("//patient/phone"))
        assert a != b

    def test_boolean_qualifiers_survive(self):
        with_pred = fingerprint_shape(parse_xpath("//patient[name]"))
        without = fingerprint_shape(parse_xpath("//patient"))
        assert with_pred != without


class TestQueryFingerprint:
    def test_same_shape_same_digest(self):
        a = query_fingerprint('//patient[wardNo = "1"]')
        b = query_fingerprint('//patient[wardNo = "7"]')
        assert a == b
        assert a.digest == b.digest
        assert a.shape == b.shape

    def test_different_shape_different_digest(self):
        a = query_fingerprint("//patient/name")
        b = query_fingerprint("//patient")
        assert a != b

    def test_accepts_parsed_ast(self):
        parsed = parse_xpath('//patient[wardNo = "7"]')
        assert query_fingerprint(parsed) == query_fingerprint(
            '//patient[wardNo = "7"]'
        )

    def test_digest_is_stable_across_processes(self):
        # blake2b of the shape text, not Python's salted hash(); this
        # pin catches accidental re-hashing schemes
        from hashlib import blake2b

        fp = query_fingerprint("//patient/name")
        expected = blake2b(
            fp.shape.encode("utf-8"), digest_size=8
        ).hexdigest()
        assert fp.digest == expected
        assert len(fp.digest) == 16
        int(fp.digest, 16)  # hex

    def test_unparseable_query_gets_fallback(self):
        broken = query_fingerprint("//patient[")
        assert broken.shape == UNPARSED_SHAPE
        # distinct broken texts keep distinct digests
        assert broken != query_fingerprint("///")

    def test_str_is_digest(self):
        fp = query_fingerprint("//patient")
        assert isinstance(fp, Fingerprint)
        assert str(fp) == fp.digest

    def test_compares_against_plain_strings(self):
        fp = query_fingerprint("//patient")
        assert fp == fp.digest
        assert fp != "not-a-digest"

    def test_hashable_by_digest(self):
        a = query_fingerprint('//patient[wardNo = "1"]')
        b = query_fingerprint('//patient[wardNo = "2"]')
        assert len({a, b}) == 1

    def test_masking_does_not_mutate_the_ast(self):
        parsed = parse_xpath('//patient[wardNo = "7"]')
        before = str(parsed)
        query_fingerprint(parsed)
        assert str(parsed) == before

    def test_union_and_nested_predicates(self):
        shape = fingerprint_shape(
            parse_xpath(
                '//patient[wardNo = "7"]/name | //dept[@id = "x"]//bed'
            )
        )
        assert '"7"' not in shape and '"x"' not in shape

    def test_mask_param_builds_on_ast_param(self):
        # the mask is a Param, so masked shapes stay parseable idiom
        assert str(Param("_")) == "$_"


class TestTemplates:
    def test_each_constant_gets_a_positional_slot(self):
        template, values = parameterize(
            parse_xpath('//patient[wardNo = "7" and name = "ann"]/bill')
        )
        assert str(template) == (
            "//patient[wardNo = $_0 and name = $_1]/bill"
        )
        assert values == ("7", "ann")

    def test_slots_follow_preorder(self):
        # a comparison's own constant comes before those in its path
        template, values = parameterize(
            parse_xpath('//a[b[c = "inner"] = "outer"] | //d[@e = "f"]')
        )
        assert values == ("outer", "inner", "f")
        assert "$_0" in str(template) and "$_2" in str(template)

    def test_equal_constants_still_get_their_own_slots(self):
        # one shared placeholder (the fingerprint's $_) would let
        # containment merge branches a binding tells apart
        for text in (
            '//a[b = "1"] | //c[b = "1"]',
            '//a[b = "1"] | //c[b = "2"]',
        ):
            template, values = parameterize(parse_xpath(text))
            assert str(template) == "(//a[b = $_0] | //c[b = $_1])"
            assert len(values) == 2

    def test_shape_is_byte_identical_to_the_fingerprint(self):
        for text in (
            '//patient[wardNo = "7"]/name | //dept[@id = "x"]//bed',
            "//patient[wardNo = $ward]",
            '//a[b[c = "1"] = "2" or not(@d = "3")]',
            "//patient/name",
        ):
            parsed = parse_xpath(text)
            template, _ = parameterize(parsed)
            assert fingerprint_shape(template) == fingerprint_shape(parsed)
            assert query_fingerprint(template) == query_fingerprint(parsed)

    def test_user_parameters_are_values(self):
        template, values = parameterize(
            parse_xpath('//a[b = $_0] | //a[c = "x"]')
        )
        assert str(template) == "(//a[b = $_0] | //a[c = $_1])"
        assert values == (Param("_0"), "x")

    def test_constant_free_queries_have_no_values(self):
        parsed = parse_xpath("//patient/name")
        template, values = parameterize(parsed)
        assert template == parsed and values == ()

    def test_bind_inverts_parameterize(self):
        parsed = parse_xpath('//a[b = "1" or not(c = $w)]/d[@e = "2"]')
        template, values = parameterize(parsed)
        assert bind_template(template, values) == parsed
        assert bind_template(template, ()) is template

    def test_slot_index(self):
        assert slot_index(Param("_12")) == 12
        assert slot_index(Param("_")) is None
        assert slot_index(Param("ward")) is None
        assert slot_index("$_0") is None

    def test_bound_query_substitutes_once_on_first_read(self, monkeypatch):
        from repro.xpath import fingerprint

        template, values = parameterize(parse_xpath('//a[b = "1"]'))
        calls = []
        original = fingerprint.bind_template

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fingerprint, "bind_template", counted)
        bound = BoundQuery(template, values)
        assert calls == []
        assert str(bound) == '//a[b = "1"]'
        assert bound.path == parse_xpath('//a[b = "1"]')
        assert len(calls) == 1
