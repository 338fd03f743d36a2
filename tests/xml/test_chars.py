"""Tests for XML character classification."""

import pytest

from repro.xml.chars import (
    is_name,
    is_name_char,
    is_name_start_char,
    is_nmtoken,
    is_whitespace,
    is_xml_char,
)


class TestXmlChar:
    def test_ordinary_letters_allowed(self):
        assert is_xml_char("a")
        assert is_xml_char("Z")
        assert is_xml_char("é")

    def test_whitespace_controls_allowed(self):
        for ch in "\t\n\r":
            assert is_xml_char(ch)

    def test_other_controls_rejected(self):
        for code in (0x00, 0x01, 0x08, 0x0B, 0x0C, 0x1F):
            assert not is_xml_char(chr(code))

    def test_surrogate_block_rejected(self):
        assert not is_xml_char("\ud800")
        assert not is_xml_char("\udfff")

    def test_noncharacters_rejected(self):
        assert not is_xml_char("￾")
        assert not is_xml_char("￿")

    def test_supplementary_planes_allowed(self):
        assert is_xml_char("\U0001F600")
        assert is_xml_char("\U0010FFFF")


class TestNameStartChar:
    def test_letters_and_underscore(self):
        assert is_name_start_char("a")
        assert is_name_start_char("A")
        assert is_name_start_char("_")

    def test_colon_allowed(self):
        assert is_name_start_char(":")

    def test_digits_rejected(self):
        assert not is_name_start_char("0")
        assert not is_name_start_char("9")

    def test_punctuation_rejected(self):
        for ch in "-.@/ ":
            assert not is_name_start_char(ch)

    def test_accented_letters_allowed(self):
        assert is_name_start_char("é")
        assert is_name_start_char("ñ")


class TestNameChar:
    def test_continuation_extras(self):
        for ch in "-.0129·":
            assert is_name_char(ch)

    def test_space_rejected(self):
        assert not is_name_char(" ")
        assert not is_name_char("\t")


class TestIsName:
    @pytest.mark.parametrize(
        "name", ["a", "project", "fl-name", "a.b", "_x", "x1", "éléments"]
    )
    def test_valid_names(self, name):
        assert is_name(name)

    @pytest.mark.parametrize("name", ["", "1abc", "-x", ".y", "a b", "a@b"])
    def test_invalid_names(self, name):
        assert not is_name(name)


class TestIsNmtoken:
    def test_may_start_with_digit_or_dash(self):
        assert is_nmtoken("123")
        assert is_nmtoken("-abc")
        assert is_nmtoken(".5")

    def test_empty_rejected(self):
        assert not is_nmtoken("")

    def test_space_rejected(self):
        assert not is_nmtoken("a b")


class TestIsWhitespace:
    def test_all_whitespace(self):
        assert is_whitespace(" \t\r\n")

    def test_mixed_rejected(self):
        assert not is_whitespace(" a ")

    def test_empty_rejected(self):
        assert not is_whitespace("")


class TestIsNameAtRangeBoundaries:
    """``is_name`` is one regex match; it must agree with the
    per-character predicates at both ends of every range of both
    name-character tables, and just outside them."""

    @staticmethod
    def boundary_chars():
        from repro.xml.chars import _NAME_EXTRA_RANGES, _NAME_START_RANGES

        codes = set()
        for low, high in _NAME_START_RANGES + _NAME_EXTRA_RANGES:
            codes.update((low - 1, low, high, high + 1))
        return [chr(code) for code in sorted(codes) if 0 < code <= 0x10FFFF]

    def test_single_characters(self):
        for ch in self.boundary_chars():
            assert is_name(ch) == is_name_start_char(ch), hex(ord(ch))

    def test_continuation_characters(self):
        for ch in self.boundary_chars():
            assert is_name("a" + ch) == is_name_char(ch), hex(ord(ch))
            assert is_name("a" + ch + "b") == is_name_char(ch), hex(ord(ch))

    def test_leading_characters(self):
        for ch in self.boundary_chars():
            assert is_name(ch + "a") == is_name_start_char(ch), hex(ord(ch))

    def test_whole_string_only(self):
        assert not is_name("")
        assert not is_name("a\n")
        assert not is_name("a b")
        assert not is_name("1a")
