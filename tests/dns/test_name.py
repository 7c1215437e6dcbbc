"""Tests for domain names."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import MAX_LABEL_LENGTH, Name, NameError_

label_st = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1, max_size=20,
)
name_st = st.lists(label_st, min_size=0, max_size=5).map(
    lambda labels: Name(".".join(labels) if labels else ".")
)


class TestConstruction:
    def test_from_text(self):
        name = Name("www.example.com")
        assert len(name) == 3
        assert name.labels == (b"www", b"example", b"com")

    def test_trailing_dot_ignored(self):
        assert Name("example.com.") == Name("example.com")

    def test_root_from_dot(self):
        assert Name(".").is_root
        assert Name("").is_root
        assert Name.root().is_root

    def test_copy_constructor(self):
        original = Name("a.b")
        assert Name(original) == original

    def test_from_labels(self):
        assert Name.from_labels([b"www", b"example", b"com"]) == Name("www.example.com")

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name("a..b")

    def test_oversized_label_rejected(self):
        with pytest.raises(NameError_):
            Name("a" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_max_label_accepted(self):
        Name("a" * MAX_LABEL_LENGTH + ".com")

    def test_oversized_name_rejected(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            Name(".".join([label] * 5))

    def test_non_ascii_rejected(self):
        with pytest.raises(NameError_):
            Name("exämple.com")


class TestComparison:
    def test_case_insensitive_equality(self):
        assert Name("Example.COM") == Name("example.com")

    def test_hash_case_insensitive(self):
        assert len({Name("A.b"), Name("a.B")}) == 1

    def test_string_equality(self):
        assert Name("example.com") == "EXAMPLE.com"

    def test_inequality(self):
        assert Name("a.com") != Name("b.com")

    def test_ordering_is_canonical(self):
        # DNS canonical order compares from the rightmost label.
        assert Name("z.a.com") < Name("a.b.com")

    def test_case_preserved_in_text(self):
        assert Name("WwW.Example.com").to_text() == "WwW.Example.com"


class TestStructure:
    def test_parent(self):
        assert Name("a.b.c").parent() == Name("b.c")

    def test_parent_of_root_raises(self):
        with pytest.raises(NameError_):
            Name.root().parent()

    def test_child(self):
        assert Name("example.com").child("www") == Name("www.example.com")

    def test_is_subdomain_of_self(self):
        assert Name("a.com").is_subdomain_of(Name("a.com"))

    def test_is_subdomain_of_parent(self):
        assert Name("www.a.com").is_subdomain_of(Name("a.com"))

    def test_not_subdomain_of_sibling(self):
        assert not Name("www.a.com").is_subdomain_of(Name("b.com"))

    def test_everything_is_subdomain_of_root(self):
        assert Name("x.y.z").is_subdomain_of(Name.root())

    def test_partial_label_is_not_subdomain(self):
        # "badexample.com" must not count as under "example.com".
        assert not Name("badexample.com").is_subdomain_of(Name("example.com"))

    def test_subdomain_case_insensitive(self):
        assert Name("www.EXAMPLE.com").is_subdomain_of(Name("example.COM"))

    def test_relativize(self):
        assert Name("www.example.com").relativize(Name("example.com")) == (b"www",)

    def test_relativize_outside_raises(self):
        with pytest.raises(NameError_):
            Name("www.other.com").relativize(Name("example.com"))

    def test_ancestors(self):
        chain = list(Name("a.b.c").ancestors())
        assert chain == [Name("a.b.c"), Name("b.c"), Name("c"), Name.root()]

    def test_wire_length(self):
        # www(4) + example(8) + com(4) + root(1)
        assert Name("www.example.com").wire_length == 17
        assert Name.root().wire_length == 1


raw_label_st = st.binary(min_size=1, max_size=MAX_LABEL_LENGTH)
raw_name_st = st.lists(raw_label_st, min_size=0, max_size=8).filter(
    lambda labels: sum(len(label) + 1 for label in labels) + 1 <= 255)


class TestText:
    def test_root_text(self):
        assert Name.root().to_text() == "."

    @pytest.mark.parametrize("text", ["www.example.com", "Pool.NTP.org",
                                      "a-b_c.d~e!f", "x", "."])
    def test_ascii_names_render_as_written(self, text):
        name = Name(text)
        assert name.to_text() == text
        assert name.to_text() is name.to_text()
        assert str(name) == text and repr(name) == f"Name({text!r})"

    def test_copy_carries_cached_text(self):
        name = Name("www.example.com")
        assert Name(name)._text is None
        text = name.to_text()
        assert Name(name)._text is text

    @pytest.mark.parametrize("labels,text", [
        ((b"\xff", b"pool", b"ntp", b"org"), "\\255.pool.ntp.org"),
        ((b"a.b", b"c"), "a\\.b.c"),
        ((b"back\\slash",), "back\\\\slash"),
        ((b"sp ace", b"\x00\x7f"), "sp\\032ace.\\000\\127"),
    ])
    def test_escapes_render_and_parse(self, labels, text):
        name = Name.from_labels(labels)
        assert name.to_text() == text
        assert repr(name) == f"Name({text!r})"
        assert Name(text).labels == labels

    @pytest.mark.parametrize("text,labels", [
        ("\\065bc.d", (b"Abc", b"d")),
        ("a\\bc.d.", (b"abc", b"d")),
        ("a\\..", (b"a.",)),
    ])
    def test_escape_forms_parse(self, text, labels):
        assert Name(text).labels == labels

    @pytest.mark.parametrize("text", ["a\\", "a\\25", "a\\256.b",
                                      "a\\1x.b", "a\\...", ".\\065",
                                      "a\\\u00e9.b", "a..\\065"])
    def test_malformed_escapes_rejected(self, text):
        with pytest.raises(NameError_):
            Name(text)

    @given(raw_name_st)
    def test_any_label_bytes_round_trip_through_text(self, labels):
        name = Name.from_labels(labels)
        assert Name(name.to_text()).labels == name.labels

    def test_roundtrip(self):
        assert Name(Name("a.b.c").to_text()) == Name("a.b.c")

    @given(name_st)
    def test_text_roundtrip_property(self, name):
        assert Name(name.to_text()) == name

    @given(name_st, name_st)
    def test_subdomain_concat_property(self, child_part, base):
        if child_part.is_root:
            combined = base
        else:
            try:
                combined = Name(child_part.to_text() + "." + base.to_text()
                                if not base.is_root else child_part.to_text())
            except NameError_:
                return  # exceeded length limits; fine
        assert combined.is_subdomain_of(base)
