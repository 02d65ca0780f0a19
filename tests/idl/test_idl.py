"""Unit tests for the IDL: signatures, interfaces, parser (paper section 2)."""

import pytest

from repro.errors import InterfaceError
from repro.idl.interface import Interface
from repro.idl.parser import parse_interface, parse_signature
from repro.idl.signature import MethodSignature, Parameter


class TestSignature:
    def test_simple_construction(self):
        sig = parse_signature("binding GetBinding(LOID)")
        assert sig.arity == 1
        assert sig.key == ("GetBinding", ("LOID",))

    def test_identifier_validation(self):
        with pytest.raises(InterfaceError):
            MethodSignature(name="1bad")
        with pytest.raises(InterfaceError):
            Parameter(type_name="has space")

    def test_overloads_have_distinct_keys(self):
        one = parse_signature("binding Activate(LOID)")
        two = parse_signature("binding Activate(LOID, LOID)")
        assert one.key != two.key

    def test_compatibility(self):
        a = parse_signature("int F(int)")
        b = parse_signature("int F(int)")
        c = parse_signature("string F(int)")
        assert a.compatible_with(b)
        assert not a.compatible_with(c)

    def test_str_roundtrips_through_parser(self):
        sig = MethodSignature(
            name="Activate", parameters=(Parameter("LOID"), Parameter("LOID")), returns="binding"
        )
        assert parse_signature(str(sig)) == sig


class TestParser:
    def test_paper_signatures(self):
        # Signatures exactly as the paper writes them.
        assert parse_signature("binding GetBinding(LOID)").returns == "binding"
        assert parse_signature("Deactivate(LOID)").returns is None
        sig = parse_signature("binding Activate(LOID, LOID)")
        assert sig.arity == 2

    def test_named_parameters(self):
        sig = parse_signature("int Add(int amount)")
        assert sig.parameters[0].name == "amount"

    def test_no_params(self):
        assert parse_signature("state GetState()").arity == 0

    def test_comments_skipped(self):
        iface = parse_interface(
            """
            interface Host {  // the paper's host object
              address Activate(opr);  // start a process
              bytes Deactivate(LOID);
            }
            """
        )
        assert len(iface) == 2

    def test_syntax_errors(self):
        with pytest.raises(InterfaceError):
            parse_signature("binding GetBinding(LOID")  # unclosed
        with pytest.raises(InterfaceError):
            parse_signature("binding GetBinding(LOID) extra")
        with pytest.raises(InterfaceError):
            parse_interface("interface X { ;; }")
        with pytest.raises(InterfaceError):
            parse_interface("interfaze X {}")

    def test_describe_reparses(self):
        iface = parse_interface(
            "interface M { binding Activate(LOID); Deactivate(LOID); }"
        )
        again = parse_interface(iface.describe())
        assert again == iface


class TestInterface:
    def make(self):
        return parse_interface(
            """
            interface Magistrate {
              binding Activate(LOID);
              binding Activate(LOID, LOID);
              Deactivate(LOID);
              Delete(LOID);
            }
            """
        )

    def test_find_disambiguates_by_arity(self):
        iface = self.make()
        assert iface.find("Activate", 1).arity == 1
        assert iface.find("Activate", 2).arity == 2
        with pytest.raises(InterfaceError):
            iface.find("Activate")  # ambiguous without arity

    def test_find_missing_is_none(self):
        assert self.make().find("Nope") is None

    def test_has_method_and_contains(self):
        iface = self.make()
        assert iface.has_method("Delete")
        assert "Deactivate" in iface
        assert "Nope" not in iface

    def test_conflicting_returns_rejected(self):
        with pytest.raises(InterfaceError):
            Interface(
                [
                    parse_signature("int F(int)"),
                    parse_signature("string F(int)"),
                ]
            )

    def test_merge_unions_and_coalesces(self):
        a = Interface([parse_signature("int F()")])
        b = Interface(
            [
                parse_signature("int F()"),
                parse_signature("G()"),
            ]
        )
        merged = a.merged_with(b)
        assert len(merged) == 2

    def test_merge_conflict_raises(self):
        a = Interface([parse_signature("int F()")])
        b = Interface([parse_signature("string F()")])
        with pytest.raises(InterfaceError):
            a.merged_with(b)

    def test_conformance_is_superset_semantics(self):
        small = Interface([parse_signature("int F()")])
        big = small.merged_with(Interface([parse_signature("G()")]))
        assert big.conforms_to(small)
        assert not small.conforms_to(big)
        assert not big.equivalent_to(small)
        assert big.equivalent_to(big)

    def test_restricted_to(self):
        iface = self.make()
        only = iface.restricted_to(["Delete"])
        assert [sig.name for sig in only] == ["Delete"]

    def test_equality_and_hash(self):
        a = self.make()
        b = self.make()
        assert a == b
        assert hash(a) == hash(b)
