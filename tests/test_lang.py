import pytest

from sqrtpi.lang import (
    BOOL,
    ONE_T,
    ZERO_T,
    Ann,
    MetaVar,
    ParseError,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    UnificationFailure,
    UnresolvedMetavariable,
    dimension,
    invert,
    parse,
    parse_type,
    parse_type_pair,
    pretty,
    seq,
    typecheck,
    type_str,
)
from termgen import random_terms


def test_dimension():
    assert dimension(ZERO_T) == 0
    assert dimension(ONE_T) == 1
    assert dimension(BOOL) == 2
    assert dimension(Prod(BOOL, Sum(BOOL, ONE_T))) == 6
    assert dimension(Prod(BOOL, ZERO_T)) == 0


def test_parse_two_token_sequence():
    assert parse("swap+ ; swap+") == seq(Prim("swap+"), Prim("swap+"))


def test_parse_ctrl_pattern():
    t = parse("dist ; (id + (id * swap+)) ; factor")
    assert t == seq(
        Prim("dist"),
        seq(SumC(Prim("id"), ProdC(Prim("id"), Prim("swap+"))), Prim("factor")),
    )


def test_parse_vv():
    assert parse("v ; v") == seq(Prim("v"), Prim("v"))


def test_parse_precedence():
    # ';' binds loosest, then '+', then '*'
    t = parse("id + id * swap+ ; v")
    assert t == seq(SumC(Prim("id"), ProdC(Prim("id"), Prim("swap+"))), Prim("v"))


def test_parse_compound_names():
    for name in ("unite+l", "uniti+l", "unite*l", "uniti*l", "assocr+", "assocl*"):
        assert parse(name) == Prim(name)


def test_parse_annotation():
    t = parse("swap+ : 2 <-> 2")
    assert t == Ann(Prim("swap+"), BOOL, BOOL)


def test_parse_types():
    assert parse_type("2") == BOOL
    assert parse_type("1+1") == BOOL
    assert parse_type("2*2*2") == Prod(BOOL, Prod(BOOL, BOOL))
    assert parse_type("(2*2)*2") == Prod(Prod(BOOL, BOOL), BOOL)
    assert parse_type("0+1") == Sum(ZERO_T, ONE_T)
    assert parse_type_pair("2 <-> 1+1") == (BOOL, BOOL)


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse("swap+ ;\n ; v")
    assert e.value.line == 2
    assert e.value.expected


def test_parse_error_position_after_comment_line():
    with pytest.raises(ParseError) as e:
        parse("# a comment ; (\n  v ; ) ")
    assert (e.value.line, e.value.col) == (2, 7)
    assert str(e.value) == "2:7: unexpected ')' (expected one of: name, '(', '?var')"
    with pytest.raises(ParseError) as e:
        parse("# one\n#two\nv ; @")
    assert str(e.value) == "3:5: unexpected character '@'"


def test_parse_error_position_at_end_of_input_on_line_3():
    with pytest.raises(ParseError) as e:
        parse("v ;\n  v ;\n  ")
    assert (e.value.line, e.value.col) == (3, 3)
    assert str(e.value) == "3:3: unexpected end of input (expected one of: name, '(', '?var')"
    with pytest.raises(ParseError) as e:
        parse("(v ;\n v\n")
    assert str(e.value) == "3:1: unexpected end of input (expected one of: ')')"


def test_parse_unknown_name():
    with pytest.raises(ParseError):
        parse("frobnicate")
    with pytest.raises(ParseError):
        parse("h")  # gate names need expand_macros=True


def test_parse_nesting_limit_counts_parens_operators_and_types():
    from sqrtpi.lang import MAX_NESTING

    n = MAX_NESTING
    ok = ["(" * n + "v" + ")" * n, " + ".join(["v"] * (n + 1)),
          " * ".join(["w"] * (n + 1)), "v : " + "(" * n + "2" + ")" * n + " <-> 2"]
    deep = ["(" * (n + 1) + "v" + ")" * (n + 1), " + ".join(["v"] * (n + 2)),
            " * ".join(["w"] * (n + 2)), "w : 1 <-> " + "*".join(["1"] * (n + 2))]
    for text in ok:
        parse(text)
    for text in deep:
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(text)


def test_reused_group_crossing_the_nesting_limit_fails_as_a_first_read():
    # the group is read at depth 0 first; its parse is not reused where it
    # would cross the limit, so the error names the token a first read names
    group = "(" * 50 + "v ; w" + ")" * 50
    deep = ["(" * 51 + group + ")" * 51, " * ".join(["w"] * 51 + [group])]
    for text in deep:
        with pytest.raises(ParseError, match="nesting deeper") as first:
            parse(text)
        with pytest.raises(ParseError) as reused:
            parse(f"{group} ;\n{text}")
        assert (reused.value.line, reused.value.col) == (2, first.value.col)
        assert str(reused.value) == f"2{str(first.value)[1:]}"
    at_limit = "(" * 50 + group + ")" * 50
    assert parse(f"{group} ;\n{at_limit}") is seq(*[Prim("v"), Prim("w")] * 2)
    # the same across the lines of one catalog load
    from sqrtpi.rewrite import CatalogError, load_catalog

    catalog = "\n".join(["sqrtpi-rules 1", "rule a", f"lhs {group}", "rhs v ; w",
                          "check v ; w == v ; w", "end", "rule b", f"lhs {deep[0]}"])
    with pytest.raises(ParseError) as first:
        parse(deep[0])
    with pytest.raises(CatalogError) as reused:
        load_catalog(catalog)
    assert str(reused.value) == f"line 8: {first.value}"


def test_shared_group_memo_keeps_parse_options_apart():
    from sqrtpi.lang import MetaVar, shared_groups

    with shared_groups():
        assert parse("(?f ; v)", allow_metavars=True) is seq(MetaVar("f"), Prim("v"))
        with pytest.raises(ParseError, match="pattern variable outside a pattern"):
            parse("(?f ; v)")
        assert parse("(h ; v)", expand_macros=True) is parse("h ; v", expand_macros=True)
        with pytest.raises(ParseError, match="unknown name 'h'"):
            parse("(h ; v)")


def _parse_error(text: str, **options) -> tuple:
    with pytest.raises(ParseError) as e:
        parse(text, **options)
    return str(e.value), e.value.line, e.value.col, e.value.expected


def test_shared_text_memo_reads_a_text_once_and_a_failure_again(monkeypatch):
    from sqrtpi import lang

    # the errors of a first read, outside any shared block
    bad = {"?f ; v": _parse_error("?f ; v"),
           "\n\n  v ; w )": _parse_error("\n\n  v ; w )"),
           "v ; w\f": _parse_error("v ; w\f")}
    reads, read = [], lang._Parser._read

    def counting(parser, pos):
        if pos == 0:  # the first run of a text
            reads.append(parser.text)
        read(parser, pos)

    monkeypatch.setattr(lang._Parser, "_read", counting)
    with lang.shared_groups():
        vw = parse("v ; w")
        assert parse(" v ; w \n") is vw
        assert reads == ["v ; w"]
        # a text that parsed with metavariables fails again without them
        assert parse("?f ; v", allow_metavars=True) is seq(MetaVar("f"), Prim("v"))
        # a malformed text after an equal-looking good one names its own
        # line:col; a form feed is not whitespace to the tokenizer
        for text, error in bad.items():
            assert _parse_error(text) == error
    assert reads[-3:] == list(bad)


def test_parse_comments():
    assert parse("v ; v  # square root of not, twice") == seq(Prim("v"), Prim("v"))


def test_typecheck_v():
    t = typecheck(Prim("v"))
    assert t.src == BOOL and t.tgt == BOOL


def test_typecheck_constructor_clash():
    bad = seq(Ann(Prim("swap+"), BOOL, BOOL), Ann(Prim("swap*"), Prod(ONE_T, ONE_T), Prod(ONE_T, ONE_T)))
    with pytest.raises(UnificationFailure) as e:
        typecheck(bad)
    kinds = {type(e.value.t1), type(e.value.t2)}
    assert kinds == {Sum, Prod}


def test_typecheck_needs_concrete_type():
    with pytest.raises(UnresolvedMetavariable):
        typecheck(Prim("id"))
    t = typecheck(Prim("id"), (BOOL, BOOL))
    assert t.src == BOOL


def test_typecheck_expected_mismatch():
    with pytest.raises(UnificationFailure):
        typecheck(Prim("v"), (ONE_T, ONE_T))


def test_typecheck_dist_scheme():
    t = typecheck(Prim("dist"), (Prod(BOOL, BOOL), Sum(Prod(ONE_T, BOOL), Prod(ONE_T, BOOL))))
    assert dimension(t.src) == dimension(t.tgt) == 4


def test_typecheck_zero_rows():
    t = typecheck(Prim("absorbl"), (Prod(BOOL, ZERO_T), ZERO_T))
    assert dimension(t.src) == 0


def test_invert_primitives():
    assert invert(Prim("dist")) == Prim("factor")
    assert invert(Prim("w")) == Prim("wi")
    assert invert(Prim("swap+")) == Prim("swap+")
    assert invert(Prim("assocr*")) == Prim("assocl*")
    assert invert(Prim("factorzr")) == Prim("absorbl")


def test_invert_contravariant():
    a, b = Prim("v"), Prim("swap+")
    assert invert(seq(a, b)) == seq(invert(b), invert(a))


def test_invert_annotation_swaps_types():
    t = Ann(Prim("uniti*l"), BOOL, Prod(ONE_T, BOOL))
    assert invert(t) == Ann(Prim("unite*l"), Prod(ONE_T, BOOL), BOOL)


def test_pretty_examples():
    assert pretty(seq(Prim("v"), Prim("v"))) == "v ; v"
    assert pretty(SumC(Prim("id"), Prim("w"))) == "id + w"
    assert parse("(v ; v) ; w") == parse("v ; v ; w") == parse("v ; (v ; w)")
    assert pretty(parse("(v ; v) ; w")) == "v ; v ; w"
    assert pretty(ProdC(SumC(Prim("id"), Prim("w")), Prim("v"))) == "(id + w) * v"


def test_type_str_round_trip():
    for s in ("2", "2*2*2", "(2*2)*2", "0+1*2", "(1+1)+1"):
        t = parse_type(s)
        assert parse_type(type_str(t)) == t


def test_seq_helper_splices_chains():
    a, b, c = Prim("v"), Prim("w"), Prim("wi")
    assert seq(a, b, c) == Seq((a, b, c))
    assert seq(seq(a, b), c) == seq(a, seq(b, c)) == seq(a, b, c)
    assert seq(a) is a
    # an annotation is a barrier: the chain inside it is not spliced
    inner = Ann(seq(a, a), BOOL, BOOL)
    assert seq(inner, a).parts == (inner, a)


def test_random_terms_typecheck_and_preserve_dimension():
    for term, src, tgt in random_terms(seed=7, count=300):
        t = typecheck(term, (src, tgt))
        assert dimension(t.src) == dimension(t.tgt)


def test_pretty_parse_round_trip_on_random_terms():
    for term, _, _ in random_terms(seed=11, count=300):
        assert parse(pretty(term)) == term


def test_invert_round_trip_on_random_terms():
    for term, src, tgt in random_terms(seed=13, count=300):
        assert invert(invert(term)) == term
        t = typecheck(invert(term), (tgt, src))
        assert (t.src, t.tgt) == (tgt, src)
