"""The C tokenizer and parser."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import CorpusMutator
from repro.corpus import CorpusGenerator
from repro.core.spade.cparse import parse_file
from repro.core.spade.ctokens import TokKind, tokenize
from repro.errors import AnalysisError
from repro.perfcache.codec import encode_parsed_file


def test_tokenizer_basics():
    tokens = tokenize("int x = 42; // comment\nfoo(a->b);")
    texts = [t.text for t in tokens]
    assert texts == ["int", "x", "=", "42", ";", "foo", "(", "a", "->",
                     "b", ")", ";"]


def test_tokenizer_lines_and_preproc():
    tokens = tokenize('#include <x.h>\nint y;\n')
    assert tokens[0].kind == TokKind.PREPROC
    assert tokens[1].line == 2


def test_tokenizer_block_comment_spans_lines():
    tokens = tokenize("/* a\nb\nc */ int z;")
    assert tokens[0].text == "int"
    assert tokens[0].line == 3


def test_tokenizer_string_and_char():
    tokens = tokenize('char *s = "hi;there"; char c = \'x\';')
    kinds = [t.kind for t in tokens if t.kind in (TokKind.STRING,
                                                  TokKind.CHAR)]
    assert kinds == [TokKind.STRING, TokKind.CHAR]


def test_tokenizer_unterminated_comment_raises():
    with pytest.raises(AnalysisError):
        tokenize("/* never ends")


def test_parse_struct_fields():
    parsed = parse_file("t.c", """
struct demo {
    struct other *ptr;
    u32 count;
    u8 buf[64];
    void (*handler)(int x);
    void (*table[8])(void);
    struct nested inner;
};
""")
    fields = {f.name: f for f in parsed.structs["demo"].fields}
    assert fields["ptr"].type.base == "other"
    assert fields["ptr"].type.pointer_level == 1
    assert fields["buf"].type.array_len == 64
    assert fields["handler"].is_func_ptr
    assert fields["table"].is_func_ptr
    assert fields["table"].func_ptr_count == 8
    assert fields["inner"].type.pointer_level == 0


def test_parse_function_with_everything():
    parsed = parse_file("t.c", """
static int work(struct dev *d, void *buf)
{
    struct item *it;
    u8 local[16];
    dma_addr_t a;

    it = lookup(d, 5);
    a = dma_map_single(d->dma, &it->payload, 64, DMA_TO_DEVICE);
    if (!a)
        return -1;
    submit(d, a);
    return 0;
}
""")
    func = parsed.functions["work"]
    assert [p.name for p in func.params] == ["d", "buf"]
    assert func.params[1].type.base == "void"
    local_names = {d.name for d in func.locals}
    assert local_names == {"it", "local", "a"}
    assert func.find_var("local")[1].type.array_len == 16
    callees = {c.callee for c in func.calls}
    assert callees == {"lookup", "dma_map_single", "submit"}
    map_call = next(c for c in func.calls
                    if c.callee == "dma_map_single")
    assert map_call.args[1] == "& it -> payload"
    assigns = func.assignments_to("it")
    assert assigns[0].rhs_call.callee == "lookup"


def test_parse_declaration_with_initializer():
    parsed = parse_file("t.c", """
static void f(void)
{
    struct sk_buff *skb = netdev_alloc_skb(dev, 1500);
    use(skb);
}
""")
    func = parsed.functions["f"]
    assert func.find_var("skb")[0] == "local"
    assert func.assignments_to("skb")[0].rhs_call.callee == \
        "netdev_alloc_skb"


def test_method_style_calls_not_confused():
    parsed = parse_file("t.c", """
static void f(struct ops *o)
{
    run(o);
}
""")
    assert {c.callee for c in parsed.functions["f"].calls} == {"run"}


def test_prototypes_and_forward_decls_skipped():
    parsed = parse_file("t.c", """
struct fwd;
int proto(struct fwd *f);
typedef unsigned int myint;
""")
    assert parsed.structs == {}
    assert parsed.functions == {}


def test_param_index():
    parsed = parse_file("t.c", """
static int g(struct a *x, void *y, u32 z)
{
    return 0;
}
""")
    func = parsed.functions["g"]
    assert func.param_index("y") == 1
    assert func.param_index("nope") is None


@pytest.mark.parametrize("decl, length", [("u8 b[16UL];", 16),
                                          ("u8 b[4u];", 4),
                                          ("u8 b[010];", 8),
                                          ("u8 b[0x10];", 16)])
def test_array_length_is_a_c_integer_literal(decl, length):
    parsed = parse_file("t.c", f"struct s {{\n    {decl}\n}};\n")
    assert parsed.structs["s"].fields[0].type.array_len == length


def test_func_ptr_array_count_is_a_c_integer_literal():
    parsed = parse_file("t.c", """
struct ops {
    void (*f[4U])(void);
    void (*g[010])(void);
};
""")
    fields = {f.name: f for f in parsed.structs["ops"].fields}
    assert fields["f"].func_ptr_count == 4
    assert fields["g"].func_ptr_count == 8


def test_bad_integer_literal_still_fails_the_file():
    with pytest.raises(ValueError):
        parse_file("t.c", "struct s {\n    u8 b[08];\n};\n")


# -- one-regex tokenizer == the character loop it replaced --------------------

_PUNCTUATORS = ("->", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||",
                "<<", ">>", "+=", "-=", "*=", "/=", "|=", "&=", "^=",
                "++", "--", "...")


def reference_tokenize(source):
    """Reference model: the character-at-a-time tokenizer, as
    ``(kind, text, line)`` tuples."""
    tokens = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            end = source.find("\n", i)
            if end == -1:
                end = n
            tokens.append((TokKind.PREPROC, source[i:end], line))
            i = end
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise AnalysisError(f"unterminated comment at line {line}")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch == '"' or ch == "'":
            j = i + 1
            while j < n and source[j] != ch:
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise AnalysisError(f"unterminated literal at line {line}")
            kind = TokKind.STRING if ch == '"' else TokKind.CHAR
            tokens.append((kind, source[i:j + 1], line))
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append((TokKind.IDENT, source[i:j], line))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and (source[j].isalnum() or source[j] in "xX._"):
                j += 1
            tokens.append((TokKind.NUMBER, source[i:j], line))
            i = j
            continue
        punct = next((p for p in _PUNCTUATORS if source.startswith(p, i)),
                     None)
        if punct is None and ch in "{}()[];,*&=<>!+-/%|^~?:.":
            punct = ch
        if punct is None:
            raise AnalysisError(f"unexpected character {ch!r} at line {line}")
        tokens.append((TokKind.PUNCT, punct, line))
        i += len(punct)
    return tokens


def _lexed(tokenizer, source):
    try:
        return [tuple(tok) for tok in tokenizer(source)]
    except AnalysisError as exc:
        return str(exc)


_FRAGMENTS = ("/*", "*/", "//", "#", '"', "'", "\\", "->", "<<=", ">>=",
              "...", "..", "\n", "\r\n", "\f", "\t", " ", "int", "x_1",
              "0x1fUL", "010", "3.5e", "é", "²", "½", "٣", "aé²", "$")
c_sources = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS),
              st.sampled_from(_PUNCTUATORS),
              st.text(alphabet="aZ_09x.é²½٣{}()[];,*&=<>!+-/%|^~?: "
                               "\n\t\"'\\#", max_size=6),
              st.text(max_size=3)),
    max_size=40).map("".join)


@settings(max_examples=1500, deadline=None)
@given(source=c_sources)
@example(source='char *s = "a\nb";\nint x;')      # newline in a literal
@example(source="é1 ²3 a½ ٣.x")                     # non-ASCII starts
@example(source="int ½;")
@example(source="/*/ x")                             # unterminated comment
@example(source="'\\")                               # escape runs off the end
def test_tokenize_matches_reference(source):
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)


# sha256 over every file's encoded parse tree, pinned from the parser
# before the tokenizer became one regex: any change to a tree shows
_PARSE_DIGESTS = {
    ("generated", 2021):
        "213caaea076da023f69d6db52c136d127dd710462ffa88c1bcf5830fe314377b",
    ("generated", 7):
        "84d6cd4129824f6ca1efa5ea4e08a1f937a8c9a7687804e7fac3ccb6790f649b",
    ("generated", 99):
        "d5a2cef607cd2adfb9466c0a176068b1bc35daf46bcaa355a9d3fcfa8667e64d",
    ("mutated", 1):
        "413b3be831d3b40498a3d7d99077e809f46967f661d87613f198301f1713313b",
    ("mutated", 2):
        "931a6d2728a0589ddb94db8933471d97e6e8aab3ed0ccef1b69f843888db2782",
    ("mutated", 3):
        "d036df7c7db95aff394532184766d83fc4b73658998b142c5e6de72c885de103",
}


def _parse_digest(tree, paths):
    digest = hashlib.sha256()
    for path in sorted(paths):
        record = encode_parsed_file(parse_file(path, tree.read(path)))
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [2021, 7, 99])
def test_parse_trees_of_generated_corpora_are_pinned(seed):
    tree, _ = CorpusGenerator(seed=seed).generate()
    assert _parse_digest(tree, tree.paths()) == \
        _PARSE_DIGESTS["generated", seed]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_trees_of_mutated_corpora_are_pinned(seed):
    mutator = CorpusMutator(2021)
    base, _ = mutator.base_view()
    mutated = mutator.derive(seed, nr_mutations=30).tree
    changed = [path for path in mutated.paths()
               if mutated.read(path) != base.files.get(path)]
    assert len(changed) > 20
    assert _parse_digest(mutated, changed) == \
        _PARSE_DIGESTS["mutated", seed]
