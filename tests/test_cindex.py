"""CodeIndex: symbol cross-references over a source tree."""

from unittest import mock

import pytest

from repro.campaign.mutate import CorpusMutator
from repro.core.spade import cindex
from repro.core.spade.cindex import CodeIndex, _parse_by_declaration
from repro.core.spade.cparse import parse_file, split_declarations
from repro.corpus.generate import SourceTree
from repro.perfcache import PerfCache


@pytest.fixture(autouse=True)
def parses(monkeypatch):
    """An empty parse memo of delta indexes for each test (the
    module's lives as long as the process)."""
    memo: dict = {}
    monkeypatch.setattr(cindex, "_PARSES", memo)
    return memo


def make_tree():
    tree = SourceTree()
    tree.add("a.c", """
struct widget {
    u32 id;
};
static int helper(void *buf, u32 len)
{
    return 0;
}
static int caller_one(struct widget *w)
{
    helper(w, 4);
    return 0;
}
""")
    tree.add("b.c", """
static int caller_two(void *p)
{
    helper(p, 8);
    return 0;
}
""")
    tree.add("notes.txt", "not C, must be ignored")
    return tree


def test_functions_and_structs_indexed():
    index = CodeIndex(make_tree())
    assert "widget" in index.structs
    assert "helper" in index.functions
    assert index.nr_files == 2  # the .txt is skipped
    assert index.nr_functions == 3


def test_callers_cross_file():
    index = CodeIndex(make_tree())
    callers = index.callers_of("helper")
    assert {r.caller.name for r in callers} == {"caller_one",
                                                "caller_two"}
    assert {r.file for r in callers} == {"a.c", "b.c"}
    only_a = index.calls_to("helper", within="a.c")
    assert len(only_a) == 1 and only_a[0].caller.name == "caller_one"


def test_unknown_function_no_callers():
    index = CodeIndex(make_tree())
    assert index.callers_of("ghost") == []


def test_first_struct_definition_wins():
    tree = SourceTree()
    tree.add("a.c", "struct s { u32 first; };")
    tree.add("b.c", "struct s { u64 second; };")
    index = CodeIndex(tree)
    assert index.structs["s"].fields[0].name == "first"


def test_parse_errors_collected_not_fatal():
    tree = SourceTree()
    tree.add("bad.c", "/* unterminated comment")
    tree.add("good.c", "static int ok(void)\n{\n    return 1;\n}\n")
    index = CodeIndex(tree)
    assert "bad.c" in index.parse_errors
    assert "ok" in index.functions


def test_first_definition_in_path_order_wins():
    # sorted paths put drivers/ before include/: a driver's definition
    # of a header struct shadows the header's
    tree = SourceTree()
    tree.add("include/linux/s.h", "struct s { u32 header; };")
    tree.add("drivers/x/x_main.c", "struct s { u64 driver; };")
    index = CodeIndex(tree)
    assert index.structs["s"].fields[0].name == "driver"


# -- delta indexes -------------------------------------------------------------

HEADER = "include/linux/s.h"
DRIVER_A = "drivers/a/a_main.c"
DRIVER_B = "drivers/b/b_main.c"
BAD = "drivers/c/c_main.c"


def _a(extra: str = "") -> str:
    return extra + """
static int a_map(void *buf)
{
    dma_map_single(dev, buf, 4, DMA_TO_DEVICE);
    return 0;
}
static int a_use(struct s *p)
{
    a_map(p);
    b_helper(p);
    return 0;
}
"""


def _b(extra: str = "") -> str:
    return extra + """
static int b_helper(struct s *p)
{
    a_map(p);
    return 0;
}
"""


def delta_base():
    tree = SourceTree()
    tree.add(HEADER, "struct s { u32 header; };\nstruct moved { u32 x; };")
    tree.add(DRIVER_A, _a())
    tree.add(DRIVER_B, _b())
    tree.add(BAD, "/* unterminated comment")
    return tree


#: name -> (changed path -> new text, None to remove the file)
DELTAS = {
    "a changed file shadows a header struct":
        {DRIVER_A: _a("struct s { u64 shadow; };\n")},
    "a struct moves between files":
        {HEADER: "struct s { u32 header; };",
         DRIVER_B: _b("struct moved { u32 x; };\n")},
    "a struct is removed":
        {HEADER: "struct s { u32 header; };"},
    "a failed file parses":
        {BAD: "static int c_fixed(void *p)\n{\n    a_map(p);\n"
              "    return 0;\n}\n"},
    "a parsed file fails":
        {DRIVER_B: "/* unterminated comment"},
    "a file is added and one removed":
        {"drivers/d/d_main.c": _b().replace("b_helper", "d_helper"),
         DRIVER_A: None},
    "nothing changes": {},
}


def assert_same_index(delta: CodeIndex, full: CodeIndex) -> None:
    assert list(delta.parsed.items()) == list(full.parsed.items())
    assert delta.structs == full.structs
    assert delta.functions == full.functions
    assert list(delta.parse_errors.items()) == \
        list(full.parse_errors.items())
    assert delta.file_hashes == full.file_hashes
    assert set(delta._callers) == set(full._callers)
    for name in full._callers:
        assert delta.callers_of(name) == full.callers_of(name), name


@pytest.mark.parametrize("name", sorted(DELTAS))
def test_delta_index_equals_a_full_index(name):
    base_tree = delta_base()
    base = CodeIndex(base_tree)
    files = dict(base_tree.files)
    for path, text in DELTAS[name].items():
        if text is None:
            del files[path]
        else:
            files[path] = text
    tree = SourceTree(files)
    delta = CodeIndex(tree, base=base)
    assert_same_index(delta, CodeIndex(tree))
    # the base index is left as it was
    assert_same_index(base, CodeIndex(base_tree))


def test_delta_index_dirty_names():
    base_tree = delta_base()
    base = CodeIndex(base_tree)
    files = dict(base_tree.files)
    files[DRIVER_A] = _a("struct s { u64 shadow; };\n")
    delta = CodeIndex(SourceTree(files), base=base)
    # the changed path, its struct and its callees (old or new text)
    assert delta.dirty == {DRIVER_A, "s", "dma_map_single", "a_map",
                           "b_helper"}
    assert delta.structs["s"].fields[0].name == "shadow"
    assert base.dirty == frozenset()

    files = dict(base_tree.files)
    files[DRIVER_B] = _b("struct moved { u32 x; };\n")
    delta = CodeIndex(SourceTree(files), base=base)
    assert delta.dirty == {DRIVER_B, "moved", "a_map"}
    # an untouched name keeps the base's callers list itself
    assert delta._callers["b_helper"] is base._callers["b_helper"]
    assert delta._callers["a_map"] is not base._callers["a_map"]


def test_delta_index_finds_the_changed_files_itself():
    base_tree = delta_base()
    base = CodeIndex(base_tree)
    # an equal text in a new string counts as changed: too wide, never
    # too narrow
    copied = SourceTree({path: (text + " ")[:-1]
                         for path, text in base_tree.files.items()})
    delta = CodeIndex(copied, base=base)
    assert set(base_tree.files) <= delta.dirty
    assert_same_index(delta, CodeIndex(copied))
    # the base remembers the text it indexed, not the tree's dict
    base_tree.files[DRIVER_A] = _a("struct s { u64 shadow; };\n")
    delta = CodeIndex(base_tree, base=base)
    assert delta.dirty >= {DRIVER_A, "s"}
    assert_same_index(delta, CodeIndex(base_tree))


# -- parsing by declaration ----------------------------------------------------

def parse_or_error(parse, path: str, source: str):
    """(structs, functions) in order, or the error text."""
    try:
        parsed = parse(path, source)
    except Exception as exc:
        return str(exc)
    return list(parsed.structs.items()), list(parsed.functions.items())


def test_pieces_join_back_into_the_source():
    source = "struct s {\n};\nint f(void)\n{\n}\n  }\n}x\n}"
    pieces = split_declarations(source)
    assert pieces == ["struct s {\n};\n", "int f(void)\n{\n}\n",
                      "  }\n}x\n}"]
    assert "".join(pieces) == source


#: sources a naive per-declaration parse gets wrong, each with whether
#: the memo must hold a failed piece for it
RUN_OFFS = {
    # whole: the typedef swallows f; a piece parse alone finds f
    "typedef int\n}\nint f(void)\n{\n    g(1);\n}\n": True,
    "int f(void)\n{\n/* a comment\n}\n*/\n    g(1);\n}\n": True,
    'int f(void)\n{\n    g("text\n}\n");\n}\n': True,
    "int f(void)\n{\n    if (x) {\n}\n    g(1);\n}\n": True,
    "int f(void)\n{\n    g(1);\n}\n}\nint h(void)\n{\n}\n": False,
}


@pytest.mark.parametrize("source", sorted(RUN_OFFS))
def test_per_declaration_parse_falls_back_where_a_cut_splits(source,
                                                              parses):
    assert parse_or_error(_parse_by_declaration, "a.c", source) == \
        parse_or_error(parse_file, "a.c", source)
    assert (None in parses.values()) is RUN_OFFS[source]


#: files that are a single piece whose piece parse fails: a typedef
#: left open at the end, a literal holding a newline
SINGLE_FAILING_PIECES = (
    "typedef int\n",
    'int f(void)\n{\n    g("a\nb");\n    h(1);\n}\n',
)


@pytest.mark.parametrize("source", SINGLE_FAILING_PIECES)
def test_a_single_failing_piece_parses_the_whole_file(source, parses):
    assert split_declarations(source) == [source]
    for _ in range(2):
        assert parse_or_error(_parse_by_declaration, "a.c", source) == \
            parse_or_error(parse_file, "a.c", source)
    assert parses == {("a.c", source): None}


def test_a_parsed_file_is_one_memo_lookup(parses):
    source = "".join(FRAGMENTS[:3])
    parsed = _parse_by_declaration("a.c", source)
    assert parses[("a.c", source)] is parsed
    with mock.patch.object(cindex, "parse_file",
                           side_effect=AssertionError("parsed again")):
        assert _parse_by_declaration("a.c", source) is parsed


def test_per_declaration_parse_equals_parse_file_on_campaign_seeds():
    """Every base and mutated file of seeds 0-199, through one memo as a
    campaign process uses it: lines shifted, pieces reused."""
    mutator = CorpusMutator(2021, scale=0.1)
    base_files = mutator.base_view()[0].files
    calls = []

    def counted(path, text, **kwargs):
        calls.append(kwargs)
        return parse_file(path, text, **kwargs)

    nr_files = 0
    with mock.patch.object(cindex, "parse_file", counted):
        for seed in range(200):
            files = mutator.derive(seed).tree.files
            for path, text in files.items():
                if not path.endswith((".c", ".h")) \
                        or seed and text is base_files[path]:
                    continue
                nr_files += 1
                assert parse_or_error(_parse_by_declaration, path,
                                      text) == \
                    parse_or_error(parse_file, path, text)
    assert calls and all(kwargs == {"piece": True} for kwargs in calls)
    assert None not in cindex._PARSES.values()
    # most pieces of the ~1,100 mutated files were parsed before
    nr_base_pieces = sum(len(split_declarations(text))
                         for path, text in base_files.items()
                         if path.endswith((".c", ".h")))
    assert nr_files > 1000
    assert len(calls) < nr_base_pieces + 4 * (nr_files - len(base_files))


#: C-ish fragments: declarations, duplicates, cuts inside comments and
#: literals, typedefs left open, stray and unbalanced braces
FRAGMENTS = (
    "struct widget {\n    u32 id;\n    void (*done)(void *p);\n};\n",
    "struct widget {\n    u16 pad;\n};\n",
    "static int helper(void *buf, u32 len)\n{\n    return 0;\n}\n",
    "static int helper(int x)\n{\n    x = helper(x);\n    return x;\n}\n",
    "static int caller(struct widget *w)\n{\n    u8 *p;\n"
    "    p = (u8 *)w + 8;\n    if (w) {\n        helper(w->id, 8);\n"
    "    }\n    return dma_map_single(dev, p, 4, DMA_TO_DEVICE);\n}\n",
    "typedef int\n", "typedef unsigned int u32_t;\n",
    "/* a comment\n}\nstill the comment */\n", "/* open comment\n",
    "*/\n", '"text\n}\n"\n', 'static char *s = "one line";\n',
    "'}'\n", "'\n", "}\n", "};\n", "{\n", "}x\n", "  }\n", "\n",
    "#include <linux/x.h>\n", "// a } comment\n", "struct fwd;\n",
    "int proto(int a);\n", "int broken(\n", ")\n", "int f(void)\n",
    "x = 1;\n",
)


def test_per_declaration_parse_equals_parse_file_under_hypothesis(parses):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    junk = st.text(alphabet="{}();,*=/\"'#\nabs ", max_size=12)
    sources = st.lists(st.sampled_from(FRAGMENTS) | junk,
                       max_size=14).map("".join)
    # one memo for every example: it fills up as in a campaign
    # process, and files and pieces recur at other lines
    base = CodeIndex(SourceTree({"a.c": "", "b.c": FRAGMENTS[0]}),
                     cache=PerfCache(enabled=False))

    @settings(max_examples=400, deadline=None)
    @given(sources)
    # a newline in a char literal, which the tokenizer does not count
    @example("'\n'" + FRAGMENTS[0] * 2)
    def check(source):
        assert parse_or_error(_parse_by_declaration, "a.c", source) == \
            parse_or_error(parse_file, "a.c", source)
        tree = SourceTree({"a.c": (source + " ")[:-1], "b.c": source})
        delta = CodeIndex(tree, cache=PerfCache(enabled=False), base=base)
        assert_same_index(delta, CodeIndex(tree,
                                           cache=PerfCache(enabled=False)))

    check()
    assert len(parses) > len(FRAGMENTS)


def test_a_full_piece_memo_is_emptied(monkeypatch, parses):
    monkeypatch.setattr(cindex, "_MAX_PARSES", 2)
    source = "".join(FRAGMENTS[:3])
    parsed = _parse_by_declaration("a.c", source)
    # emptied before the third piece went in
    assert list(parses) == [("a.c", FRAGMENTS[2]), ("a.c", source)]
    assert parse_or_error(lambda *args: parsed, "a.c", source) == \
        parse_or_error(parse_file, "a.c", source)
