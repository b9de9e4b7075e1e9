"""CodeIndex: symbol cross-references over a source tree."""

import pytest

from repro.core.spade.cindex import CodeIndex
from repro.corpus.generate import SourceTree


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
