"""Struct layout and callback-reachability analysis (the pahole role).

"SPADE ... uses pahole to explore the compiled binaries for the layout
of the exposed data structures" (section 4.1.1). Given the parsed
struct definitions, this module computes:

* byte layouts (offset/size per field, natural alignment like x86-64);
* **direct callback counts** -- function-pointer fields of the struct,
  including those of structs nested by value (they share the mapped
  page with the buffer);
* **spoofable callback counts** -- walking the pointer graph from the
  struct (each struct type visited once), summing the function-pointer
  fields of every reachable type: a device that can redirect any of
  the exposed pointers to a forged instance controls that many
  callbacks (footnote 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spade.cparse import StructDef, StructField, TypeRef
from repro.errors import AnalysisError

#: x86-64 sizes for the corpus's scalar types.
PRIMITIVE_SIZES = {
    "u8": 1, "u16": 2, "u32": 4, "u64": 8,
    "char": 1, "short": 2, "int": 4, "long": 8,
    "unsigned": 4, "unsigned char": 1, "unsigned short": 2,
    "unsigned int": 4, "unsigned long": 8, "unsigned long long": 8,
    "long long": 8, "float": 4, "double": 8,
    "size_t": 8, "dma_addr_t": 8, "gfp_t": 4, "atomic_t": 4,
    "netdev_features_t": 8, "void": 1,
}

POINTER_SIZE = 8


@dataclass(frozen=True)
class LaidOutField:
    name: str
    offset: int
    size: int
    is_callback: bool
    type: TypeRef | None


@dataclass
class StructLayoutInfo:
    name: str
    size: int
    fields: list[LaidOutField] = field(default_factory=list)

    def callback_fields(self) -> list[LaidOutField]:
        return [f for f in self.fields if f.is_callback]


#: process-wide layout intern table: recursive struct fingerprint ->
#: the one shared StructLayoutInfo. Campaign seeds re-instantiate
#: PaholeDb per mutated corpus, but almost every struct definition is
#: identical across seeds -- interning makes those layouts free.
_LAYOUT_INTERN: dict[str, StructLayoutInfo] = {}


class PaholeDb:
    """Layout/reachability queries over a set of struct definitions."""

    def __init__(self, structs: dict[str, StructDef]) -> None:
        self._structs = structs
        self._layout_cache: dict[str, StructLayoutInfo] = {}
        self._fingerprints: dict[str, str] = {}
        self._direct_memo: dict[str, list[tuple[str, int]]] = {}
        self._targets_memo: dict[str, set[str]] = {}
        self._spoof_memo: dict[str, tuple[int, list[str]]] = {}
        self._reads_memo: dict[str, frozenset[str]] = {}

    def reads(self, name: str) -> frozenset[str]:
        """Every struct name a query on ``struct name`` looks up.

        :meth:`has_struct`, :meth:`layout`, :meth:`direct_callbacks`
        and :meth:`spoofable_callbacks` follow the struct-typed
        non-callback fields, by value and through pointers, and test
        each name against the definitions; this is the transitive
        closure of that walk, misses included (a name with no
        definition is a leaf). Memoized, so a query answered from one
        of the other memos still reports the whole walk. An answer
        stays valid while none of these names is redefined.
        """
        cached = self._reads_memo.get(name)
        if cached is not None:
            return cached
        seen = {name}
        stack = [name]
        while stack:
            struct_def = self._structs.get(stack.pop())
            if struct_def is None:
                continue
            for f in struct_def.fields:
                if not f.is_func_ptr and f.type is not None \
                        and f.type.is_struct and f.type.base not in seen:
                    seen.add(f.type.base)
                    stack.append(f.type.base)
        cached = self._reads_memo[name] = frozenset(seen)
        return cached

    def has_struct(self, name: str) -> bool:
        return name in self._structs

    def struct_def(self, name: str) -> StructDef | None:
        return self._structs.get(name)

    # -- sizes and layout -----------------------------------------------------

    def _field_size_align(self, f: StructField,
                          stack: tuple[str, ...]) -> tuple[int, int]:
        if f.is_func_ptr:
            return POINTER_SIZE * f.func_ptr_count, POINTER_SIZE
        ref = f.type
        if ref is None:
            return POINTER_SIZE, POINTER_SIZE
        if ref.pointer_level > 0:
            base, align = POINTER_SIZE, POINTER_SIZE
        elif ref.is_struct:
            inner = self.layout(ref.base, _stack=stack)
            base, align = inner.size, min(8, inner.size) or 1
        else:
            base = PRIMITIVE_SIZES.get(ref.base, 4)
            align = base
        count = ref.array_len if ref.array_len is not None else 1
        return base * count, align

    def _fingerprint(self, name: str,
                     _stack: tuple[str, ...] = ()) -> str:
        """Recursive identity of everything a layout depends on.

        Two structs with equal fingerprints (across any two corpora or
        PaholeDb instances) lay out identically, so their
        :class:`StructLayoutInfo` can be one interned object.
        """
        cached = self._fingerprints.get(name)
        if cached is not None:
            return cached
        if name in _stack:
            raise AnalysisError(f"recursive by-value struct {name}")
        struct_def = self._structs.get(name)
        if struct_def is None:
            raise AnalysisError(f"unknown struct {name}")
        parts = [name]
        for f in struct_def.fields:
            ref = f.type
            if f.is_func_ptr:
                parts.append(f"{f.name}|fp|{f.func_ptr_count}")
            elif ref is None:
                parts.append(f"{f.name}|ptr")
            elif ref.is_struct and ref.pointer_level == 0 \
                    and ref.base in self._structs:
                parts.append(
                    f"{f.name}|nest|{ref.array_len}|"
                    + self._fingerprint(ref.base, _stack + (name,)))
            else:
                parts.append(f"{f.name}|{ref.base}|{ref.is_struct}|"
                             f"{ref.pointer_level}|{ref.array_len}")
        digest = "|".join(parts)
        self._fingerprints[name] = digest
        return digest

    def layout(self, name: str, *,
               _stack: tuple[str, ...] = ()) -> StructLayoutInfo:
        """Compute the byte layout of ``struct name``."""
        cached = self._layout_cache.get(name)
        if cached is not None:
            return cached
        if name in _stack:
            raise AnalysisError(f"recursive by-value struct {name}")
        struct_def = self._structs.get(name)
        if struct_def is None:
            raise AnalysisError(f"unknown struct {name}")
        fingerprint = self._fingerprint(name, _stack)
        interned = _LAYOUT_INTERN.get(fingerprint)
        if interned is not None:
            self._layout_cache[name] = interned
            return interned
        info = StructLayoutInfo(name, 0)
        offset = 0
        max_align = 1
        for f in struct_def.fields:
            size, align = self._field_size_align(f, _stack + (name,))
            max_align = max(max_align, align)
            offset = -(-offset // align) * align
            info.fields.append(LaidOutField(
                f.name, offset, size,
                is_callback=f.is_func_ptr, type=f.type))
            offset += size
        info.size = -(-offset // max_align) * max_align
        self._layout_cache[name] = info
        _LAYOUT_INTERN[fingerprint] = info
        return info

    # -- callback reachability ---------------------------------------------------

    def direct_callbacks(self, name: str,
                         prefix: str = "") -> list[tuple[str, int]]:
        """(dotted_name, count) of fn-ptr fields on the struct's own
        page image -- including structs nested by value.

        Memoized per struct: the analysis asks for the same struct's
        callbacks once per finding (1019 times over the Table-2
        corpus), and the spoofable-reachability BFS asks again for
        every node it visits.
        """
        base = self._direct_memo.get(name)
        if base is None:
            base = self._direct_callbacks_uncached(name)
            self._direct_memo[name] = base
        if not prefix:
            return list(base)
        return [(prefix + dotted, count) for dotted, count in base]

    def _direct_callbacks_uncached(self, name: str
                                   ) -> list[tuple[str, int]]:
        struct_def = self._structs.get(name)
        if struct_def is None:
            return []
        out: list[tuple[str, int]] = []
        for f in struct_def.fields:
            if f.is_func_ptr:
                out.append((f.name, f.func_ptr_count))
            elif f.type is not None and f.type.is_struct \
                    and f.type.pointer_level == 0 \
                    and f.type.base in self._structs:
                out.extend(self.direct_callbacks(
                    f.type.base, f.name + "."))
        return out

    def direct_callback_count(self, name: str) -> int:
        return sum(count for _n, count in self.direct_callbacks(name))

    def _pointer_targets(self, name: str) -> set[str]:
        cached = self._targets_memo.get(name)
        if cached is None:
            cached = self._pointer_targets_uncached(name)
            self._targets_memo[name] = cached
        return cached

    def _pointer_targets_uncached(self, name: str) -> set[str]:
        struct_def = self._structs.get(name)
        if struct_def is None:
            return set()
        targets = set()
        for f in struct_def.fields:
            if f.is_func_ptr or f.type is None:
                continue
            if f.type.is_struct and f.type.pointer_level > 0 \
                    and f.type.base in self._structs:
                targets.add(f.type.base)
            elif f.type.is_struct and f.type.pointer_level == 0 \
                    and f.type.base in self._structs:
                # by-value nesting: its pointers are our pointers
                targets |= self._pointer_targets(f.type.base)
        return targets

    def spoofable_callbacks(self, name: str) -> tuple[int, list[str]]:
        """(total, visited struct names) reachable via pointer fields.

        BFS over the struct-pointer graph, each type visited once; the
        root's own (direct) callbacks are excluded -- they are counted
        by :meth:`direct_callback_count`.
        """
        cached = self._spoof_memo.get(name)
        if cached is not None:
            total, order = cached
            return total, list(order)
        visited: set[str] = {name}
        queue = sorted(self._pointer_targets(name))
        order: list[str] = []
        total = 0
        while queue:
            current = queue.pop(0)
            if current in visited:
                continue
            visited.add(current)
            order.append(current)
            total += self.direct_callback_count(current)
            for nxt in sorted(self._pointer_targets(current)):
                if nxt not in visited:
                    queue.append(nxt)
        self._spoof_memo[name] = (total, order)
        return total, list(order)
