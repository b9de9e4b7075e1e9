"""On-disk base-corpus snapshots, kept only for ``perfbench/rep.py``.

No campaign reads a snapshot: parallel workers fork from the parent
and inherit its warm mutator (see :mod:`repro.campaign.runner`).
``perfbench/rep.py`` and ``perfbench/spans.py`` are the only callers of
:func:`materialize` left, and the benchmark's files change only in a
change of their own, which deletes this module with them.

A snapshot is two files in a content-addressed directory (named from
the same key as the perfcache corpus entry): ``corpus.bin``, every
file's UTF-8 text concatenated, and ``index.json``, the per-file
``[path, offset, length]`` table and the manifest's ground-truth
sites. Writes go through ``tempfile`` + ``os.replace`` with
``index.json`` last, so a directory with an index is complete.
"""

from __future__ import annotations

import os

from repro import durability
from repro.campaign.mutate import CorpusMutator

#: bump when the on-disk snapshot layout changes
SNAPSHOT_SCHEMA = 1

INDEX_NAME = "index.json"
BLOB_NAME = "corpus.bin"


# only perfbench/rep.py uses this (through materialize)
def snapshot_dir(root: str, mutator: CorpusMutator) -> str:
    """The content-addressed directory one mutator's snapshot lives in."""
    return os.path.join(root, f"snap-{mutator.base_key()[:24]}")


# only perfbench/rep.py uses this (through materialize)
def is_complete(directory: str) -> bool:
    """True when *directory* holds a finished snapshot (index present)."""
    return os.path.exists(os.path.join(directory, INDEX_NAME))


# only perfbench/rep.py calls this (perfbench/spans.py times it)
def materialize(mutator: CorpusMutator, root: str) -> str:
    """Write (or reuse) the snapshot for *mutator* under *root*.

    Returns the snapshot directory. Idempotent and race-free across
    processes: a complete snapshot is returned as-is, and two racing
    writers both produce valid files with the last ``os.replace``
    winning byte-identically (the content is deterministic).
    """
    directory = snapshot_dir(root, mutator)
    if is_complete(directory):
        return directory
    tree, manifest = mutator.base_view()
    os.makedirs(directory, exist_ok=True)

    offsets: list[list] = []
    chunks: list[bytes] = []
    position = 0
    for path in sorted(tree.files):
        data = tree.files[path].encode("utf-8")
        chunks.append(data)
        offsets.append([path, position, len(data)])
        position += len(data)
    durability.atomic_write_bytes(os.path.join(directory, BLOB_NAME),
                                  b"".join(chunks))

    index = {
        "schema": SNAPSHOT_SCHEMA,
        "key": mutator.base_key(),
        "files": offsets,
        "sites": [[s.path, s.line, s.category, sorted(s.exposures)]
                  for s in manifest.sites],
    }
    # index last: a directory with an index is complete by construction
    durability.atomic_write_json(os.path.join(directory, INDEX_NAME),
                                 index, separators=(",", ":"))
    return directory
