"""Deliberately-bad fixture: the simulation core importing serve."""

from repro.serve.store import RunStore  # line 3: forbidden-import (layering)


def lookup(store: RunStore, key):
    return store.get(key)
