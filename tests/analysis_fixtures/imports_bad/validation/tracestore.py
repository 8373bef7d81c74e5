"""Deliberately-bad fixture: pickle in the pickle-free trace store."""

import pickle  # line 3: forbidden-import (pickle in the trace store)


def encode(payload):
    return pickle.dumps(payload)
