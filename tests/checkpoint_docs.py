"""Checkpoint documents in older formats, built by hand for the load tests."""


def v1_document(ckpt) -> dict:
    """The format-v1 document of ckpt: each tensor as nested decimal arrays, no symbol table."""
    doc = ckpt.to_document()
    doc["v"] = 1
    del doc["symbols"]
    doc["params"] = {name: t.tolist() for name, t in ckpt.params.named()}
    return doc
