"""Host-time benchmark of the ``repro`` CLI: ``python -m bench`` (see README.md)."""
