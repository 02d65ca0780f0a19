"""pytest anchor for ``benchmarks/``; it holds no fixtures.

``PYTHONPATH=src python -m pytest benchmarks/ledger`` runs the ledger's
self-checks, which build their own systems.
"""
