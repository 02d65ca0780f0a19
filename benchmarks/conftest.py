"""pytest anchor for ``benchmarks/``; it holds no fixtures.

``PYTHONPATH=src python -m pytest benchmarks/ledger`` runs the ledger's
self-checks and ``... benchmarks/bench_invoke_path.py`` the call-path
ablation; both build their own systems.
"""
