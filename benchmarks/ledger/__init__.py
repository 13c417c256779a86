"""The repo benchmark: a layered performance ledger (see README.md)."""
