"""Deterministic desk-scale rollup sequencer simulator.

Transactions are simulated before inclusion, classified benign or malicious
against contract-declared invariants, quarantined under explicit retirement
and release criteria, and batched to a simulated L1 whose deposit acceptance
bitmap lets any replica re-derive the exact chain.

Importing the package loads none of its modules: import the one you need
(`rollupsim.sequencer`, `rollupsim.derivation`, `rollupsim.formats`, ...)."""

__version__ = "0.1.0"
