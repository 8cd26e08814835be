"""Deterministic desk-scale rollup sequencer simulator.

Transactions are simulated before inclusion, classified benign or malicious
against contract-declared invariants, quarantined under explicit retirement
and release criteria, and batched to a simulated L1 whose deposit acceptance
bitmap lets any replica re-derive the exact chain."""

from .core import (
    Address,
    Block,
    DepositTransaction,
    DuplicateKey,
    SignedTransaction,
    StateRoot,
    TxHash,
    canonical_encode,
    deposit_id,
    duplicate_key,
    tx_hash,
)
from .detection import CandidateSet, DetectionOutcome, Invariant, InvariantDetector, InvariantSet, Verdict, hybrid_detect
from .derivation import DerivedChain, derive
from .l1da import L1Chain, L1History, L1Record, decode_bitmap, encode_bitmap
from .mempool import Mempool, PoolConfig
from .quarantine import CollateralLedger, QuarantineConfig, QuarantineStore, ReleasedRegistry
from .sequencer import RunOutcome, RunReport, Scenario, Sequencer, SequencerConfig, run
from .vm import (
    Account,
    BlockContext,
    ContractCode,
    Execution,
    WorldState,
    apply_block,
    execute_transaction,
    state_root,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
