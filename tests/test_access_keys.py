"""Access keys and the classifier's write index, against their oracles.

`AccessKey` is a plain tuple so that hashing, equality and ordering run in
C; `ReferenceAccessKey` is the original frozen dataclass over an `IntEnum`,
and the two must agree on everything a caller can observe. The classifier's
index of benign writes is held to the pairwise set intersection it replaced.
"""
import sys

from hypothesis import given, settings, strategies as st

from helpers import ATTACKER, VAULT, addr, ctx, exploit_tx, solvency_invariant, unpause_tx, vault_state
from reference_vm import ReferenceAccessKey, ReferenceAccessKind
from rollupsim.detection import CandidateSet, InvariantDetector, InvariantSet, hybrid_detect
from rollupsim.vm import AccessKey, AccessKind, execute_transaction

ADDRS = [addr(n) for n in (1, 2, 3, 0xC3)]
SLOTS = [b"", bytes(32), (1).to_bytes(32, "big"), (2).to_bytes(32, "big")]

triples = st.tuples(st.integers(0, 3), st.sampled_from(ADDRS), st.sampled_from(SLOTS))


def both(triple):
    kind, address, slot = triple
    return AccessKey(kind, address, slot), ReferenceAccessKey(ReferenceAccessKind(kind), address, slot)


def fields(key):
    return (int(key.kind), key.addr, key.slot)


class TestAccessKeyMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(triples, min_size=1, max_size=12), triples)
    def test_equality_membership_and_order(self, drawn, probe):
        pairs = [both(t) for t in drawn]
        fast = [f for f, _ in pairs]
        ref = [r for _, r in pairs]
        for f1, r1 in pairs:
            assert fields(f1) == fields(r1)
            assert type(f1.kind) is int
            for f2, r2 in pairs:
                assert (f1 == f2) == (r1 == r2)
                assert (f1 < f2) == (r1 < r2)
        probe_fast, probe_ref = both(probe)
        assert (probe_fast in set(fast)) == (probe_ref in set(ref))
        assert (probe_fast in frozenset(fast)) == (probe_ref in frozenset(ref))
        assert len(set(fast)) == len(set(ref))
        assert [fields(k) for k in sorted(fast)] == [fields(k) for k in sorted(ref)]

    @given(st.sampled_from(ADDRS), st.sampled_from(SLOTS))
    def test_constructors_match_reference(self, address, slot):
        made = [
            AccessKey.storage(address, slot), AccessKey.balance(address), AccessKey.nonce(address), AccessKey(AccessKind.CODE, address)
        ]
        expected = [
            ReferenceAccessKey.storage(address, slot),
            ReferenceAccessKey.balance(address),
            ReferenceAccessKey.nonce(address),
            ReferenceAccessKey.code(address),
        ]
        assert [fields(k) for k in made] == [fields(k) for k in expected]
        assert all(type(k) is AccessKey and type(k.kind) is int for k in made)
        assert made[1] == AccessKey(AccessKind.BALANCE, address)

    def test_kind_values(self):
        assert (AccessKind.STORAGE, AccessKind.BALANCE, AccessKind.NONCE, AccessKind.CODE) == (0, 1, 2, 3)


class TestKeysStayInC:
    """No Python-level hash, comparison or enum code runs while a contract
    call is executed, judged and classified. A key type that brings any of
    them back fails here."""

    FORBIDDEN = {"__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"}

    def test_no_python_level_key_methods(self):
        state = vault_state(paused=False)
        invariants = InvariantSet()
        invariants.register(solvency_invariant(), state)
        detector = InvariantDetector()
        calls = []

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                calls.append((code.co_name, code.co_filename))

        sys.setprofile(profile)
        try:
            sim = execute_transaction(state, exploit_tx(), ctx())
            verdict, probe_reads = detector.assess(sim, state, invariants)
            outcome = hybrid_detect(
                CandidateSet((unpause_tx(), exploit_tx()), state), invariants, detector, ctx()
            )
        finally:
            sys.setprofile(None)

        assert verdict.malicious and probe_reads
        assert len(outcome.malicious) == 1 and outcome.stats.sequential_verdicts == 1
        assert calls, "the profile hook saw no calls"
        offending = [
            (name, filename)
            for name, filename in calls
            if name in self.FORBIDDEN or filename.replace("\\", "/").endswith("/enum.py")
        ]
        assert offending == []


def step_sets(keys):
    return st.frozensets(st.sampled_from(keys), max_size=4)


KEYS = [AccessKey.balance(a) for a in ADDRS] + [AccessKey.storage(VAULT, s) for s in SLOTS[1:]] + [
    AccessKey.nonce(ATTACKER)
]


class TestWriteIndexMatchesPairwiseCheck:
    """`hybrid_detect` records each benign write in one dict (key to the
    index of its first benign writer). A candidate is influenced iff it read
    one of those keys, which must agree with the pairwise intersection the
    index replaced, and the earliest writer it read from must be the index
    stored for that key."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(step_sets(KEYS), step_sets(KEYS), st.booleans()), max_size=12))
    def test_influence_and_first_writer(self, steps):
        written = {}
        benign_writes = []
        for reads, writes, benign in steps:
            influenced = not written.keys().isdisjoint(reads)
            assert influenced == any(w & reads for w in benign_writes)
            first = min((i for i, w in enumerate(benign_writes) if w & reads), default=None)
            assert first == min((written[k] for k in reads if k in written), default=None)
            if benign:
                for key in writes:
                    written.setdefault(key, len(benign_writes))
                benign_writes.append(writes)
