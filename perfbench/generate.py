"""Seeded scenario generators for the three benchmark workloads.

Each generator turns (seed) into the text of a `.scn` file plus the outcome
the run must reach: how many transactions are included, quarantined,
released and still pooled, and a few balances and storage slots that follow
from the schedule alone. The simulator only ever sees the text.

Every event for block i is stamped t = 2i + 1 (block time 2, genesis 0), so
the load is an open loop in simulated time: it arrives on schedule however
fast the host builds blocks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

FEE_RECIPIENT = 0xFE
OPERATOR = 0xEE
ADMIN = 0xA1

# The classic pause-guarded vault: pays its whole balance to any caller but
# the admin, which the solvency invariant flags.
VAULT_CODE = (
    "(set 'paused' (or (and (sload 'paused') (not (and (eq caller 0xa1) (eq calldata 1)))) "
    "(and (eq caller 0xa1) (eq calldata 2)))) (require (or (eq caller 0xa1) (not (sload 'paused')))) "
    "(pay caller (mul (balance self) (not (eq caller 0xa1))))"
)
COUNTER_CODE = "(set 'count' (add (sload 'count') 1))"
COUNT_SLOT = int.from_bytes(b"count", "big")
SOLVENT = "{(ge (balance self) 50)}"


@dataclass
class Expect:
    """What a correct run of a generated scenario must end with."""

    included_txs: int = 0
    included_deposits: int = 0
    entries: int = 0
    released: int = 0
    pool_end: int = 0
    blocks: int = 0
    offered_per_block: int = 0
    balances: Dict[str, int] = field(default_factory=dict)
    slots: Dict[str, Dict[str, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    blocks: int
    actors: int  # senders (transfer_bulk), flooders, honest callers
    per_block: int = 0
    contracts: int = 0
    budget: int = 0


SIZES = {
    "transfer_bulk": Sizes(blocks=100, actors=200),
    "quarantine_flood": Sizes(blocks=150, actors=400),
    "contract_contention": Sizes(blocks=100, actors=48, per_block=12, contracts=4, budget=16),
}


def hexaddr(value: int) -> str:
    return "0x" + value.to_bytes(20, "big").hex()


class _Addresses:
    """Distinct random 160-bit addresses, clear of the small reserved ones."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def fresh(self) -> int:
        while True:
            value = self.rng.getrandbits(160)
            if value > 0xFFFF and value not in self.used:
                self.used.add(value)
                return value


def _at(block: int) -> int:
    return 2 * block + 1


def _header(name: str, config: str, blocks: int) -> Tuple[List[str], str]:
    head = [f"scenario v1 name={name}", f"config fee_recipient={hexaddr(FEE_RECIPIENT)} workers=1 {config}".rstrip()]
    return head, f"run blocks={blocks}"


def transfer_bulk(seed: int, sizes: Sizes = SIZES["transfer_bulk"]) -> Tuple[str, Expect]:
    """Funded senders, no contracts: each sends a two-nonce chain of value
    transfers to fresh addresses, nonce 0 in the first half of the run and
    nonce 1 in the second, evenly spread so every block carries the same load."""
    rng = random.Random(f"transfer_bulk:{seed}")
    addrs = _Addresses(rng)
    n, blocks = sizes.actors, sizes.blocks
    half = blocks // 2
    head, run = _header("transfer_bulk", "detection_budget=unlimited", blocks)
    senders = [addrs.fresh() for _ in range(n)]
    lines = head + [f"genesis account {hexaddr(s)} balance={rng.randint(5_000, 100_000)}" for s in senders]
    expect = Expect(included_txs=2 * n, blocks=blocks)
    schedule: List[Tuple[int, str]] = []
    for nonce in (0, 1):
        order = list(range(n))
        rng.shuffle(order)
        for slot, k in enumerate(order):
            block = nonce * half + slot * half // n
            to, value = addrs.fresh(), rng.randint(1, 1_000)
            expect.balances[hexaddr(to)] = value
            schedule.append(
                (block, f"submit sender={hexaddr(senders[k])} nonce={nonce} to={hexaddr(to)} value={value} gas_limit=21")
            )
    expect.offered_per_block = _offered(schedule)
    return _render(lines, run, schedule), expect


def quarantine_flood(seed: int, sizes: Sizes = SIZES["quarantine_flood"]) -> Tuple[str, Expect]:
    """Flooders each submit one drain of an invariant-guarded vault over the
    first sixth of the run; every drain is quarantined and held to the end.
    A thin benign flow carries one transfer per block. The pool caps are
    raised so the flood is held, never evicted."""
    rng = random.Random(f"quarantine_flood:{seed}")
    addrs = _Addresses(rng)
    flooders, blocks = sizes.actors, sizes.blocks
    admission_blocks = max(1, blocks // 6)
    vault, vault_balance = addrs.fresh(), rng.randint(100, 10_000)
    head, run = _header(
        "quarantine_flood",
        f"max_pending={4 * flooders} max_queued={4 * flooders} operators={hexaddr(OPERATOR)}",
        blocks,
    )
    lines = head + [
        f"genesis contract {hexaddr(vault)} admin={hexaddr(ADMIN)} balance={vault_balance} code={{{VAULT_CODE}}}",
        f"genesis invariant id=vault-solvent contract={hexaddr(vault)} registered_by={hexaddr(ADMIN)} predicate={SOLVENT}",
    ]
    flood = [addrs.fresh() for _ in range(flooders)]
    lines += [f"genesis account {hexaddr(f)} balance={rng.randint(100, 1_000)}" for f in flood]
    benign = [addrs.fresh() for _ in range(8)]
    lines += [f"genesis account {hexaddr(b)} balance=1000000" for b in benign]
    sinks = [addrs.fresh() for _ in range(16)]
    expect = Expect(
        included_txs=blocks, entries=flooders, pool_end=flooders, blocks=blocks, balances={hexaddr(vault): vault_balance}
    )
    schedule: List[Tuple[int, str]] = []
    for k, f in enumerate(flood):
        schedule.append((k * admission_blocks // flooders, f"submit sender={hexaddr(f)} nonce=0 to={hexaddr(vault)} data=0x00 gas_limit=30"))
    nonces = [0] * len(benign)
    received: Dict[int, int] = {}
    for block in range(blocks):
        i = rng.randrange(len(benign))
        to, value = rng.choice(sinks), rng.randint(1, 100)
        received[to] = received.get(to, 0) + value
        schedule.append((block, f"submit sender={hexaddr(benign[i])} nonce={nonces[i]} to={hexaddr(to)} value={value} gas_limit=21"))
        nonces[i] += 1
    expect.balances.update({hexaddr(a): v for a, v in received.items()})
    expect.offered_per_block = _offered(schedule)
    return _render(lines, run, schedule), expect


def contract_contention(seed: int, sizes: Sizes = SIZES["contract_contention"]) -> Tuple[str, Expect]:
    """Honest senders bump shared storage counters on a few invariant-guarded
    contracts every block, so all but the first call per contract are
    re-simulated in context under a finite budget. Each epoch also brings L1
    deposits (two value deposits, a counter call, a refused vault drain); dedicated
    attacker accounts drain bait vaults and are quarantined, and some of them
    are released by operator approval or by stake. The last blocks take no
    new load so every honest call lands."""
    rng = random.Random(f"contract_contention:{seed}")
    addrs = _Addresses(rng)
    blocks, per_block, bpe = sizes.blocks, sizes.per_block, 4
    tail = 4
    head, run = _header(
        "contract_contention",
        f"detection_budget={sizes.budget} blocks_per_epoch={bpe} operators={hexaddr(OPERATOR)}",
        blocks,
    )
    counters = [addrs.fresh() for _ in range(sizes.contracts)]
    vaults = [addrs.fresh() for _ in range(2)]
    honest = [addrs.fresh() for _ in range(sizes.actors)]
    lines = list(head)
    for c in counters:
        lines.append(f"genesis contract {hexaddr(c)} admin={hexaddr(ADMIN)} balance=1000 code={{{COUNTER_CODE}}}")
        lines.append(f"genesis invariant id=solvent contract={hexaddr(c)} registered_by={hexaddr(ADMIN)} predicate={SOLVENT}")
    for v in vaults:
        lines.append(f"genesis contract {hexaddr(v)} admin={hexaddr(ADMIN)} balance={rng.randint(100, 1_000)} code={{{VAULT_CODE}}}")
        lines.append(f"genesis invariant id=vault-solvent contract={hexaddr(v)} registered_by={hexaddr(ADMIN)} predicate={SOLVENT}")
    lines += [f"genesis account {hexaddr(h)} balance=1000000" for h in honest]

    expect = Expect(blocks=blocks)
    calls = {c: 0 for c in counters}
    nonces = {h: 0 for h in honest}
    attackers: List[Tuple[int, str, int]] = []  # (block submitted, label, address)
    schedule: List[Tuple[int, str]] = []
    for block in range(blocks):
        if block % bpe == 0 and block // bpe * bpe + bpe <= blocks - tail:
            deposits = []
            for _ in range(2):
                to, value = addrs.fresh(), rng.randint(1, 500)
                expect.balances[hexaddr(to)] = value
                deposits.append(f"sender={hexaddr(addrs.fresh())} recipient={hexaddr(to)} value={value} gas_limit=21")
            c = rng.choice(counters)
            calls[c] += 1
            deposits.append(f"sender={hexaddr(addrs.fresh())} recipient={hexaddr(c)} value=0 data=0x00 gas_limit=30")
            deposits.append(f"sender={hexaddr(addrs.fresh())} recipient={hexaddr(rng.choice(vaults))} value=0 data=0x00 gas_limit=30")
            expect.included_deposits += len(deposits) - 1
            expect.entries += 1
            schedule.append((block, f"l1_block deposits={{{' ; '.join(deposits)}}}"))
        if block >= blocks - tail:
            continue
        # Every contract takes the same share of a block's calls, so the
        # contextual work per block does not depend on the seed.
        targets = [counters[k % len(counters)] for k in range(per_block)]
        rng.shuffle(targets)
        for h, c in zip(rng.sample(honest, per_block), targets):
            calls[c] += 1
            schedule.append((block, f"submit sender={hexaddr(h)} nonce={nonces[h]} to={hexaddr(c)} data=0x00 gas_limit=30"))
            nonces[h] += 1
            expect.included_txs += 1
        if block % 3 == 0:
            attacker, label = addrs.fresh(), f"x{block}"
            lines.append(f"genesis account {hexaddr(attacker)} balance={rng.randint(1_000, 5_000)}")
            schedule.append((block, f"submit as={label} sender={hexaddr(attacker)} nonce=0 to={hexaddr(rng.choice(vaults))} data=0x00 gas_limit=30"))
            attackers.append((block, label, attacker))
            expect.entries += 1
        # Release one drain admitted at least three blocks ago, alternating
        # operator approval and stake.
        if block % 9 == 5:
            ready = [a for a in attackers if a[0] <= block - 3]
            if ready:
                _submitted, label, attacker = ready[0]
                attackers.remove(ready[0])
                if (block // 9) % 2 == 0:
                    schedule.append((block, f"approve_release tx=@{label} approver={hexaddr(OPERATOR)}"))
                else:
                    schedule.append((block, f"stake account={hexaddr(attacker)} amount=1000000"))
                expect.released += 1
                expect.included_txs += 1
    expect.pool_end = len(attackers)
    expect.slots = {hexaddr(c): {str(COUNT_SLOT): n} for c, n in calls.items() if n}
    expect.offered_per_block = _offered(schedule)
    return _render(lines, run, schedule), expect


def _offered(schedule: List[Tuple[int, str]]) -> int:
    per_block: Dict[int, int] = {}
    for block, line in schedule:
        if line.startswith("submit"):
            per_block[block] = per_block.get(block, 0) + 1
    return max(per_block.values(), default=0)


def _render(lines: List[str], run: str, schedule: List[Tuple[int, str]]) -> str:
    # The sort is stable, so events of one block keep their generated order.
    events = [f"event {_at(block)} {body}" for block, body in sorted(schedule, key=lambda item: item[0])]
    return "\n".join(lines + [run] + events) + "\n"


GENERATORS = {
    "transfer_bulk": transfer_bulk,
    "quarantine_flood": quarantine_flood,
    "contract_contention": contract_contention,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> Tuple[str, Expect]:
    """Return the scenario text and the expected outcome for one seed."""
    return GENERATORS[workload](seed)
