"""Whole-pipeline fuzz: random scenarios must stay worker-invariant and
re-derivable byte for byte from their L1 export."""
import random

from rollupsim.core import encode_block
from rollupsim.derivation import derive
from rollupsim.formats import parse_history, parse_scenario, render_history, render_report
from rollupsim.sequencer import run

GATED_VAULT = (
    "(set 'paused' (or (and (sload 'paused') (not (and (eq caller 0xa1) (eq calldata 1)))) "
    "(and (eq caller 0xa1) (eq calldata 2)))) "
    "(require (or (eq caller 0xa1) (not (sload 'paused')))) "
    "(pay caller (mul (balance self) (not (eq caller 0xa1))))"
)


def random_scenario_text(rng):
    lines = ["scenario v1 name=fuzz", "config fee_recipient=0xfe operators=0xee"]
    bpe = rng.choice([1, 2, 4])
    blocks = rng.randrange(2, 9)
    lines.append(f"config blocks_per_epoch={bpe} detection_budget={rng.choice(['2', '16', 'unlimited'])}")
    n_accounts = rng.randrange(3, 8)
    for i in range(n_accounts):
        lines.append(f"genesis account 0x{0x01 + i:02x} balance={rng.randrange(100, 20000)}")
    lines.append("genesis account 0xa1 balance=20000")
    storage = " storage='paused'=1" if rng.random() < 0.5 else ""
    lines.append(f"genesis contract 0xc3 admin=0xa1 balance={rng.choice([0, 60, 100])}{storage} code={{{GATED_VAULT}}}")
    lines.append("genesis invariant id=solvent contract=0xc3 registered_by=0xa1 predicate={(ge (balance self) 50)}")
    lines.append(f"run blocks={blocks}")
    nonces = {}
    l1_count = 0
    t = 0
    for _ in range(rng.randrange(1, 14)):
        t += rng.randrange(0, 3)
        if t > blocks * 2:
            break
        roll = rng.random()
        if roll < 0.5:
            sender = f"0x{0x01 + rng.randrange(n_accounts):02x}"
            nonce = nonces.get(sender, 0)
            nonces[sender] = nonce + 1
            if rng.random() < 0.4:
                data = rng.choice(["0x00", "0x00", "0x01", "0x02"])
                lines.append(
                    f"event {t} submit sender={sender} nonce={nonce} to=0xc3 data={data} "
                    f"max_fee={rng.randrange(1, 4)} gas_limit=30"
                )
            else:
                to = f"0x{0x01 + rng.randrange(n_accounts):02x}"
                lines.append(
                    f"event {t} submit sender={sender} nonce={nonce} to={to} "
                    f"value={rng.randrange(0, 40)} max_fee={rng.randrange(1, 4)} gas_limit=21"
                )
        elif roll < 0.65:
            head = l1_count * bpe
            if head < blocks and t <= (head + 1) * 2:
                deps = []
                for j in range(rng.randrange(0, 4)):
                    if rng.random() < 0.3:
                        deps.append(f"sender=0x{0xD0 + j:02x} recipient=0xc3 value=0 data=0x00 gas_limit=30")
                    else:
                        deps.append(
                            f"sender=0x{0xD0 + j:02x} recipient=0x{0x40 + j:02x} "
                            f"value={rng.randrange(1, 30)} gas_limit=21"
                        )
                body = f"deposits={{{' ; '.join(deps)}}}" if deps else "deposits=-"
                lines.append(f"event {t} l1_block {body}")
                l1_count += 1
        elif roll < 0.8:
            lines.append(f"event {t} set_base_fee fee={rng.randrange(1, 4)}")
        elif roll < 0.9:
            lines.append(f"event {t} stake account=0x{0x01 + rng.randrange(n_accounts):02x} amount={rng.randrange(0, 200)}")
        else:
            lines.append(f"event {t} advance seconds={rng.randrange(0, 30)}")
    return "\n".join(lines) + "\n"


def test_random_scenarios_worker_invariant_and_rederivable():
    rng = random.Random(20_077)
    for case in range(60):
        text = random_scenario_text(rng)
        out1 = run(parse_scenario(text))
        scn = parse_scenario(text)
        scn.seq_config = scn.seq_config._replace(workers=4)
        out2 = run(scn)
        assert render_report(out1.report) == render_report(out2.report), f"case {case}"
        derived = derive(parse_history(render_history(out1.history)))
        assert [encode_block(b) for b in derived.blocks] == [
            encode_block(b) for b in out1.sequencer.chain.blocks
        ], f"case {case}"
        assert derived.final_root == out1.report.final_root, f"case {case}"
