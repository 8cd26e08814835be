"""Line-oriented text formats: scenario files, run reports, L1 history.

All three share one shape: a versioned header line, then one record per
line as `directive key=value ...`. Values containing spaces or lists are
wrapped in braces; `#` starts a comment; blank lines are ignored. Contract
code and invariant predicates use a small s-expression syntax:

    atoms       42, 0x2a, 'paused' (utf-8 bytes read as a big-endian int),
                caller, callvalue, calldata, self
    expressions (const X) (sload K) (balance A) (add|sub|mul|eq|lt|and|or L R)
                (not E); sugar: (ge a b) (gt a b) (le a b) (ne a b); a bare
                atom in expression position means (const atom)
    statements  (require E) (set K V) (pay TO AMOUNT) (pause-guard K)

Addresses are 0x-hex, left-padded to 20 bytes, so `0x0a` is a valid short
form. Scenario `submit` events may carry `as=<label>`; later events refer to
that transaction as `tx=@<label>`.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Address,
    DepositTransaction,
    SignedTransaction,
    StateRoot,
    TxHash,
    U64_MAX,
    U128_MAX,
    decode_deposit,
    encode_deposit,
    tx_hash,
)
from .detection import Counters, Invariant
from .l1da import L1Block, L1History, L1Record
from .mempool import PoolConfig
from .quarantine import AuditEvent, QuarantineConfig
from .sequencer import (
    AdvanceEvent,
    ApproveReleaseEvent,
    BlockSummary,
    EntrySummary,
    Event,
    FailureReleaseEvent,
    L1BlockEvent,
    PoolSummary,
    RunReport,
    Scenario,
    ScenarioError,
    SequencerConfig,
    SetBaseFeeEvent,
    StakeEvent,
    SubmitEvent,
)
from . import vm
from .vm import Account, ContractCode, Expr, Statement, WorldState, make_state


# ---------------------------------------------------------------------------
# low-level line machinery
# ---------------------------------------------------------------------------

def _split_fields(line: str, lineno: int) -> List[str]:
    """Split a line on whitespace, keeping {...} groups intact."""
    if "{" not in line and "}" not in line:
        return line.split()  # splits on exactly the characters `str.isspace` accepts
    fields: List[str] = []
    buf: List[str] = []
    depth = 0
    for ch in line:
        if ch == "{":
            depth += 1
            buf.append(ch)
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ScenarioError("unbalanced '}'", line=lineno)
            buf.append(ch)
        elif ch.isspace() and depth == 0:
            if buf:
                fields.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise ScenarioError("unbalanced '{'", line=lineno)
    if buf:
        fields.append("".join(buf))
    return fields


def _kv(fields: Sequence[str], lineno: int) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for f in fields:
        if "=" not in f:
            raise ScenarioError(f"expected key=value, got {f!r}", line=lineno)
        key, value = f.split("=", 1)
        if key in out:
            raise ScenarioError(f"duplicate field {key!r}", line=lineno)
        out[key] = value
    return out


def _unbrace(value: str) -> str:
    if value.startswith("{") and value.endswith("}"):
        return value[1:-1].strip()
    return value


def _parse_int(
    value: str, lineno: int, what: str = "integer", minimum: Optional[int] = None, maximum: Optional[int] = None
) -> int:
    """The one integer reader of all three formats: decimal or 0x-hex."""
    try:
        number = int(value, 16) if value.startswith("0x") else int(value)
    except ValueError:
        raise ScenarioError(f"{what} must be an integer, got {value!r}", line=lineno) from None
    if minimum is not None and number < minimum:
        raise ScenarioError(f"{what} must be at least {minimum}, got {number}", line=lineno)
    if maximum is not None and number > maximum:
        raise ScenarioError(f"{what} must be at most {maximum}, got {number}", line=lineno)
    return number


_HEX_RE = re.compile(r"[0-9a-fA-F]*")


def _parse_address(value: str, lineno: int) -> Address:
    if not value.startswith("0x"):
        raise ScenarioError(f"address must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) > 40 or len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad address: {value!r}", line=lineno)
    return Address(bytes.fromhex(digits.rjust(40, "0")))


def _parse_bytes(value: str, lineno: int) -> bytes:
    if not value.startswith("0x"):
        raise ScenarioError(f"byte string must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad byte string: {value!r}", line=lineno)
    return bytes.fromhex(digits)


def _fmt_bytes(blob: bytes) -> str:
    return "0x" + blob.hex()


def _fmt_list(items: Sequence[str]) -> str:
    return ",".join(items) if items else "-"


def _parse_list(value: str) -> List[str]:
    return [] if value == "-" else value.split(",")


# ---------------------------------------------------------------------------
# s-expressions
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|'[^']*'|[^\s()']+")


def _tokenize_sexpr(text: str, lineno: int) -> List[str]:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens).replace("(", "").replace(")", "") == "" and text.strip():
        raise ScenarioError(f"cannot tokenize {text!r}", line=lineno)
    return tokens


def _read_form(tokens: List[str], pos: int, lineno: int):
    if pos >= len(tokens):
        raise ScenarioError("unexpected end of expression", line=lineno)
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_form(tokens, pos, lineno)
            items.append(item)
        if pos >= len(tokens):
            raise ScenarioError("missing ')'", line=lineno)
        return items, pos + 1
    if tok == ")":
        raise ScenarioError("unexpected ')'", line=lineno)
    return tok, pos + 1


def _atom_value(tok: str, lineno: int) -> int:
    if tok.startswith("'") and tok.endswith("'"):
        return int.from_bytes(tok[1:-1].encode("utf-8"), "big")
    return _parse_int(tok, lineno, "atom")


_SUGAR = {"ge", "gt", "le", "ne"}


def _build_expr(form, lineno: int) -> Expr:
    if isinstance(form, str):
        if form == "caller":
            return vm.Caller()
        if form == "callvalue":
            return vm.CallValue()
        if form == "calldata":
            return vm.CallData()
        if form == "self":
            return vm.SelfAddr()
        return vm.Const(_atom_value(form, lineno))
    if not form:
        raise ScenarioError("empty expression", line=lineno)
    head = form[0]
    args = form[1:]
    if not isinstance(head, str):
        raise ScenarioError("expression head must be a symbol", line=lineno)

    def need(n: int):
        if len(args) != n:
            raise ScenarioError(f"{head} takes {n} argument(s), got {len(args)}", line=lineno)

    if head == "const":
        need(1)
        if not isinstance(args[0], str):
            raise ScenarioError("const takes an atom", line=lineno)
        return vm.Const(_atom_value(args[0], lineno))
    if head == "sload":
        need(1)
        return vm.SLoad(_build_expr(args[0], lineno))
    if head == "balance":
        need(1)
        return vm.BalanceOf(_build_expr(args[0], lineno))
    if head == "not":
        need(1)
        return vm.Not(_build_expr(args[0], lineno))
    if head in vm.BIN_OPS:
        need(2)
        return vm.Bin(head, _build_expr(args[0], lineno), _build_expr(args[1], lineno))
    if head in _SUGAR:
        need(2)
        a = _build_expr(args[0], lineno)
        b = _build_expr(args[1], lineno)
        if head == "ge":
            return vm.Not(vm.Bin("lt", a, b))
        if head == "gt":
            return vm.Bin("lt", b, a)
        if head == "le":
            return vm.Not(vm.Bin("lt", b, a))
        return vm.Not(vm.Bin("eq", a, b))
    raise ScenarioError(f"unknown operator {head!r}", line=lineno)


def _build_statement(form, lineno: int) -> Statement:
    if isinstance(form, str) or not form or not isinstance(form[0], str):
        raise ScenarioError("statement must be a (head ...) form", line=lineno)
    head, args = form[0], form[1:]
    if head == "require" and len(args) == 1:
        return vm.Require(_build_expr(args[0], lineno))
    if head == "pause-guard" and len(args) == 1:
        return vm.PauseGuard(_build_expr(args[0], lineno))
    if head == "set" and len(args) == 2:
        return vm.SetSlot(_build_expr(args[0], lineno), _build_expr(args[1], lineno))
    if head == "pay" and len(args) == 2:
        return vm.Pay(_build_expr(args[0], lineno), _build_expr(args[1], lineno))
    raise ScenarioError(f"bad statement {head!r}", line=lineno)


def parse_expr(text: str, lineno: int = 0) -> Expr:
    tokens = _tokenize_sexpr(text, lineno)
    form, pos = _read_form(tokens, 0, lineno)
    if pos != len(tokens):
        raise ScenarioError("trailing tokens after expression", line=lineno)
    return _build_expr(form, lineno)


def parse_statements(text: str, lineno: int = 0) -> Tuple[Statement, ...]:
    tokens = _tokenize_sexpr(text, lineno)
    statements: List[Statement] = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read_form(tokens, pos, lineno)
        statements.append(_build_statement(form, lineno))
    return tuple(statements)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

# Scenario config key -> (section it sets, field there, least and greatest
# value of an integer key). Integers are decimal or 0x-hex (`16` or `0x10`).
# Times, fees and block counts are hashed as 8 bytes, so nothing exceeds
# 2^64-1; a worker count is a thread count.
MAX_WORKERS = 256
_CONFIG_KEYS = {
    "block_time": ("seq", "block_time", 1, U64_MAX),
    "blocks_per_epoch": ("seq", "blocks_per_epoch", 1, U64_MAX),
    "base_fee": ("seq", "base_fee", 0, U64_MAX),
    "detection_budget": ("seq", "detection_budget", 0, U64_MAX),  # or "unlimited"
    "fee_recipient": ("seq", "fee_recipient", None, None),
    "workers": ("seq", "workers", 1, MAX_WORKERS),
    "genesis_timestamp": ("seq", "genesis_timestamp", 0, U64_MAX),
    "quarantine_period": ("quarantine", "time_criterion_period", 1, U64_MAX),
    "operators": ("quarantine", "operators", None, None),
    "escape_timeout": ("scenario", "escape_timeout", 0, U64_MAX),
    "max_queued": ("pool", "max_queued", 1, U64_MAX),
    "max_pending": ("pool", "max_pending", 1, U64_MAX),
    "replacement_bump": ("pool", "min_replacement_bump_percent", 1, U64_MAX),
    "tx_lifetime": ("pool", "tx_lifetime", 1, U64_MAX),
}


def _config_value(key: str, value: str, lineno: int):
    if key == "fee_recipient":
        return _parse_address(value, lineno)
    if key == "operators":
        return frozenset(_parse_address(a, lineno) for a in value.split(",") if a)
    if key == "detection_budget" and value == "unlimited":
        return None
    _section, _field, minimum, maximum = _CONFIG_KEYS[key]
    return _parse_int(value, lineno, f"config {key}", minimum, maximum)


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    lines = text.splitlines()
    name = default_name
    sections: Dict[str, Dict[str, object]] = {"seq": {}, "pool": {}, "quarantine": {}, "scenario": {}}
    accounts: Dict[Address, Account] = {}
    invariant_decls: List[Tuple[int, Dict[str, str]]] = []
    run_blocks: Optional[int] = None
    events: List[Event] = []
    labels: Dict[str, TxHash] = {}
    l1_count = 0
    last_ts: Optional[int] = None
    header_seen = False
    l1_events: List[Tuple[int, L1BlockEvent]] = []

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = _split_fields(line, lineno)
        head = fields[0]

        if not header_seen:
            if head != "scenario" or len(fields) < 2 or fields[1] != "v1":
                raise ScenarioError("file must start with 'scenario v1'", line=lineno)
            kv = _kv(fields[2:], lineno)
            name = kv.pop("name", default_name)
            if kv:
                raise ScenarioError(f"unknown header field {sorted(kv)[0]!r}", line=lineno)
            header_seen = True
            continue

        if head == "config":
            for key, value in _kv(fields[1:], lineno).items():
                if key not in _CONFIG_KEYS:
                    raise ScenarioError(f"unknown config key {key!r}", line=lineno)
                section, field_name, _, _ = _CONFIG_KEYS[key]
                sections[section][field_name] = _config_value(key, value, lineno)
            continue

        if head == "genesis":
            if fields[1:2] == ["invariant"] and len(fields) >= 3:
                invariant_decls.append((lineno, _kv(fields[2:], lineno)))
            else:
                _parse_state_line(fields, lineno, accounts)
            continue

        if head == "run":
            kv = _kv(fields[1:], lineno)
            run_blocks = _parse_int(kv.pop("blocks"), lineno) if "blocks" in kv else None
            if run_blocks is None or run_blocks < 0 or kv:
                raise ScenarioError("run line must be exactly 'run blocks=N'", line=lineno)
            continue

        if head == "event":
            if len(fields) < 3:
                raise ScenarioError("event line needs a timestamp and a kind", line=lineno)
            ts = _parse_int(fields[1], lineno, "timestamp")
            if last_ts is not None and ts < last_ts:
                raise ScenarioError(f"event timestamps must be non-decreasing (t={ts})", line=lineno)
            last_ts = ts
            kind = fields[2]
            kv = _kv(fields[3:], lineno)
            event = _build_event(ts, kind, kv, lineno, labels, l1_count)
            if isinstance(event, L1BlockEvent):
                l1_count += 1
                l1_events.append((lineno, event))
            events.append(event)
            continue

        raise ScenarioError(f"unknown directive {head!r}", line=lineno)

    if not header_seen:
        raise ScenarioError("empty scenario file", line=len(lines) or 1)
    if run_blocks is None:
        raise ScenarioError("missing 'run blocks=N' line", line=len(lines))

    genesis = make_state(accounts)
    invariants = [_build_invariant(kv, lineno) for lineno, kv in invariant_decls]
    scenario = Scenario(
        name=name,
        seq_config=SequencerConfig(**sections["seq"]),
        pool_config=PoolConfig(**sections["pool"]),
        quarantine_config=QuarantineConfig(**sections["quarantine"]),
        **sections["scenario"],
        genesis=genesis,
        invariants=invariants,
        run_blocks=run_blocks,
        events=events,
    )
    bpe = scenario.seq_config.blocks_per_epoch
    for lineno, event in l1_events:
        if event.number * bpe >= run_blocks:
            raise ScenarioError(
                f"L1 block {event.number} maps to epoch {event.number} whose first L2 block "
                f"{event.number * bpe} is outside the {run_blocks}-block run",
                line=lineno,
            )
    return scenario


def _build_event(ts: int, kind: str, kv: Dict[str, str], lineno: int, labels: Dict[str, TxHash], l1_count: int) -> Event:
    def txref(value: str) -> TxHash:
        if value.startswith("@"):
            if value[1:] not in labels:
                raise ScenarioError(f"unknown label {value!r}", line=lineno)
            return labels[value[1:]]
        if value.startswith("0x") and len(value) == 66:
            return TxHash(bytes.fromhex(value[2:]))
        raise ScenarioError(f"bad tx reference {value!r}", line=lineno)

    if kind == "submit":
        label = kv.pop("as", None)
        to = kv.pop("to", None)
        if to is None:
            raise ScenarioError("submit needs to=<addr|create>", line=lineno)
        recipient = None if to == "create" else _parse_address(to, lineno)
        try:
            tx = SignedTransaction(
                sender=_parse_address(kv.pop("sender"), lineno),
                nonce=_parse_int(kv.pop("nonce", "0"), lineno),
                recipient=recipient,
                value=_parse_int(kv.pop("value", "0"), lineno),
                data=_parse_bytes(kv.pop("data", "0x"), lineno),
                max_fee=_parse_int(kv.pop("max_fee", "1"), lineno),
                priority_fee=_parse_int(kv.pop("priority_fee", "0"), lineno),
                gas_limit=_parse_int(kv.pop("gas_limit", "30"), lineno),
            )
        except KeyError as exc:
            raise ScenarioError(f"submit missing field {exc.args[0]!r}", line=lineno) from None
        except ValueError as exc:
            raise ScenarioError(f"bad transaction: {exc}", line=lineno) from None
        if kv:
            raise ScenarioError(f"unknown submit field {sorted(kv)[0]!r}", line=lineno)
        if label is not None:
            if label in labels:
                raise ScenarioError(f"duplicate label {label!r}", line=lineno)
            labels[label] = tx_hash(tx)
        return SubmitEvent(at=ts, tx=tx)

    if kind == "l1_block":
        deposits: List[DepositTransaction] = []
        body = _unbrace(kv.pop("deposits", "-"))
        groups = [] if body in ("", "-") else [g.strip() for g in body.split(";") if g.strip()]
        for idx, group in enumerate(groups):
            gkv = _kv(_split_fields(group, lineno), lineno)
            try:
                deposits.append(
                    DepositTransaction(
                        l1_block=l1_count,
                        l1_index=idx,
                        sender=_parse_address(gkv.pop("sender"), lineno),
                        recipient=_parse_address(gkv.pop("recipient"), lineno),
                        value=_parse_int(gkv.pop("value", "0"), lineno),
                        data=_parse_bytes(gkv.pop("data", "0x"), lineno),
                        gas_limit=_parse_int(gkv.pop("gas_limit", "30"), lineno),
                    )
                )
            except KeyError as exc:
                raise ScenarioError(f"deposit missing field {exc.args[0]!r}", line=lineno) from None
            except ValueError as exc:
                raise ScenarioError(f"bad deposit: {exc}", line=lineno) from None
            if gkv:
                raise ScenarioError(f"unknown deposit field {sorted(gkv)[0]!r}", line=lineno)
        if kv:
            raise ScenarioError(f"unknown l1_block field {sorted(kv)[0]!r}", line=lineno)
        return L1BlockEvent(at=ts, number=l1_count, deposits=tuple(deposits))

    try:
        if kind == "approve_release":
            event: Event = ApproveReleaseEvent(
                at=ts, key=txref(kv.pop("tx")), approver=_parse_address(kv.pop("approver"), lineno)
            )
        elif kind == "stake":
            event = StakeEvent(
                at=ts,
                account=_parse_address(kv.pop("account"), lineno),
                amount=_parse_int(kv.pop("amount"), lineno, "stake amount", 0, U64_MAX),
            )
        elif kind == "request_failure_release":
            event = FailureReleaseEvent(at=ts, key=txref(kv.pop("tx")))
        elif kind == "set_base_fee":
            event = SetBaseFeeEvent(at=ts, fee=_parse_int(kv.pop("fee"), lineno, "fee", 0, U64_MAX))
        elif kind == "advance":
            event = AdvanceEvent(at=ts, seconds=_parse_int(kv.pop("seconds"), lineno, "advance seconds", minimum=0))
        else:
            raise ScenarioError(f"unknown event kind {kind!r}", line=lineno)
    except KeyError as exc:
        raise ScenarioError(f"{kind} missing field {exc.args[0]!r}", line=lineno) from None
    if kv:
        raise ScenarioError(f"unknown {kind} field {sorted(kv)[0]!r}", line=lineno)
    return event


def _build_invariant(kv: Dict[str, str], lineno: int) -> Invariant:
    try:
        return Invariant(
            id=kv.pop("id"),
            contract=_parse_address(kv.pop("contract"), lineno),
            predicate=parse_expr(_unbrace(kv.pop("predicate")), lineno),
            registered_by=_parse_address(kv.pop("registered_by"), lineno),
        )
    except KeyError as exc:
        raise ScenarioError(f"invariant missing field {exc.args[0]!r}", line=lineno) from None


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------

def render_report(report: RunReport) -> str:
    lines = [f"report v1 scenario={report.scenario}"]
    for b in report.blocks:
        lines.append(
            "block "
            f"number={b.number} time={b.timestamp} base_fee={b.base_fee} epoch={b.epoch} "
            f"parent={_fmt_bytes(b.parent_hash)} root={_fmt_bytes(b.state_root)} "
            f"deposits={_fmt_list([d.hex0x() for d in b.deposit_ids])} "
            f"txs={_fmt_list([h.hex0x() for h in b.tx_hashes])}"
        )
    for e in report.entries:
        lines.append(
            "entry "
            f"key={e.key.hex0x()} kind={e.kind} sender={e.sender.hex0x()} seq={e.sequence} "
            f"admitted_at={e.admitted_at} admitted_block={e.admitted_block} "
            f"violated={_fmt_list(list(e.violated))} "
            f"victims={_fmt_list([v.hex0x() for v in e.victims])} damage={e.damage}"
        )
    for a in report.audit:
        lines.append(
            f"audit entry={a.entry.hex0x()} at={a.at} kind={a.kind} actor={a.actor} detail={{{a.detail}}}"
        )
    for p in report.pool:
        lines.append(
            f"pool key={p.key.hex0x()} sender={p.sender.hex0x()} nonce={p.nonce} "
            f"status={p.status} received_at={p.received_at}"
        )
    c = report.counters
    lines.append(
        "counters "
        f"isolated_sims={c.isolated_sims} contextual_sims={c.contextual_sims} "
        f"maintenance_sims={c.maintenance_sims} release_sims={c.release_sims} "
        f"deferred_count={c.deferred_count} parallel_verdicts={c.parallel_verdicts} "
        f"sequential_verdicts={c.sequential_verdicts}"
    )
    lines.append(f"l1_export {report.l1_export}")
    lines.append(f"final_root {report.final_root.hex0x()}")
    return "\n".join(lines) + "\n"


def _line_error(exc: Exception, head: str, lineno: int) -> ScenarioError:
    """A missing field (`KeyError`) or an unparsable value (`ValueError`) on
    one report or history line, as an error that names the line."""
    if isinstance(exc, KeyError):
        return ScenarioError(f"{head} missing field {exc.args[0]!r}", line=lineno)
    return ScenarioError(f"bad {head}: {exc}", line=lineno)


def parse_report(text: str) -> RunReport:
    report: Optional[RunReport] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        body = raw.lstrip()
        if report is not None and body.startswith("l1_export") and body[9:10] in ("", " ", "\t"):
            # The path is the rest of the line after one separator, verbatim:
            # it may hold spaces, tabs or braces.
            report.l1_export = body[10:]
            if not report.l1_export:
                raise ScenarioError("l1_export needs a value", line=lineno)
            continue
        fields = _split_fields(line, lineno)
        head = fields[0]
        if report is None:
            if head != "report" or len(fields) < 2 or fields[1] != "v1":
                raise ScenarioError("report file must start with 'report v1'", line=lineno)
            report = RunReport(scenario=_kv(fields[2:], lineno).get("scenario", "?"))
            continue
        if head == "report":
            raise ScenarioError("second 'report' header", line=lineno)
        if head == "final_root" and len(fields) < 2:
            raise ScenarioError("final_root needs a value", line=lineno)
        kv = _kv(fields[1:], lineno) if head != "final_root" else {}
        try:
            if head == "block":
                report.blocks.append(
                    BlockSummary(
                        number=_parse_int(kv["number"], lineno, "number"),
                        timestamp=_parse_int(kv["time"], lineno, "time"),
                        base_fee=_parse_int(kv["base_fee"], lineno, "base_fee"),
                        epoch=_parse_int(kv["epoch"], lineno, "epoch"),
                        parent_hash=_parse_bytes(kv["parent"], lineno),
                        deposit_ids=tuple(TxHash.from_hex(h) for h in _parse_list(kv["deposits"])),
                        tx_hashes=tuple(TxHash.from_hex(h) for h in _parse_list(kv["txs"])),
                        state_root=StateRoot(_parse_bytes(kv["root"], lineno)),
                    )
                )
            elif head == "entry":
                report.entries.append(
                    EntrySummary(
                        key=TxHash.from_hex(kv["key"]),
                        kind=kv["kind"],
                        sender=_parse_address(kv["sender"], lineno),
                        sequence=_parse_int(kv["seq"], lineno, "seq"),
                        admitted_at=_parse_int(kv["admitted_at"], lineno, "admitted_at"),
                        admitted_block=_parse_int(kv["admitted_block"], lineno, "admitted_block"),
                        violated=tuple(_parse_list(kv["violated"])),
                        victims=tuple(_parse_address(v, lineno) for v in _parse_list(kv["victims"])),
                        damage=_parse_int(kv["damage"], lineno, "damage"),
                    )
                )
            elif head == "audit":
                report.audit.append(
                    AuditEvent(
                        entry=TxHash.from_hex(kv["entry"]),
                        at=_parse_int(kv["at"], lineno, "at"),
                        kind=kv["kind"],
                        actor=kv["actor"],
                        detail=_unbrace(kv["detail"]),
                    )
                )
            elif head == "pool":
                report.pool.append(
                    PoolSummary(
                        key=TxHash.from_hex(kv["key"]),
                        sender=_parse_address(kv["sender"], lineno),
                        nonce=_parse_int(kv["nonce"], lineno, "nonce"),
                        status=kv["status"],
                        received_at=_parse_int(kv["received_at"], lineno, "received_at"),
                    )
                )
            elif head == "counters":
                report.counters = Counters(**{name: _parse_int(kv[name], lineno, name) for name in Counters.__slots__})
            elif head == "final_root":
                report.final_root = StateRoot(_parse_bytes(fields[1], lineno))
            else:
                raise ScenarioError(f"unknown report directive {head!r}", line=lineno)
        except (KeyError, ValueError) as exc:
            raise _line_error(exc, head, lineno) from None
    if report is None:
        raise ScenarioError("empty report file", line=1)
    return report


# ---------------------------------------------------------------------------
# world state declarations (shared by scenarios and the L1 history export)
# ---------------------------------------------------------------------------

def render_state(state: WorldState) -> List[str]:
    lines: List[str] = []
    for addr in sorted(state.accounts):
        acct = state.accounts[addr]
        if acct.code is None:
            lines.append(f"genesis account {addr.hex0x()} balance={acct.balance} nonce={acct.nonce}")
        else:
            storage = _fmt_list(
                [f"{hex(vm.slot_int(k))}={hex(vm.slot_int(v))}" for k, v in sorted(acct.storage.items())]
            )
            lines.append(
                f"genesis contract {addr.hex0x()} admin={acct.code.admin.hex0x()} "
                f"balance={acct.balance} storage={storage} code={{{vm.code_text(acct.code)}}}"
            )
    return lines


def _parse_state_line(fields: List[str], lineno: int, accounts: Dict[Address, Account]) -> None:
    """One `genesis account|contract` line, as scenarios and L1 histories write it."""
    if len(fields) < 3:
        raise ScenarioError("genesis line needs a kind and an address/id", line=lineno)
    kind = fields[1]
    if kind not in ("account", "contract"):
        raise ScenarioError(f"unknown genesis kind {kind!r}", line=lineno)
    addr = _parse_address(fields[2], lineno)
    kv = _kv(fields[3:], lineno)
    if kind == "account":
        acct = Account(
            balance=_parse_int(kv.pop("balance", "0"), lineno, "balance", 0, U128_MAX),
            nonce=_parse_int(kv.pop("nonce", "0"), lineno, "nonce", 0, U64_MAX),
        )
    else:
        if "admin" not in kv:
            raise ScenarioError("contract needs admin=", line=lineno)
        admin = _parse_address(kv.pop("admin"), lineno)
        code = ContractCode(admin=admin, statements=parse_statements(_unbrace(kv.pop("code", "{}")), lineno))
        storage: Dict[bytes, bytes] = {}
        for pair in _parse_list(kv.pop("storage", "-")):
            if "=" not in pair:
                raise ScenarioError(f"bad storage pair {pair!r}", line=lineno)
            k, v = pair.split("=", 1)
            storage[vm.slot_bytes(_atom_value(k, lineno))] = vm.slot_bytes(_atom_value(v, lineno))
        balance = _parse_int(kv.pop("balance", "0"), lineno, "balance", 0, U128_MAX)
        acct = Account(balance=balance, nonce=0, code=code, storage=storage)
    if kv:
        raise ScenarioError(f"unknown {kind} field {sorted(kv)[0]!r}", line=lineno)
    accounts[addr] = acct


# ---------------------------------------------------------------------------
# L1 history files
# ---------------------------------------------------------------------------

def render_history(history: L1History) -> str:
    lines = [
        "l1history v1",
        f"config fee_recipient={history.fee_recipient.hex0x()} blocks_per_epoch={history.blocks_per_epoch}",
    ]
    lines.extend(render_state(history.genesis))
    for block in history.blocks:
        deposits = _fmt_list([encode_deposit(d).hex() for d in block.deposits])
        lines.append(f"l1block number={block.number} time={block.timestamp} deposits={deposits}")
    for record in history.inbox:
        line = (
            f"record epoch={record.epoch} l2_number={record.l2_number} l2_time={record.l2_timestamp} "
            f"l2_base_fee={record.l2_base_fee} batch={_fmt_list([b.hex() for b in record.batch])}"
        )
        if record.has_bitmap:
            words = _fmt_list([hex(w) for w in record.bitmap])
            line += f" deposit_count={record.deposit_count} bitmap={words}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_history(text: str) -> L1History:
    fee_recipient: Optional[Address] = None
    blocks_per_epoch = 4
    accounts: Dict[Address, Account] = {}
    blocks: List[L1Block] = []
    inbox: List[L1Record] = []
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = _split_fields(line, lineno)
        head = fields[0]
        if not header_seen:
            if head != "l1history" or len(fields) < 2 or fields[1] != "v1":
                raise ScenarioError("file must start with 'l1history v1'", line=lineno)
            header_seen = True
            continue
        try:
            if head == "config":
                kv = _kv(fields[1:], lineno)
                fee_recipient = _parse_address(kv["fee_recipient"], lineno)
                blocks_per_epoch = _parse_int(kv["blocks_per_epoch"], lineno, "blocks_per_epoch", 1, U64_MAX)
            elif head == "genesis":
                _parse_state_line(fields, lineno, accounts)
            elif head == "l1block":
                kv = _kv(fields[1:], lineno)
                deposits = tuple(decode_deposit(bytes.fromhex(h)) for h in _parse_list(kv["deposits"]))
                blocks.append(
                    L1Block(
                        number=_parse_int(kv["number"], lineno, "number", 0, U64_MAX),
                        timestamp=_parse_int(kv["time"], lineno, "time", 0, U64_MAX),
                        deposits=deposits,
                    )
                )
            elif head == "record":
                kv = _kv(fields[1:], lineno)
                batch = tuple(bytes.fromhex(h) for h in _parse_list(kv["batch"]))
                count = _parse_int(kv["deposit_count"], lineno, "deposit_count", 0) if "deposit_count" in kv else None
                bitmap = tuple(_parse_int(w, lineno, "bitmap word", 0) for w in _parse_list(kv.get("bitmap", "-")))
                inbox.append(
                    L1Record(
                        epoch=_parse_int(kv["epoch"], lineno, "epoch", 0, U64_MAX),
                        l2_number=_parse_int(kv["l2_number"], lineno, "l2_number", 0, U64_MAX),
                        l2_timestamp=_parse_int(kv["l2_time"], lineno, "l2_time", 0, U64_MAX),
                        l2_base_fee=_parse_int(kv["l2_base_fee"], lineno, "l2_base_fee", 0, U64_MAX),
                        batch=batch,
                        deposit_count=count,
                        bitmap=bitmap,
                    )
                )
            else:
                raise ScenarioError(f"unknown history directive {head!r}", line=lineno)
        except (KeyError, ValueError) as exc:
            raise _line_error(exc, head, lineno) from None

    if not header_seen:
        raise ScenarioError("empty history file", line=1)
    if fee_recipient is None:
        raise ScenarioError("history missing config line", line=1)
    return L1History(
        fee_recipient=fee_recipient,
        blocks_per_epoch=blocks_per_epoch,
        genesis=make_state(accounts),
        blocks=tuple(blocks),
        inbox=tuple(inbox),
    )
