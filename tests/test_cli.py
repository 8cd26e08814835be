import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from rollupsim.cli import main
from rollupsim.formats import parse_report
from rollupsim.lines import MAX_NESTING

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(tmp_path, name, extra=()):
    report = tmp_path / f"{name}.report"
    l1 = tmp_path / f"{name}.l1"
    code = main(
        ["run", "--scenario", str(SCENARIOS / f"{name}.scn"), "--report", str(report), "--l1-out", str(l1), *extra]
    )
    return code, report, l1


class TestRun:
    def test_pause_exploit_produces_expected_report(self, tmp_path, capsys):
        code, report_path, _ = run_cli(tmp_path, "pause_exploit")
        assert code == 0
        report = parse_report(report_path.read_text())
        assert len(report.entries) == 1
        assert report.entries[0].violated == ("vault-solvent",)
        assert "final_root" in capsys.readouterr().out

    def test_malformed_scenario_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("scenario v1\nrun blocks=1\nevent 5 advance seconds=1\nevent 3 advance seconds=1\n")
        code = main(["run", "--scenario", str(bad), "--report", str(tmp_path / "r"), "--l1-out", str(tmp_path / "l")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "t=3" in err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.scn"), "--report", "r", "--l1-out", "l"])
        assert code == 2

    def test_seed_flag_changes_nothing(self, tmp_path):
        _, report_a, l1_a = run_cli(tmp_path, "flood", extra=["--seed", "1"])
        shutil.move(report_a, tmp_path / "a.report")
        _, report_b, l1_b = run_cli(tmp_path, "flood", extra=["--seed", "99"])
        assert (tmp_path / "a.report").read_bytes() == report_b.read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path):
        _, report_a, l1_a = run_cli(tmp_path, "deposit_refused")
        a_report, a_l1 = report_a.read_bytes(), l1_a.read_bytes()
        _, report_b, l1_b = run_cli(tmp_path, "deposit_refused")
        assert report_b.read_bytes() == a_report
        assert l1_b.read_bytes() == a_l1


class TestCorpusThroughCli:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
    def test_run_then_derive_matches_root(self, tmp_path, name):
        code, report_path, l1_path = run_cli(tmp_path, name)
        assert code == 0
        report = parse_report(report_path.read_text())
        assert report.l1_export == str(l1_path)
        assert main(["derive", "--l1", str(l1_path), "--expect-root", report.final_root.hex0x()]) == 0


class TestDerive:
    def test_derive_matches_reported_root(self, tmp_path, capsys):
        code, report_path, l1_path = run_cli(tmp_path, "pause_exploit")
        reported = parse_report(report_path.read_text()).final_root.hex0x()
        code = main(["derive", "--l1", str(l1_path), "--expect-root", reported])
        assert code == 0
        assert reported in capsys.readouterr().out

    def test_wrong_expected_root_exits_3(self, tmp_path):
        _, _, l1_path = run_cli(tmp_path, "single_transfer")
        code = main(["derive", "--l1", str(l1_path), "--expect-root", "0x" + "ab" * 32])
        assert code == 3

    @pytest.mark.parametrize("root", ["0xzz", "", "0x", "0x09b1", "0x" + "ab" * 31, "ab" * 33, "0x" + "ab" * 32 + "\n"])
    def test_malformed_expected_root_is_a_usage_error(self, tmp_path, capsys, root):
        # Refused before the history is read: a missing history would exit 4.
        code = main(["derive", "--l1", str(tmp_path / "missing.l1"), "--expect-root", root])
        assert code == 2
        assert "--expect-root must be 64 hex digits" in capsys.readouterr().err

    def test_expected_root_needs_no_prefix_and_ignores_case(self, tmp_path):
        _, report_path, l1_path = run_cli(tmp_path, "single_transfer")
        root = parse_report(report_path.read_text()).final_root.hex()
        assert main(["derive", "--l1", str(l1_path), "--expect-root", root.upper()]) == 0

    def test_create_blob_with_recipient_bytes_exits_4(self, tmp_path, capsys):
        _, _, l1_path = run_cli(tmp_path, "create_tx")
        text = l1_path.read_text()
        blob = re.search(r"batch=([0-9a-f]+)", text).group(1)
        assert blob[16:18] == "01" and blob[58:98] == "00" * 20  # a create: tag 0x01, recipient zeros
        forged = blob[:58] + "ab" * 20 + blob[98:]
        (tmp_path / "forged.l1").write_text(text.replace(blob, forged))
        code = main(["derive", "--l1", str(tmp_path / "forged.l1")])
        err = capsys.readouterr().err
        assert code == 4 and "create transaction carries a recipient" in err and "Traceback" not in err

    def test_truncated_history_exits_4(self, tmp_path):
        _, _, l1_path = run_cli(tmp_path, "single_transfer")
        text = l1_path.read_text()
        (tmp_path / "cut.l1").write_text(text[: len(text) // 2])  # cut mid-record
        code = main(["derive", "--l1", str(tmp_path / "cut.l1")])
        assert code == 4

    def test_dropped_record_is_a_gap(self, tmp_path):
        _, _, l1_path = run_cli(tmp_path, "single_transfer")
        lines = l1_path.read_text().splitlines()
        without_first_record = [l for l in lines if not l.startswith("record epoch=0 l2_number=0")]
        (tmp_path / "gap.l1").write_text("\n".join(without_first_record) + "\n")
        code = main(["derive", "--l1", str(tmp_path / "gap.l1")])
        assert code == 4

    def test_unreadable_history_exits_4(self, tmp_path):
        code = main(["derive", "--l1", str(tmp_path / "missing.l1")])
        assert code == 4


class TestQuarantineInspector:
    def test_list_shows_entries(self, tmp_path, capsys):
        _, report_path, _ = run_cli(tmp_path, "pause_exploit")
        assert main(["quarantine", str(report_path), "list"]) == 0
        out = capsys.readouterr().out
        assert "kind=tx" in out and "damage=100" in out

    def test_list_on_benign_run_is_empty(self, tmp_path, capsys):
        _, report_path, _ = run_cli(tmp_path, "single_transfer")
        capsys.readouterr()  # drop the run's own output
        assert main(["quarantine", str(report_path), "list"]) == 0
        assert capsys.readouterr().out == ""

    def test_show_prints_verdict_and_trail(self, tmp_path, capsys):
        _, report_path, _ = run_cli(tmp_path, "admin_release_operator")
        report = parse_report(report_path.read_text())
        key = report.entries[0].key.hex0x()
        assert main(["quarantine", str(report_path), "show", key]) == 0
        out = capsys.readouterr().out
        assert "criterion=administrative" in out and "damage 100" in out

    def test_show_unknown_hash_exits_5(self, tmp_path):
        _, report_path, _ = run_cli(tmp_path, "pause_exploit")
        assert main(["quarantine", str(report_path), "show", "0x" + "00" * 32]) == 5

    @pytest.mark.parametrize("edit", [
        lambda key: key[:10] + " " + key[10:],  # `bytes.fromhex` skips whitespace
        lambda key: key[:10] + "\t" + key[10:],
        lambda key: key + " ",
        lambda key: " " + key,
        lambda key: "0x " + key[2:],
        lambda key: key[:10] + "g" + key[11:],
        lambda key: "0x",
        lambda key: key[:10] + "\u0665" + key[11:],  # a digit of another script
    ], ids=["inner-space", "inner-tab", "trailing-space", "leading-space", "space-after-0x", "not-hex", "no-digits",
            "other-script"])
    def test_show_refuses_a_hash_with_anything_but_hex_digits(self, tmp_path, capsys, edit):
        _, report_path, _ = run_cli(tmp_path, "pause_exploit")
        key = parse_report(report_path.read_text()).entries[0].key.hex0x()
        assert main(["quarantine", str(report_path), "show", key[2:]]) == 0  # bare hex is taken
        capsys.readouterr()
        assert main(["quarantine", str(report_path), "show", edit(key)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "bad hash" in captured.err

    def test_show_without_hash_exits_5(self, tmp_path):
        _, report_path, _ = run_cli(tmp_path, "pause_exploit")
        assert main(["quarantine", str(report_path), "show"]) == 5


class TestDeriveRejectsMalformedHistory:
    """Bad history lines exit 4 with a line-numbered message, never a traceback."""

    @staticmethod
    def edited_history(tmp_path, edit):
        _, _, l1_path = run_cli(tmp_path, "single_transfer")
        lines = l1_path.read_text().splitlines()
        bad = tmp_path / "bad.l1"
        bad.write_text("\n".join(edit(lines)) + "\n")
        return bad

    def derive_exit(self, tmp_path, capsys, edit):
        bad = self.edited_history(tmp_path, edit)
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_genesis_line_without_address(self, tmp_path, capsys):
        code, err = self.derive_exit(tmp_path, capsys, lambda lines: lines[:2] + ["genesis account"] + lines[2:])
        assert code == 4
        assert "line 3" in err

    def test_zero_blocks_per_epoch(self, tmp_path, capsys):
        def edit(lines):
            return [l.replace("blocks_per_epoch=4", "blocks_per_epoch=0") for l in lines]

        code, err = self.derive_exit(tmp_path, capsys, edit)
        assert code == 4
        assert "line 2" in err and "blocks_per_epoch" in err

    @pytest.mark.parametrize("field", ["epoch", "l2_number", "l2_time", "l2_base_fee"])
    def test_negative_record_field(self, tmp_path, capsys, field):
        def edit(lines):
            head = lines.index(next(l for l in lines if l.startswith("record ")))
            fields = lines[head].split(" ")
            fields = [f"{field}=-1" if f.startswith(f"{field}=") else f for f in fields]
            return lines[:head] + [" ".join(fields)] + lines[head + 1 :]

        code, err = self.derive_exit(tmp_path, capsys, edit)
        assert code == 4
        assert "line 4" in err and field in err


class TestDeriveNamesTheLine:
    """A missing field or a non-hex blob on a history line exits 4 with the
    line's number."""

    @staticmethod
    def derive_exit(tmp_path, capsys, old, new):
        _, _, l1_path = run_cli(tmp_path, "deposits_benign")
        lines = l1_path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if re.search(old, line))
        lines[index] = re.sub(old, new, lines[index])
        bad = tmp_path / "bad.l1"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err, index + 1

    def test_record_without_batch(self, tmp_path, capsys):
        code, err, lineno = self.derive_exit(tmp_path, capsys, r" batch=\S+", "")
        assert code == 4
        assert f"line {lineno}" in err and "'batch'" in err

    def test_config_without_fee_recipient(self, tmp_path, capsys):
        code, err, lineno = self.derive_exit(tmp_path, capsys, r"fee_recipient=\S+ ", "")
        assert code == 4
        assert lineno == 2 and "line 2" in err and "'fee_recipient'" in err

    def test_non_hex_batch(self, tmp_path, capsys):
        code, err, lineno = self.derive_exit(tmp_path, capsys, r"batch=\S+", "batch=zz")
        assert code == 4
        assert f"line {lineno}" in err and "non-hexadecimal" in err

    def test_non_hex_deposits(self, tmp_path, capsys):
        code, err, lineno = self.derive_exit(tmp_path, capsys, r"deposits=\S+", "deposits=zz")
        assert code == 4
        assert f"line {lineno}" in err and "non-hexadecimal" in err

    def test_respelled_value_names_the_form_expected(self, tmp_path, capsys):
        code, err, lineno = self.derive_exit(tmp_path, capsys, r"l2_time=4 ", "l2_time=0x4 ")
        assert code == 4
        expected = "'record epoch=0 l2_number=1 l2_time=4 l2_base_fee=1 batch=-'"
        assert err == f"error: unusable history: line {lineno}: not in canonical form, expected {expected}\n"


class TestQuarantineRejectsMalformedReport:
    """A report with a missing field or a wrong or repeated header exits 2
    with the line's number."""

    @staticmethod
    def list_exit(tmp_path, capsys, edit):
        _, report_path, _ = run_cli(tmp_path, "pause_exploit")
        bad = tmp_path / "bad.report"
        bad.write_text("\n".join(edit(report_path.read_text().splitlines())) + "\n")
        capsys.readouterr()
        code = main(["quarantine", str(bad), "list"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_block_without_base_fee(self, tmp_path, capsys):
        def edit(lines):
            assert lines[1].startswith("block ")
            return [lines[0], re.sub(r" base_fee=\S+", "", lines[1]), *lines[2:]]

        code, err = self.list_exit(tmp_path, capsys, edit)
        assert code == 2
        assert "line 2" in err and "'base_fee'" in err

    def test_other_header_version(self, tmp_path, capsys):
        code, err = self.list_exit(tmp_path, capsys, lambda lines: [lines[0].replace("report v1", "report v9"), *lines[1:]])
        assert code == 2
        assert "line 1" in err and "report v1" in err

    def test_second_header(self, tmp_path, capsys):
        code, err = self.list_exit(tmp_path, capsys, lambda lines: [*lines[:2], lines[0], *lines[2:]])
        assert code == 2
        assert "line 3" in err and "report" in err

    def test_final_root_without_value(self, tmp_path, capsys):
        code, err = self.list_exit(tmp_path, capsys, lambda lines: [*lines[:-1], "final_root"])
        assert code == 2
        assert "final_root" in err

    @pytest.mark.parametrize("line, field", [
        ("block", "parent="), ("block", "root="), ("block", "txs="), ("entry", "key="), ("audit", "entry="),
        ("pool", "key="), ("final_root", "final_root "),
    ])
    def test_a_hash_without_0x_is_refused(self, tmp_path, capsys, line, field):
        """Every 32-byte value of a report is read one way: 0x-hex, so a
        hash field takes no bare hex a root field refuses."""
        def edit(lines):
            n = next(n for n, text in enumerate(lines) if text.startswith(line + " "))
            return [*lines[:n], lines[n].replace(f"{field}0x", field, 1), *lines[n + 1:]]

        code, err = self.list_exit(tmp_path, capsys, edit)
        assert code == 2
        assert re.fullmatch(r"error: unusable report: line \d+: byte string must be 0x-hex: '[0-9a-f]{64}'\n", err), err


class TestScenarioConfigErrors:
    """Bad config values exit 2 with the config line's number, never a traceback."""

    @pytest.mark.parametrize(
        "setting, needle",
        [
            ("block_time=x", "block_time"),
            ("blocks_per_epoch=0", "blocks_per_epoch"),
            ("max_pending=-1", "max_pending"),
            ("escape_timeout=soon", "escape_timeout"),
            ("detection_budget=lots", "detection_budget"),
            ("genesis_timestamp=-5", "genesis_timestamp"),
            ("fee_recipient=0xzz", "address"),
        ],
    )
    def test_bad_value_names_the_line(self, tmp_path, capsys, setting, needle):
        bad = tmp_path / "bad.scn"
        bad.write_text(f"scenario v1\nconfig fee_recipient=0xfe\nconfig {setting}\nrun blocks=1\n")
        code = main(["run", "--scenario", str(bad), "--report", str(tmp_path / "r"), "--l1-out", str(tmp_path / "l")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "line 3" in err and needle in err


class TestDeriveRejectsImpossibleHistory:
    """Histories the sequencer could not have emitted are derivation gaps (exit 4)."""

    @staticmethod
    def derive_edited(tmp_path, capsys, edit):
        _, _, l1_path = run_cli(tmp_path, "deposits_benign")
        lines = l1_path.read_text().splitlines()
        records = [i for i, line in enumerate(lines) if line.startswith("record ")]
        lines[records[1]] = edit(lines[records[1]])
        bad = tmp_path / "bad.l1"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        return code, capsys.readouterr().err

    def test_record_in_the_wrong_epoch(self, tmp_path, capsys):
        code, err = self.derive_edited(tmp_path, capsys, lambda line: line.replace("epoch=0 ", "epoch=7 ", 1))
        assert code == 4
        assert "derivation gap" in err and "belongs to epoch 0" in err

    def test_block_time_going_backwards(self, tmp_path, capsys):
        code, err = self.derive_edited(tmp_path, capsys, lambda line: line.replace("l2_time=4 ", "l2_time=1 "))
        assert code == 4
        assert "derivation gap" in err and "time 1 is not after 2" in err

    @pytest.mark.parametrize(
        "name, rewrite, needle",
        [
            # The batcher posts a bitmap, possibly empty, on every epoch head.
            (
                "single_transfer",
                lambda text: text.replace(" deposit_count=0 bitmap=-", "", 1),
                "derivation gap: epoch 0: head block 0 posts no bitmap",
            ),
            (
                "multi_epoch_deposits",
                lambda text: text.replace("l1block number=0 ", "l1block number=N ")
                .replace("l1block number=1 ", "l1block number=0 ")
                .replace("l1block number=N ", "l1block number=1 "),
                "derivation gap: epoch 0: l1block 0 carries number 1",
            ),
            # L1 block 1's deposit relabeled from index 0 to index 1.
            (
                "multi_epoch_deposits",
                lambda text: text.replace("deposits=000000000000000100000000", "deposits=000000000000000100000001"),
                "unusable history: deposit labeled (1,1) placed at (1,0)",
            ),
            # Blocks are at least block_time >= 1 apart.
            (
                "multi_epoch_deposits",
                lambda text: re.sub(r"l2_time=\d+", "l2_time=7", text),
                "derivation gap: epoch 0: block 1 time 7 is not after 7",
            ),
            # L1 block 1 arrives after the epoch-1 head (l2_time=6) was built.
            (
                "multi_epoch_deposits",
                lambda text: text.replace("l1block number=1 time=5 ", "l1block number=1 time=500 "),
                "derivation gap: epoch 1: head block 2 time 6 is before its L1 block's time 500",
            ),
            # A batch entry that does not decode is named by its block and place.
            (
                "deposit_refused",
                lambda text: text.replace("l2_number=1 l2_time=4 l2_base_fee=1 batch=-", "l2_number=1 l2_time=4 l2_base_fee=1 batch=00ff"),
                "derivation gap: epoch 0: block 1 batch entry 0 cannot be decoded: encoded transaction too short: 2 bytes",
            ),
            (
                "single_transfer",
                lambda text: re.sub(r"batch=([0-9a-f]+)", r"batch=\1,00ff", text, count=1),
                "derivation gap: epoch 0: block 0 batch entry 1 cannot be decoded: encoded transaction too short: 2 bytes",
            ),
            # The writer never puts a quote before a form: a stray one is refused, not skipped.
            (
                "kitchen_sink",
                lambda text: text.replace("code={(set ", "code={'(set ", 1),
                "unusable history: line 7: cannot tokenize \"'(set (const 0x706175736564) ",
            ),
        ],
        ids=[
            "head_without_bitmap", "l1block_out_of_place", "deposit_out_of_place", "time_not_after", "head_before_l1",
            "undecodable_entry", "undecodable_second_entry", "stray_quote_in_code",
        ],
    )
    def test_history_the_sequencer_cannot_write(self, tmp_path, capsys, name, rewrite, needle):
        _, _, l1_path = run_cli(tmp_path, name)
        text = l1_path.read_text()
        assert rewrite(text) != text
        bad = tmp_path / "bad.l1"
        bad.write_text(rewrite(text))
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert needle in err


class TestDeriveRejectsUnexecutableHistory:
    def test_unexecutable_batch_is_a_gap(self, tmp_path, capsys):
        _, _, l1_path = run_cli(tmp_path, "single_transfer")
        bad = tmp_path / "broke.l1"
        bad.write_text(l1_path.read_text().replace("balance=1000", "balance=1"))
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert "derivation gap" in err and "block 0" in err


class TestRuntimeOverflow:
    """A balance or nonce that execution carries past its range (2^128-1,
    2^64-1) is refused with the block and the account: `run` exits 2 and
    `derive` exits 4 on a history whose replay does it. One unit less stays
    in range, and runs and derives."""

    B2 = "0x" + "00" * 19 + "b2"
    ONE = "0x" + "00" * 19 + "01"

    @staticmethod
    def balance_scenario(balance):
        return (
            f"scenario v1 name=wide\nconfig fee_recipient=0xfe\ngenesis account 0xb2 balance={balance}\n"
            "run blocks=2\nevent 1 l1_block deposits={sender=0xe0 recipient=0xb2 value=5 gas_limit=21}\n"
        )

    @staticmethod
    def nonce_scenario(nonce):
        return (
            f"scenario v1 name=wide\nconfig fee_recipient=0xfe\ngenesis account 0x01 balance=1000 nonce={nonce}\n"
            f"run blocks=2\nevent 1 submit sender=0x01 nonce={nonce} to=0x02 value=5 gas_limit=21\n"
        )

    @pytest.mark.parametrize("case", ["balance", "nonce"])
    def test_run_exits_2_and_names_block_and_account(self, tmp_path, capsys, case):
        text = self.balance_scenario(2**128 - 1) if case == "balance" else self.nonce_scenario(2**64 - 1)
        account, limit = (self.B2, "2^128-1") if case == "balance" else (self.ONE, "2^64-1")
        assert run_text(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: block 0: account {account} {case} is past {limit}\n"

    @pytest.mark.parametrize("case", ["balance", "nonce"])
    def test_derive_exits_4_on_a_replay_that_overflows(self, tmp_path, capsys, case):
        if case == "balance":
            text, account, limit = self.balance_scenario(2**128 - 6), self.B2, "2^128-1"
            edits = [(f"balance={2**128 - 6}", f"balance={2**128 - 1}")]
        else:
            text, account, limit = self.nonce_scenario(2**64 - 2), self.ONE, "2^64-1"
            edits = [(f"nonce={2**64 - 2}", f"nonce={2**64 - 1}"), ("batch=fffffffffffffffe", "batch=ffffffffffffffff")]
        assert run_text(tmp_path, text) == 0  # one unit less is in range
        history = (tmp_path / "l").read_text()
        assert main(["derive", "--l1", str(tmp_path / "l")]) == 0
        for old, new in edits:
            assert history.count(old) == 1
            history = history.replace(old, new)
        (tmp_path / "wide.l1").write_text(history)
        capsys.readouterr()
        assert main(["derive", "--l1", str(tmp_path / "wide.l1")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: unusable history: block 0: account {account} {case} is past {limit}\n"


class TestDeeplyNestedCode:
    """Code nested past `MAX_NESTING` levels is refused with its line
    number, never a `RecursionError` traceback: `run` exits 2, and `derive`
    exits 4 on a history whose genesis contract holds it. Code at the bound
    runs and derives."""

    @staticmethod
    def nested(depth):
        """An expression `depth` levels deep: nots over the constant 1."""
        return "(not " * (depth - 1) + "1" + ")" * (depth - 1)

    def code(self, depth):
        """A program `depth` levels deep: the require is level 1."""
        return f"(require {self.nested(depth - 1)})"

    @staticmethod
    def scenario(code="(require 1)", predicate="(ge (balance self) 0)"):
        return (
            "scenario v1 name=deep\nconfig fee_recipient=0xfe\ngenesis account 0xa1 balance=1000\n"
            f"genesis contract 0xc3 admin=0xa1 balance=0 code={{{code}}}\n"
            f"genesis invariant id=deep contract=0xc3 registered_by=0xa1 predicate={{{predicate}}}\n"
            "run blocks=2\nevent 1 submit sender=0xa1 nonce=0 to=0xc3 value=0 gas_limit=30\n"
        )

    def test_code_at_the_bound_runs_and_derives(self, tmp_path, capsys):
        holds = "(not " * (MAX_NESTING - 2) + "(eq 1 1)" + ")" * (MAX_NESTING - 2)  # a predicate at the bound too
        assert run_text(tmp_path, self.scenario(self.code(MAX_NESTING), holds)) == 0
        report = parse_report((tmp_path / "r").read_text())
        assert sum(len(block.tx_hashes) for block in report.blocks) == 1 and not report.entries
        assert main(["derive", "--l1", str(tmp_path / "l"), "--expect-root", report.final_root.hex()]) == 0

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 990])
    @pytest.mark.parametrize("where", ["code", "predicate"])
    def test_run_refuses_deeper_code_with_its_line(self, tmp_path, capsys, depth, where):
        text = self.scenario(code=self.code(depth)) if where == "code" else self.scenario(predicate=self.nested(depth))
        assert run_text(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {4 if where == 'code' else 5}: code nested deeper than {MAX_NESTING} levels\n"

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 990])
    def test_derive_refuses_a_genesis_contract_nested_deeper(self, tmp_path, capsys, depth):
        assert run_text(tmp_path, self.scenario()) == 0
        history = (tmp_path / "l").read_text()
        lineno, line = next((i, l) for i, l in enumerate(history.splitlines(), 1) if l.startswith("genesis contract"))
        deep = re.sub(r"code=\{.*\}", lambda _: f"code={{{self.code(depth)}}}", line)
        (tmp_path / "deep.l1").write_text(history.replace(line, deep))
        capsys.readouterr()
        assert main(["derive", "--l1", str(tmp_path / "deep.l1")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"line {lineno}" in err and f"nested deeper than {MAX_NESTING}" in err


class TestStrayQuoteInCode:
    """A quote that opens no quoted atom is no token of the contract
    language: `run` refuses code or a predicate that holds one, with its
    line, instead of reading `(eq 1 ' 1)` as `(eq 1 1)`."""

    @pytest.mark.parametrize("where", ["code", "predicate"])
    def test_run_refuses_a_stray_quote_with_its_line(self, tmp_path, capsys, where):
        if where == "code":
            text, lineno, source = TestDeeplyNestedCode.scenario(code="(require (eq 1 ' 1))"), 4, "(require (eq 1 ' 1))"
        else:
            text, lineno, source = TestDeeplyNestedCode.scenario(predicate="(eq 1 ' 1)"), 5, "(eq 1 ' 1)"
        assert run_text(tmp_path, text) == 2
        assert capsys.readouterr().err == f"error: line {lineno}: cannot tokenize {source!r}\n"


def run_text(tmp_path, text):
    scn = tmp_path / "case.scn"
    scn.write_text(text)
    code = main(["run", "--scenario", str(scn), "--report", str(tmp_path / "r"), "--l1-out", str(tmp_path / "l")])
    return code


class TestBadReleaseEvents:
    """A release event the quarantine must refuse exits 2 and names its time."""

    @staticmethod
    def held_deposit_key(tmp_path):
        code, report_path, _ = run_cli(tmp_path, "deposit_refused")
        assert code == 0
        (entry,) = parse_report(report_path.read_text()).entries
        assert entry.kind == "deposit"
        return entry.key.hex0x()

    def check(self, tmp_path, capsys, text, needle):
        capsys.readouterr()
        code = run_text(tmp_path, text)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "t=3" in err and needle in err

    def test_release_of_an_entry_not_held(self, tmp_path, capsys):
        text = (SCENARIOS / "single_transfer.scn").read_text().replace("event 1 submit", "event 1 submit as=T")
        self.check(tmp_path, capsys, text + "event 3 request_failure_release tx=@T\n", "EntryNotFound")

    def test_approval_by_an_unentitled_address(self, tmp_path, capsys):
        text = (SCENARIOS / "failure_release.scn").read_text().replace("event 5 request_failure_release tx=@B\n", "")
        self.check(tmp_path, capsys, text + "event 3 approve_release tx=@B approver=0xb2\n", "NotAuthorized")

    def test_release_of_a_deposit_entry(self, tmp_path, capsys):
        key = self.held_deposit_key(tmp_path)
        text = (SCENARIOS / "deposit_refused.scn").read_text() + f"event 3 approve_release tx={key} approver=0xee\n"
        self.check(tmp_path, capsys, text, "DepositPermanence")


class TestLateL1Block:
    def test_run_refuses_an_l1_block_after_its_epoch_head_was_built(self, tmp_path, capsys):
        # One block per epoch: L1 block 0's head, block 0, is built at t=2.
        text = "scenario v1\nconfig blocks_per_epoch=1\ngenesis account 0x01 balance=10\nrun blocks=3\n"
        assert run_text(tmp_path, text + "event 3 l1_block deposits=-\n") == 2
        assert capsys.readouterr().err == "error: t=3: L1 block 0 arrives after its epoch head was built\n"


U64 = 2**64
U128 = 2**128


class TestOutOfRangeIntegers:
    """Balances are 0..2**128-1; nonces, fees and stake amounts 0..2**64-1."""

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("event 0 set_base_fee fee=-1", "fee"),
            (f"event 0 set_base_fee fee={U64}", "fee"),
            ("genesis account 0xb2 balance=-5", "balance"),
            (f"genesis account 0xb2 balance={U128}", "balance"),
            ("genesis account 0xb2 nonce=-1", "nonce"),
            (f"genesis account 0xb2 nonce={hex(U64)}", "nonce"),
            ("genesis contract 0xc3 admin=0xa1 balance=-1 code={}", "balance"),
            ("event 0 stake account=0xb2 amount=-1", "stake amount"),
            (f"event 0 stake account=0xb2 amount={U64}", "stake amount"),
        ],
    )
    def test_scenario_value_names_the_line(self, tmp_path, capsys, line, needle):
        capsys.readouterr()
        code = run_text(tmp_path, f"scenario v1\nconfig fee_recipient=0xfe\n{line}\nrun blocks=1\n")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "line 3" in err and needle in err

    def test_largest_values_run(self, tmp_path):
        text = (
            f"scenario v1\nconfig fee_recipient=0xfe\ngenesis account 0xb2 balance={U128 - 1} nonce={U64 - 1}\n"
            f"run blocks=1\nevent 0 set_base_fee fee={U64 - 1}\nevent 0 stake account=0xb2 amount={U64 - 1}\n"
        )
        assert run_text(tmp_path, text) == 0

    @pytest.mark.parametrize(
        "old, new",
        [("balance=1000", "balance=-5"), ("balance=1000", f"balance={U128}"), ("nonce=0", f"nonce={U64}")],
    )
    def test_history_genesis_value_names_the_line(self, tmp_path, capsys, old, new):
        _, _, l1_path = run_cli(tmp_path, "single_transfer")
        bad = tmp_path / "bad.l1"
        bad.write_text(l1_path.read_text().replace(old, new, 1))
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert "line 3" in err


# Spellings `int` reads that are no integer of the formats: an underscore,
# a sign, a digit of another script, an underscore after `0x`.
NOT_INTEGERS = ["1_000", "+5", "\u0665", "0x_5"]


class TestIntegerSpelling:
    """An integer is ASCII decimal digits, or `0x` and hex digits, in every
    scenario, report and history field and in every s-expression atom."""

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("line", [
        "event 0 submit sender=0x01 nonce=0 to=0x02 value={}",
        "event 0 submit sender=0x" + "01" * 20 + " to=0x" + "02" * 20 + " value={}",  # the match path's spelling
        "genesis account 0x" + "b2" * 20 + " balance={}",
        "genesis contract 0xc3 admin=0xa1 code={{(set (const {}) 1)}}",
    ])
    def test_a_scenario_value_exits_2_with_its_line(self, tmp_path, capsys, line, value):
        capsys.readouterr()
        code = run_text(tmp_path, f"scenario v1\nconfig fee_recipient=0xfe\n{line.format(value)}\nrun blocks=1\n")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line 3: ") and f"must be an integer, got {value!r}" in err, err

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_a_report_value_exits_2_with_its_line(self, tmp_path, capsys, value):
        _, report, _ = run_cli(tmp_path, "single_transfer")
        rows = report.read_text().splitlines()
        index = next(i for i, row in enumerate(rows) if row.startswith("block "))
        rows[index] = re.sub(r" base_fee=\d+", f" base_fee={value}", rows[index])
        report.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["quarantine", str(report), "list"]) == 2
        err = capsys.readouterr().err
        assert f"line {index + 1}: " in err and f"must be an integer, got {value!r}" in err, err

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_a_history_value_exits_4_with_its_line(self, tmp_path, capsys, value):
        _, _, l1 = run_cli(tmp_path, "single_transfer")
        rows = l1.read_text().splitlines()
        index = next(i for i, row in enumerate(rows) if row.startswith("record "))
        rows[index] = re.sub(r" l2_time=\d+", f" l2_time={value}", rows[index])
        l1.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["derive", "--l1", str(l1)]) == 4
        err = capsys.readouterr().err
        assert f"line {index + 1}: " in err and f"must be an integer, got {value!r}" in err, err


class TestConfigUpperBounds:
    """Config integers have a greatest value: 2**64-1 for anything hashed as
    8 bytes, and a thread count for workers."""

    @pytest.mark.parametrize(
        "setting, needle",
        [
            (f"genesis_timestamp={U64}", "genesis_timestamp"),
            (f"block_time={U64}", "block_time"),
            (f"base_fee={U64}", "base_fee"),
            (f"blocks_per_epoch={hex(U64)}", "blocks_per_epoch"),
            (f"quarantine_period={U64}", "quarantine_period"),
            ("workers=257", "workers"),
            (f"workers={U64}", "workers"),
        ],
    )
    def test_too_large_value_names_the_line(self, tmp_path, capsys, setting, needle):
        capsys.readouterr()
        code = run_text(tmp_path, f"scenario v1\nconfig fee_recipient=0xfe\nconfig {setting}\nrun blocks=2\n")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "line 3" in err and needle in err and "at most" in err

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_block_time_past_u64_exits_2(self, tmp_path, capsys, blocks):
        capsys.readouterr()
        code = run_text(tmp_path, f"scenario v1\nconfig genesis_timestamp={U64 - 1}\nrun blocks={blocks}\n")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"block 0 time {U64 + 1} is past 2^64-1" in err

    @pytest.mark.parametrize(
        "blocks, events",
        [
            (str(2**64), ""),
            (hex(2**256 - 1), ""),
            (str(2**64), "genesis account 0x01 balance=1000\nevent 5 submit sender=0x01 nonce=0 to=0x02 value=5 gas_limit=21\n"),
            # A far-future event: the blocks before it are not built either.
            (
                str(2**64),
                f"genesis account 0x01 balance=1000\nevent {10**12} submit sender=0x01 nonce=0 to=0x02 value=5 gas_limit=21\n",
            ),
        ],
    )
    def test_absurd_block_count_exits_2_at_once(self, tmp_path, capsys, blocks, events):
        # Blocks are at least block_time apart, so a run whose last block
        # would pass 2^64-1 stops before building any block, events or not.
        def too_slow(signum, frame):
            raise AssertionError(f"run blocks={blocks} still running after 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            capsys.readouterr()
            code = run_text(tmp_path, f"scenario v1\nconfig genesis_timestamp=0\nconfig block_time=2\n{events}run blocks={blocks}\n")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"block {2**63 - 1} time {2**64} is past 2^64-1" in err

    def test_last_representable_block_time_runs_and_derives(self, tmp_path, capsys):
        assert run_text(tmp_path, f"scenario v1\nconfig genesis_timestamp={U64 - 3}\nrun blocks=1\n") == 0
        assert main(["derive", "--l1", str(tmp_path / "l")]) == 0

    @pytest.mark.parametrize("name", ["two\nlines.l1", "carriage\rreturn.l1"])
    def test_l1_out_with_a_line_break_exits_2_before_running(self, tmp_path, capsys, name):
        capsys.readouterr()
        scn, report = SCENARIOS / "single_transfer.scn", tmp_path / "r"
        code = main(["run", "--scenario", str(scn), "--report", str(report), "--l1-out", str(tmp_path / name)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: --l1-out must not contain a line break, got {str(tmp_path / name)!r}\n"
        assert not report.exists() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-1", "257"])
    def test_workers_flag_out_of_range_exits_2_before_running(self, tmp_path, capsys, workers):
        capsys.readouterr()
        code, report, l1 = run_cli(tmp_path, "single_transfer", extra=["--workers", workers])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: --workers must be 1..256, got {workers}\n"
        assert not report.exists() and not l1.exists()


class TestDepositFieldErrors:
    """A bad deposit field in an l1_block event names its line, like submit."""

    @pytest.mark.parametrize(
        "group, needle",
        [
            ("sender=0x01 recipient=0x02 value=-1", "value out of range"),
            (f"sender=0x01 recipient=0x02 value={U128}", "value out of range"),
            ("sender=0x01 recipient=0x02 gas_limit=20", "gas_limit"),
        ],
    )
    def test_bad_deposit_exits_2_with_line(self, tmp_path, capsys, group, needle):
        capsys.readouterr()
        code = run_text(tmp_path, f"scenario v1\nrun blocks=1\nevent 0 l1_block deposits={{{group}}}\n")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "line 3: bad deposit:" in err and needle in err


class TestUnwritableOutput:
    """An output `run` cannot write exits 2 with no traceback, and leaves no
    report naming a history that was never written."""

    @pytest.mark.parametrize("report_in_missing_dir", [True, False])
    def test_unwritable_report_or_history_exits_2(self, tmp_path, capsys, report_in_missing_dir):
        report = tmp_path / ("missing" if report_in_missing_dir else "") / "x.report"
        l1_out = str(tmp_path / "x.l1") if report_in_missing_dir else ""  # "" names the working directory
        capsys.readouterr()
        code = main(["run", "--scenario", str(SCENARIOS / "empty.scn"), "--report", str(report), "--l1-out", l1_out])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and err.startswith("error: cannot write output: ")
        assert not report.exists()

    @pytest.mark.parametrize("spelling", ["same", "relative", "dotted", "symlink"])
    def test_one_file_for_report_and_history_exits_2_before_running(self, tmp_path, capsys, monkeypatch, spelling):
        """The report would overwrite the history it names, so both paths
        resolving to one file are refused before the run writes either."""
        monkeypatch.chdir(tmp_path)
        l1_out = str(tmp_path / "out")
        if spelling == "symlink":
            (tmp_path / "alias").symlink_to("out")
        report = {"same": l1_out, "relative": "out", "dotted": str(tmp_path / "." / "out"), "symlink": "alias"}[spelling]
        capsys.readouterr()
        code = main(["run", "--scenario", str(SCENARIOS / "single_transfer.scn"), "--report", report, "--l1-out", l1_out])
        assert code == 2
        assert capsys.readouterr().err == f"error: --report and --l1-out name one file: {report!r}\n"
        assert not (tmp_path / "out").exists()


class TestOneRuleForEveryLine:
    """Scenario, report and history lines share one rule set: an unknown
    field, an integer out of range, a second copy of a line a file holds
    once and a repeated genesis address each exit with the file's code and
    the line's number."""

    @staticmethod
    def edited(tmp_path, suffix, edit):
        _, report_path, l1_path = run_cli(tmp_path, "deposits_benign")
        source = report_path if suffix == "report" else l1_path
        lines = source.read_text().splitlines()
        lineno, lines = edit(lines)
        bad = tmp_path / f"bad.{suffix}"
        bad.write_text("\n".join(lines) + "\n")
        return bad, lineno

    def report_exit(self, tmp_path, capsys, edit):
        bad, lineno = self.edited(tmp_path, "report", edit)
        capsys.readouterr()
        code = main(["quarantine", str(bad), "list"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 2 and f"line {lineno}:" in err, err
        return err

    def history_exit(self, tmp_path, capsys, edit):
        bad, lineno = self.edited(tmp_path, "l1", edit)
        capsys.readouterr()
        code = main(["derive", "--l1", str(bad)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 4 and f"line {lineno}:" in err, err
        return err

    def scenario_exit(self, tmp_path, capsys, text, lineno):
        capsys.readouterr()
        assert run_text(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"line {lineno}:" in err, err
        return err

    @staticmethod
    def append_to(head, extra):
        def edit(lines):
            index = next(i for i, line in enumerate(lines) if line.startswith(head + " "))
            lines[index] += extra
            return index + 1, lines

        return edit

    @pytest.mark.parametrize("head", ["block", "counters", "final_root", "report"])
    def test_unknown_report_field(self, tmp_path, capsys, head):
        err = self.report_exit(tmp_path, capsys, self.append_to(head, " colour=red"))
        assert "colour" in err

    @pytest.mark.parametrize("head", ["config", "genesis", "l1block", "record"])
    def test_unknown_history_field(self, tmp_path, capsys, head):
        err = self.history_exit(tmp_path, capsys, self.append_to(head, " colour=red"))
        assert "colour" in err

    def test_unknown_invariant_field(self, tmp_path, capsys):
        text = (
            "scenario v1\ngenesis contract 0xc3 admin=0xa1 code={}\n"
            "genesis invariant id=i contract=0xc3 registered_by=0xa1 predicate={1} colour=red\nrun blocks=1\n"
        )
        assert "unknown invariant field 'colour'" in self.scenario_exit(tmp_path, capsys, text, 3)

    @pytest.mark.parametrize("value", ["-5", str(U64), hex(U64)])
    @pytest.mark.parametrize("field", ["number", "time", "base_fee", "epoch"])
    def test_report_integer_out_of_range(self, tmp_path, capsys, field, value):
        def edit(lines):
            lines[1] = re.sub(rf" {field}=\d+", f" {field}={value}", lines[1])
            return 2, lines

        assert f"block {field} must be" in self.report_exit(tmp_path, capsys, edit)

    @pytest.mark.parametrize("head", ["counters", "final_root", "l1_export"])
    def test_second_report_singleton(self, tmp_path, capsys, head):
        def edit(lines):
            copy = next(line for line in lines if line.startswith(head + " "))
            return len(lines) + 1, [*lines, copy]

        assert f"second '{head}' line" in self.report_exit(tmp_path, capsys, edit)

    def test_second_history_config(self, tmp_path, capsys):
        def edit(lines):
            return 3, [lines[0], lines[1], lines[1], *lines[2:]]

        assert "second 'config' line" in self.history_exit(tmp_path, capsys, edit)

    def test_second_scenario_run(self, tmp_path, capsys):
        text = "scenario v1\nrun blocks=1\ngenesis account 0x01 balance=1\nrun blocks=2\n"
        assert "second 'run' line" in self.scenario_exit(tmp_path, capsys, text, 4)

    def test_repeated_scenario_genesis_address(self, tmp_path, capsys):
        text = "scenario v1\ngenesis account 0x01 balance=1\ngenesis contract 0x0001 admin=0xa1 code={}\nrun blocks=1\n"
        assert "genesis address 0x" + "00" * 19 + "01 declared twice" in self.scenario_exit(tmp_path, capsys, text, 3)

    def test_repeated_history_genesis_address(self, tmp_path, capsys):
        def edit(lines):
            index = next(i for i, line in enumerate(lines) if line.startswith("genesis "))
            return index + 2, [*lines[: index + 1], lines[index], *lines[index + 1 :]]

        assert "declared twice" in self.history_exit(tmp_path, capsys, edit)


class TestTextIsUtf8:
    """Every file is read and written as UTF-8 whatever the locale, and a
    file that does not decode exits with its file's code, with no traceback."""

    @staticmethod
    def accented(tmp_path):
        """`pause_exploit` with a non-ASCII storage atom and invariant id."""
        text = (SCENARIOS / "pause_exploit.scn").read_text(encoding="utf-8")
        scn = tmp_path / "accented.scn"
        scn.write_text(text.replace("'paused'", "'pausé'").replace("id=vault-solvent", "id=vault-solvé"), encoding="utf-8")
        return scn

    @staticmethod
    def undecodable(path):
        path.write_bytes(path.read_bytes() + b"\xff\n")
        return path

    def test_undecodable_scenario_exits_2(self, tmp_path, capsys):
        scn = self.undecodable(self.accented(tmp_path))
        code = main(["run", "--scenario", str(scn), "--report", str(tmp_path / "r"), "--l1-out", str(tmp_path / "l")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: cannot read scenario: ") and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_undecodable_history_exits_4(self, tmp_path, capsys):
        _, _, l1 = run_cli(tmp_path, "deposits_benign")
        capsys.readouterr()
        assert main(["derive", "--l1", str(self.undecodable(l1))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read history: ") and "Traceback" not in err

    def test_undecodable_report_exits_2(self, tmp_path, capsys):
        _, report, _ = run_cli(tmp_path, "pause_exploit")
        capsys.readouterr()
        assert main(["quarantine", str(self.undecodable(report)), "list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read report: ") and "Traceback" not in err

    def test_same_root_and_names_under_any_locale(self, tmp_path):
        scn = self.accented(tmp_path)
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO", "PYTHONUTF8"))}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), env.get("PYTHONPATH")]))
        seen = set()
        for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0"}, {"PYTHONUTF8": "1"}):
            cwd = tmp_path / str(len(seen))  # the same relative output names, so the same report bytes
            cwd.mkdir()

            def cli(*argv):
                done = subprocess.run(
                    [sys.executable, "-m", "rollupsim", *argv], env={**env, **locale}, cwd=cwd, capture_output=True,
                    timeout=60,
                )
                assert done.returncode == 0 and b"Traceback" not in done.stderr, (locale, argv, done.stderr)
                return done.stdout.decode("utf-8")

            root = cli("run", "--scenario", str(scn), "--report", "out.report", "--l1-out", "out.l1")
            assert cli("derive", "--l1", "out.l1") == root
            key = cli("quarantine", "out.report", "list").split()[0]
            assert "violated vault-solvé" in cli("quarantine", "out.report", "show", key)
            seen.add((root, (cwd / "out.report").read_bytes(), (cwd / "out.l1").read_bytes()))
        assert len(seen) == 1


class TestScenarioName:
    """A scenario name, from `name=` or the file's stem, must read back as one
    report field; any other exits 2 on the header line before running."""

    @staticmethod
    def without_name(tmp_path, stem):
        lines = (SCENARIOS / "single_transfer.scn").read_text().splitlines()
        scn = tmp_path / f"{stem}.scn"
        scn.write_text("\n".join(["scenario v1", *lines[1:]]) + "\n")
        return scn

    @staticmethod
    def run_scenario(tmp_path, scn):
        report = tmp_path / "r"
        code = main(["run", "--scenario", str(scn), "--report", str(report), "--l1-out", str(tmp_path / "l")])
        return code, report

    @pytest.mark.parametrize("stem", ["my run", "tab\there", "a}b", "{open", "close}"])
    def test_a_stem_that_is_not_one_field_exits_2(self, tmp_path, capsys, stem):
        code, report = self.run_scenario(tmp_path, self.without_name(tmp_path, stem))
        err = capsys.readouterr().err
        assert code == 2 and not report.exists()
        assert err.startswith(f"error: line 1: scenario name {stem!r} must be one report field"), err

    @pytest.mark.parametrize("name", ["", "{a", "a}"])
    def test_a_name_that_is_not_one_field_exits_2(self, tmp_path, capsys, name):
        scn = self.without_name(tmp_path, "ok")
        scn.write_text(scn.read_text().replace("scenario v1", f"scenario v1 name={name}", 1))
        code, report = self.run_scenario(tmp_path, scn)
        err = capsys.readouterr().err
        assert code == 2 and not report.exists() and err.startswith("error: line 1: "), err

    @pytest.mark.parametrize("stem", ["{my run}", "plain", "é"])
    def test_a_name_of_one_field_reads_back(self, tmp_path, capsys, stem):
        code, report = self.run_scenario(tmp_path, self.without_name(tmp_path, stem))
        assert code == 0
        assert report.read_text(encoding="utf-8").splitlines()[0] == f"report v1 scenario={stem}"
        assert main(["quarantine", str(report), "list"]) == 0
