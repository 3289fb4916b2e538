"""Balances, fees, escrow lifecycle, conservation, journal replay."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmesh.ledger import (
    ESCROW_OPEN_OP,
    AlreadySettled,
    EscrowOutcome,
    EscrowState,
    InsufficientFunds,
    Ledger,
    NotArbiter,
    UnknownEscrow,
    ZeroAmount,
    fet,
    journal_lines,
    read_journal,
    replay,
    write_journal,
)
from agentmesh.wire import Record

USER = "wallet1" + "u" * 52
COURIER = "wallet1" + "c" * 52
PACKAGING = "wallet1" + "p" * 52
ARBITER = "agent1" + "l" * 52


def funded_ledger() -> Ledger:
    ledger = Ledger()
    ledger.mint(USER, fet(100))
    ledger.mint(COURIER, fet(10))
    ledger.mint(PACKAGING, fet(5))
    return ledger


class TestClock:
    def test_advance_zero(self):
        ledger = Ledger()
        assert ledger.advance_block(0) == 0

    def test_advance(self):
        ledger = Ledger()
        ledger.advance_block(10)
        assert ledger.advance_block(5) == 15

    def test_no_rewind(self):
        with pytest.raises(Exception):
            Ledger().advance_block(-1)


class TestTransfer:
    def test_packaging_payment(self):
        ledger = funded_ledger()
        ledger.transfer(USER, PACKAGING, fet(7))
        assert ledger.balance(USER) == fet(93)
        assert ledger.balance(PACKAGING) == fet(12)
        assert ledger.conservation_ok()

    def test_insufficient_names_shortfall(self):
        ledger = funded_ledger()
        with pytest.raises(InsufficientFunds) as err:
            ledger.transfer(USER, COURIER, fet(101))
        assert err.value.shortfall == fet(1)
        assert ledger.balance(USER) == fet(100)  # state unchanged
        assert ledger.conservation_ok()

    def test_zero_amount(self):
        ledger = funded_ledger()
        with pytest.raises(ZeroAmount):
            ledger.transfer(USER, COURIER, 0)
        with pytest.raises(ZeroAmount):
            ledger.transfer(USER, COURIER, -5)

    def test_micro_payment(self):
        ledger = funded_ledger()
        ledger.transfer(USER, COURIER, 250_000)  # a quarter FET for map data
        assert ledger.balance(COURIER) == fet(10) + 250_000
        assert ledger.conservation_ok()


class TestFees:
    def test_fee_goes_to_sink(self):
        ledger = funded_ledger()
        ledger.charge_fee(COURIER, fet(1))
        assert ledger.fee_sink == fet(1)
        assert ledger.balance(COURIER) == fet(9)
        assert ledger.conservation_ok()

    def test_empty_wallet_cannot_pay(self):
        ledger = Ledger()
        with pytest.raises(InsufficientFunds):
            ledger.charge_fee("wallet1" + "e" * 52, fet(1))

    def test_sybil_cost_is_linear(self):
        ledger = Ledger()
        wallets = [f"wallet1{i:052d}" for i in range(1000)]
        for wallet in wallets:
            ledger.mint(wallet, fet(1))
            ledger.charge_fee(wallet, fet(1))
        assert ledger.fee_sink == fet(1000)
        assert all(ledger.balance(w) == 0 for w in wallets)
        assert ledger.conservation_ok()


class TestEscrow:
    def test_open_locks_funds(self):
        ledger = funded_ledger()
        escrow_id = ledger.open_escrow(USER, COURIER, fet(25), ARBITER)
        assert ledger.balance(USER) == fet(75)
        assert ledger.locked_total() == fet(25)
        assert ledger.escrows[escrow_id].state is EscrowState.OPEN
        assert ledger.conservation_ok()

    def test_release_pays_payee(self):
        ledger = funded_ledger()
        escrow_id = ledger.open_escrow(USER, COURIER, fet(25), ARBITER)
        ledger.settle_escrow(escrow_id, ARBITER, EscrowOutcome.RELEASED)
        assert ledger.balance(COURIER) == fet(35)
        assert ledger.locked_total() == 0
        assert ledger.conservation_ok()

    def test_refund_returns_to_payer(self):
        ledger = funded_ledger()
        escrow_id = ledger.open_escrow(USER, COURIER, fet(25), ARBITER)
        ledger.settle_escrow(escrow_id, ARBITER, EscrowOutcome.REFUNDED)
        assert ledger.balance(USER) == fet(100)
        assert ledger.balance(COURIER) == fet(10)
        assert ledger.conservation_ok()

    def test_double_settle_rejected(self):
        ledger = funded_ledger()
        escrow_id = ledger.open_escrow(USER, COURIER, fet(25), ARBITER)
        ledger.settle_escrow(escrow_id, ARBITER, EscrowOutcome.RELEASED)
        before = dict(ledger.balances)
        with pytest.raises(AlreadySettled):
            ledger.settle_escrow(escrow_id, ARBITER, EscrowOutcome.RELEASED)
        with pytest.raises(AlreadySettled):
            ledger.settle_escrow(escrow_id, ARBITER, EscrowOutcome.REFUNDED)
        assert ledger.balances == before

    def test_non_arbiter_rejected(self):
        ledger = funded_ledger()
        escrow_id = ledger.open_escrow(USER, COURIER, fet(25), ARBITER)
        with pytest.raises(NotArbiter):
            ledger.settle_escrow(escrow_id, COURIER, EscrowOutcome.RELEASED)
        assert ledger.escrows[escrow_id].state is EscrowState.OPEN

    def test_unknown_escrow(self):
        with pytest.raises(UnknownEscrow):
            funded_ledger().settle_escrow(b"\x00" * 16, ARBITER, EscrowOutcome.RELEASED)

    def test_full_balance_escrow(self):
        ledger = funded_ledger()
        ledger.open_escrow(USER, COURIER, fet(100), ARBITER)
        assert ledger.balance(USER) == 0
        assert ledger.conservation_ok()

    def test_insufficient_escrow(self):
        ledger = funded_ledger()
        with pytest.raises(InsufficientFunds):
            ledger.open_escrow(USER, COURIER, fet(101), ARBITER)


class TestEscrowTerminality:
    @given(st.permutations(["RR", "RF", "FR", "FF"]), st.integers(0, 3))
    @settings(max_examples=50)
    def test_shuffled_settle_orders_never_double_spend(self, order, extra):
        """Whatever order settle calls arrive in, each escrow pays out once."""
        ledger = funded_ledger()
        ids = [ledger.open_escrow(USER, COURIER, fet(5), ARBITER) for _ in range(4)]
        calls = []
        for escrow_id, pair in zip(ids, order):
            for ch in pair:
                outcome = EscrowOutcome.RELEASED if ch == "R" else EscrowOutcome.REFUNDED
                calls.append((escrow_id, outcome))
        random.Random(extra).shuffle(calls)
        for escrow_id, outcome in calls:
            try:
                ledger.settle_escrow(escrow_id, ARBITER, outcome)
            except AlreadySettled:
                pass
            assert ledger.conservation_ok()
        assert ledger.locked_total() == 0


class TestConservationProperty:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 30)), max_size=60))
    @settings(max_examples=100)
    def test_random_op_sequences_conserve(self, ops):
        ledger = funded_ledger()
        open_ids = []
        for op, amount in ops:
            amt = fet(amount)
            try:
                if op == 0:
                    ledger.transfer(USER, COURIER, amt)
                elif op == 1:
                    ledger.transfer(COURIER, USER, amt)
                elif op == 2:
                    ledger.charge_fee(USER, amt)
                elif op == 3:
                    open_ids.append(ledger.open_escrow(USER, COURIER, amt, ARBITER))
                elif op == 4 and open_ids:
                    ledger.settle_escrow(open_ids.pop(0), ARBITER, EscrowOutcome.RELEASED)
            except (InsufficientFunds, AlreadySettled):
                pass
            assert ledger.conservation_ok()


class TestJournal:
    def scripted_ledger(self) -> Ledger:
        ledger = funded_ledger()
        ledger.advance_block(3)
        ledger.transfer(USER, PACKAGING, fet(7))
        escrow_id = ledger.open_escrow(USER, COURIER, fet(25), ARBITER)
        ledger.charge_fee(COURIER, fet(1))
        ledger.advance_block(2)
        ledger.settle_escrow(escrow_id, ARBITER, EscrowOutcome.RELEASED)
        return ledger

    def test_replay_reconstructs_state(self):
        original = self.scripted_ledger()
        rebuilt = replay(original.journal)
        assert rebuilt.balances == original.balances
        assert rebuilt.fee_sink == original.fee_sink
        assert rebuilt.height == original.height
        assert rebuilt.total_supply == original.total_supply
        assert {e.hex() for e in rebuilt.escrows} == {e.hex() for e in original.escrows}

    def test_replayed_zero_escrow_is_rejected_as_a_live_one(self):
        zero = Record(
            ESCROW_OPEN_OP,
            dict(escrow_id="00" * 16, payer=USER, payee=COURIER, amount=0, arbiter=ARBITER),
        )
        with pytest.raises(ZeroAmount):
            funded_ledger().open_escrow(USER, COURIER, 0, ARBITER)
        with pytest.raises(ZeroAmount):
            replay([*funded_ledger().journal, zero])

    def test_file_roundtrip(self, tmp_path):
        original = self.scripted_ledger()
        path = str(tmp_path / "ops.journal")
        count = write_journal(path, original.journal)
        assert count == len(original.journal)
        records = read_journal(path)
        rebuilt = replay(records)
        assert rebuilt.balances == original.balances
        assert journal_lines(rebuilt.journal) == journal_lines(original.journal)

    def test_journal_lines_are_hex(self):
        for line in journal_lines(self.scripted_ledger().journal):
            bytes.fromhex(line)  # raises on a malformed line
