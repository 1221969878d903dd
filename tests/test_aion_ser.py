"""Tests for Aion-SER, the online serializability checker."""

import pytest

from repro.core.aion_ser import AionSer
from repro.core.aion import Aion, AionConfig
from repro.core.colpack import pack_columnar, unpack_columnar
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.core.violations import Axiom
from repro.histories.builder import HistoryBuilder
from repro.histories.model import Transaction
from repro.histories.ops import read, write
from repro.online.clock import SimClock


def make_ser(timeout=float("inf"), clock=None):
    return AionSer(AionConfig(timeout=timeout), clock=clock or (lambda: 0.0))


def feed(checker, txns):
    for txn in txns:
        checker.receive(txn)
    return checker.finalize()


class TestCommitOrderSemantics:
    def test_serial_history_valid(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[read("x", 1), write("x", 2)])
        history = b.build()
        assert feed(make_ser(), history.transactions).is_valid

    def test_reader_sees_strict_predecessor(self):
        # A reader committing at ts c must see the version just below c,
        # never its own or later versions.
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[read("x", 1), write("x", 2)])
        b.txn(sid=3, start=5, commit=6, ops=[read("x", 2)])
        history = b.build()
        assert feed(make_ser(), history.transactions).is_valid

    def test_stale_read_flagged(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, tid=2, start=2, commit=5, ops=[read("x", 0)])
        history = b.build()
        result = feed(make_ser(), history.transactions)
        ext = result.by_axiom(Axiom.EXT)
        assert len(ext) == 1 and ext[0].tid == 2


class TestOutOfOrder:
    def test_late_serial_predecessor_rechecks_readers(self):
        b = HistoryBuilder(keys=["x"])
        w1 = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        r = b.txn(sid=2, start=3, commit=4, ops=[read("x", 1)])
        history = b.build()
        checker = make_ser()
        result = feed(checker, [history.init_transaction, r, w1])
        assert result.is_valid
        assert checker.flipflop_stats.flipped_tids == {r.tid}

    def test_late_writer_invalidates_reader(self):
        b = HistoryBuilder(keys=["x"])
        w1 = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        r = b.txn(sid=2, start=3, commit=4, ops=[read("x", 0)])  # misses w1
        history = b.build()
        result = feed(make_ser(), [history.init_transaction, r, w1])
        assert result.by_axiom(Axiom.EXT)

    def test_writer_reading_key_it_overwrites(self):
        # The upper-inclusive re-check boundary: a txn that reads x and
        # writes x sees the version strictly before its own commit.
        b = HistoryBuilder(keys=["x"])
        w1 = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        rw = b.txn(sid=2, start=3, commit=4, ops=[read("x", 1), write("x", 2)])
        history = b.build()
        result = feed(make_ser(), [history.init_transaction, rw, w1])
        assert result.is_valid


class TestSessionsAndTimeouts:
    def test_session_commit_order(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, sno=0, start=5, commit=6, ops=[write("x", 1)])
        b.txn(sid=1, sno=1, start=1, commit=2, ops=[write("y", 1)])
        history = b.build()
        result = feed(make_ser(), history.transactions)
        assert result.by_axiom(Axiom.SESSION)

    def test_timeout_finalizes(self):
        clock = SimClock()
        checker = make_ser(timeout=1.0, clock=clock)
        b = HistoryBuilder(keys=["x"])
        bad = b.txn(sid=1, start=1, commit=1, ops=[read("x", 99)])
        history = b.build()
        checker.receive(history.init_transaction)
        checker.receive(bad)
        clock.advance(1.5)
        assert [v.axiom for v in checker.poll()] == [Axiom.EXT]

    def test_matches_chronos_ser_on_si_history(self, si_history):
        checker = make_ser()
        result = feed(checker, si_history.by_commit_ts())
        offline = ChronosSer().check(si_history)
        assert normalize_violations(result) == normalize_violations(offline)
        assert not result.is_valid  # SI history is not serializable here


class TestTimestampOrder:
    """Eq. 1 is the one verdict where the profiles part ways on the same
    transaction: SI rejects ``start_ts > commit_ts`` outright, SER reports
    it and still checks the transaction at its commit point."""

    @staticmethod
    def arrivals():
        init = Transaction(0, 0, 0, [write("x", 0)], start_ts=0, commit_ts=0)
        # Commits at 3 but claims to start at 5; its write of x is the
        # serial predecessor of the reader committing at 4.
        inverted = Transaction(1, 1, 0, [write("x", 1)], start_ts=5, commit_ts=3)
        reader = Transaction(2, 2, 0, [read("x", 1)], start_ts=1, commit_ts=4)
        # The reader arrives first, so only the inverted writer's step-③
        # re-check can clear its tentative EXT failure.
        return [init, reader, inverted]

    @staticmethod
    def check(checker, route):
        txns = TestTimestampOrder.arrivals()
        try:
            if route == "receive":
                for txn in txns:
                    checker.receive(txn)
            elif route == "list":
                checker.receive_many(txns)
            else:
                checker.receive_many(unpack_columnar(pack_columnar(txns))[0])
            return checker.finalize(), checker.flipflop_stats.flipped_tids
        finally:
            checker.close()

    @pytest.mark.parametrize("route", ["receive", "list", "columnar"])
    def test_ser_reports_and_still_checks(self, route):
        result, flipped = self.check(make_ser(), route)
        assert [(v.axiom, v.tid) for v in result.violations] == [(Axiom.TS_ORDER, 1)]
        assert flipped == {2}

    @pytest.mark.parametrize("route", ["receive", "list", "columnar"])
    def test_si_rejects(self, route):
        checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        result, _ = self.check(checker, route)
        assert [(v.axiom, v.tid) for v in result.violations] == [
            (Axiom.TS_ORDER, 1),
            (Axiom.EXT, 2),
        ]
