"""Seeded kill-and-restart property: the fold balances across generations.

A model-based test of the ledger arithmetic: a reference model tracks
what a gateway *should* owe after any interleaving of admissions, fates,
dead letters, and process deaths, while the same operations are written
through a real :class:`FileWALStore` — reopened between generations the
way a crashed process reopens it, with seeded torn tails appended at
crash points.  After every generation the fold must reproduce the model
exactly and the cross-crash conservation equation must balance.
"""

import random
from dataclasses import replace

import pytest

from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message
from repro.store import FileWALStore, Ledger

SESSION = "prop-session"
MCL = "main stream chain{ streamlet r = new-streamlet (redirector); }"


class Model:
    """Reference arithmetic for one session across process generations."""

    def __init__(self):
        self.admitted = 0
        self.delivered = 0
        self.absorbed = 0
        self.dead_lettered = 0
        self.dropped = 0
        self.running = 0
        self.frozen = 0
        self.parked = set()

    def counters(self, admitted, delivered, absorbed, dead, dropped):
        self.admitted += admitted
        self.delivered += delivered
        self.absorbed += absorbed
        self.dead_lettered += dead
        self.dropped += dropped
        self.running += admitted - (delivered + absorbed + dead + dropped)

    def crash_recovered(self):
        self.frozen += self.running
        self.running = 0


def random_batch(rng, model):
    """A counters delta a live mirror could legally produce.

    The mirror reads terminal fates first and admissions last, so a
    batch never reports more outflow than the session ever admitted;
    the model enforces the same bound on the generator.
    """
    admitted = rng.randint(0, 6)
    budget = model.running + admitted
    delivered = rng.randint(0, budget)
    budget -= delivered
    absorbed = rng.randint(0, min(budget, 2))
    budget -= absorbed
    dead = rng.randint(0, min(budget, 2))
    budget -= dead
    dropped = rng.randint(0, min(budget, 2))
    return admitted, delivered, absorbed, dead, dropped


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_fold_matches_the_model_across_crashing_generations(tmp_path, seed):
    rng = random.Random(seed)
    path = str(tmp_path / "ledger.wal")
    model = Model()
    frame = serialize_message(MimeMessage("text/plain", b"dead letter"))
    generations = rng.randint(3, 6)
    deployed = False
    for generation in range(generations):
        ledger = Ledger(FileWALStore(path))
        fold = ledger.fold().session(SESSION)
        totals = fold.totals
        # -- what a restart would see: the model, exactly -------------------
        assert totals.admitted == model.admitted
        assert totals.delivered == model.delivered
        assert totals.dead_letters == model.dead_lettered
        assert totals.dropped == model.dropped
        assert totals.in_flight == model.running
        assert totals.recovered_in_flight == model.frozen
        assert set(fold.parked) == model.parked
        # residency after a kill is zero, so recovery freezes the tally
        assert replace(totals, residual=model.running).balanced
        if not deployed:
            ledger.deployed(SESSION, mcl=MCL, scheduler="threaded")
            deployed = True
        if generation > 0:
            ledger.recovered(
                SESSION,
                in_flight=totals.in_flight,
                parked=len(fold.parked),
                retries=len(fold.pending_retries),
            )
            model.crash_recovered()
        # -- a generation's worth of traffic --------------------------------
        for _ in range(rng.randint(1, 8)):
            batch = random_batch(rng, model)
            ledger.counters(
                SESSION,
                admitted=batch[0],
                delivered=batch[1],
                absorbed=batch[2],
                dead_letters=batch[3],
                dropped=batch[4],
            )
            model.counters(*batch)
            if batch[3] and rng.random() < 0.7:
                msg_id = f"dl-{generation}-{len(model.parked)}"
                ledger.dead_letter(SESSION, msg_id, reason="exhausted", frame=frame)
                model.parked.add(msg_id)
            if model.parked and rng.random() < 0.2:
                victim = sorted(model.parked)[0]
                ledger.dead_letter_evicted(SESSION, victim)
                model.parked.discard(victim)
            ledger.flush()
        # -- the crash: no close; seeded torn tail after the flushed prefix --
        if rng.random() < 0.5:
            with open(path, "ab") as fh:
                fh.write(b'0badc0de {"ev": "counters", "sess')
    final = Ledger(FileWALStore(path)).fold().session(SESSION)
    totals = final.totals
    assert replace(totals, residual=model.running).balanced
    assert totals.admitted == (
        totals.delivered + totals.absorbed + totals.dead_letters
        + totals.dropped + totals.recovered_in_flight + model.running
    )
    assert set(final.parked) == model.parked


@pytest.mark.parametrize("seed", [3, 11])
def test_unflushed_records_after_the_last_flush_may_die_but_never_corrupt(tmp_path, seed):
    # records appended after the final flush sit in the process buffer;
    # a kill loses them, and the reopened fold simply sees the flushed
    # prefix — never a half-record, never an unbalanced equation
    import os

    rng = random.Random(seed)
    path = str(tmp_path / "ledger.wal")
    ledger = Ledger(FileWALStore(path))
    ledger.deployed(SESSION, mcl=MCL, scheduler="threaded")
    flushed_admitted = rng.randint(1, 5)
    ledger.counters(SESSION, admitted=flushed_admitted)
    ledger.flush()
    durable_bytes = os.path.getsize(path)
    ledger.counters(SESSION, admitted=99, delivered=99)
    ledger.close()
    with open(path, "rb+") as fh:  # the kill: everything past the fsync dies
        fh.truncate(durable_bytes)
    totals = Ledger(FileWALStore(path)).fold().session(SESSION).totals
    assert totals.admitted == flushed_admitted
    assert totals.in_flight == flushed_admitted
    assert replace(totals, residual=flushed_admitted).balanced


@pytest.mark.parametrize("seed", [5, 17, 29])
def test_a_torn_rows_record_loses_its_whole_cycle_and_nothing_before(tmp_path, seed):
    # one cycle is one ``counters`` record: a kill mid-write cuts it
    # somewhere, and the fold then holds every earlier cycle exactly and
    # no row of the cut one
    import os

    rng = random.Random(seed)
    path = str(tmp_path / "ledger.wal")
    keys = ["s-%d" % n for n in range(8)]
    ledger = Ledger(FileWALStore(path))
    models = {key: Model() for key in keys}
    for _ in range(rng.randint(2, 6)):
        rows = []
        for key in rng.sample(keys, rng.randint(1, len(keys))):
            batch = random_batch(rng, models[key])
            models[key].counters(*batch)
            rows.append([key, *batch])
        ledger.mirror(rows)
        ledger.flush()
    durable_bytes = os.path.getsize(path)
    cut = [[key, 1, 1, 0, 0, 0] for key in keys]
    ledger.mirror(cut)
    ledger.close()
    whole = os.path.getsize(path)
    for torn_at in sorted(rng.sample(range(durable_bytes + 1, whole), 5)) + [whole - 1]:
        with open(path, "rb") as fh:
            data = fh.read()
        torn = str(tmp_path / f"torn-{torn_at}.wal")
        with open(torn, "wb") as fh:
            fh.write(data[:torn_at])
        store = FileWALStore(torn)
        out = Ledger(store).fold()
        assert store.torn == 1
        for key in keys:
            totals, model = out.session(key).totals, models[key]
            assert (totals.admitted, totals.delivered, totals.absorbed) == (
                model.admitted, model.delivered, model.absorbed
            )
            assert (totals.dead_letters, totals.dropped) == (model.dead_lettered, model.dropped)
            assert totals.in_flight == model.running
        store.close()
