"""The attestation ledger (:mod:`repro.ledger`).

Four layers of guarantees, each tested here:

* **canonical encoding** — deterministic JSON (key-order invariant,
  idempotent through ``json.loads``, stable across processes), property-
  tested with Hypothesis;
* **chain integrity** — any single-entry mutation, insertion, deletion
  or reorder is rejected on open with :class:`LedgerCorrupt`;
* **concurrency & crash safety** — threads and forked processes
  appending to one ledger produce a valid unbroken chain with no torn
  lines, and a writer killed mid-append costs at most the final partial
  line (mirrors ``test_threaded_hammer_keeps_the_cache_consistent`` in
  ``tests/test_projector_cache.py``);
* **recording, dedup and replay** — the ``prune()``/``extract()``
  facades record and serve byte-identical results, and
  :func:`replay_ledger` re-earns every attestation (divergences and
  skips land in the structured report, not in exceptions).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import extract, obs, prune
from repro.dtd.grammar import grammar_from_text
from repro.errors import LedgerCorrupt
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.ledger import (
    HashingSink,
    Ledger,
    canonical_json,
    decode_stats,
    encode_stats,
    hash_canonical,
    hash_file,
    hash_records,
    hash_text,
    replay_ledger,
)
from repro.projection.stats import PruneStats
from tests.conftest import BOOK_DTD, BOOK_XML

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- canonical encoding (Hypothesis) -----------------------------------------

# No surrogates: canonical text ultimately hashes through strict UTF-8.
_text = st.text(
    alphabet=st.characters(exclude_categories=("Cs",)), max_size=12
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    _text,
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=24,
)


def _reorder(value):
    """The same JSON value with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {key: _reorder(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


def _encode_or_assume(value) -> str:
    try:
        return canonical_json(value)
    except ValueError:
        # NFC-colliding keys (or NaN smuggled through) are rejected by
        # design — not interesting cases for the determinism properties.
        assume(False)
        raise AssertionError  # pragma: no cover


class TestCanonicalEncoding:
    @given(_json_values)
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_dict_key_order(self, value):
        assert _encode_or_assume(value) == canonical_json(_reorder(value))

    @given(_json_values)
    @settings(max_examples=150, deadline=None)
    def test_idempotent_through_json_loads(self, value):
        encoded = _encode_or_assume(value)
        decoded = json.loads(encoded)
        assert canonical_json(decoded) == encoded
        assert hash_canonical(decoded) == hash_canonical(value)

    @given(_json_values)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_parseable_json(self, value):
        encoded = _encode_or_assume(value)
        json.loads(encoded)  # must not raise

    def test_sorted_keys_and_tight_separators(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_negative_zero_collapses(self):
        assert canonical_json(-0.0) == canonical_json(0.0)
        assert hash_canonical({"x": -0.0}) == hash_canonical({"x": 0.0})

    def test_nfc_normalization_unifies_spellings(self):
        composed = "café"
        decomposed = "café"
        assert canonical_json(composed) == canonical_json(decomposed)
        with pytest.raises(ValueError, match="duplicate key"):
            canonical_json({composed: 1, decomposed: 2})

    def test_rejections(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))
        with pytest.raises(ValueError):
            canonical_json([float("inf")])
        with pytest.raises(TypeError):
            canonical_json({1: "non-string key"})
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_hashes_stable_across_processes(self):
        value = {"b": [1, 2.5, None, True], "a": "café", "n": -0.0}
        code = (
            "from repro.ledger import hash_canonical\n"
            "print(hash_canonical({'b': [1, 2.5, None, True], "
            "'a': 'caf\\u00e9', 'n': -0.0}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == hash_canonical(value)

    def test_hash_text_matches_hash_file(self, tmp_path):
        text = "<bib>élève &amp; price</bib>\n"
        path = tmp_path / "doc.xml"
        path.write_text(text, encoding="utf-8")
        assert hash_file(path) == hash_text(text)

    def test_hashing_sink_matches_hash_text_and_tees(self):
        tee = io.StringIO()
        sink = HashingSink(tee=tee)
        for chunk in ("<a>", "café", "</a>"):
            sink.write(chunk)
        sink.flush()
        assert sink.hexdigest() == hash_text("<a>café</a>")
        assert tee.getvalue() == "<a>café</a>"
        assert sink.written == len("<a>café</a>")

    def test_hash_records_is_order_sensitive(self):
        rows = [{"a": "1"}, {"a": "2"}]
        assert hash_records(rows) != hash_records(list(reversed(rows)))
        assert hash_records(rows) == hash_records([dict(r) for r in rows])


class TestStatsRoundTrip:
    def test_prune_stats(self):
        stats = PruneStats(
            elements_in=10, elements_out=4, texts_in=5, texts_out=2,
            attributes_in=3, attributes_out=1, bytes_in=100, bytes_out=40,
            distinct_tags_in={"a", "b"}, distinct_tags_out={"a"},
        )
        wire = encode_stats(stats)
        assert wire["kind"] == "prune"
        canonical_json(wire)  # JSON-safe by construction
        assert decode_stats(json.loads(json.dumps(wire))) == stats

    def test_prune_stats_encoding_is_pinned(self):
        """Ledger entries hash their stats, so the encoding must stay byte
        for byte what earlier ledgers recorded (or their ``verify-ledger``
        replays would diverge)."""
        stats = PruneStats(
            elements_in=7, elements_out=3, texts_in=5, texts_out=2,
            attributes_in=4, attributes_out=1, bytes_in=120, bytes_out=40,
            distinct_tags_in={"title", "bib", "book"},
            distinct_tags_out={"bib", "title"},
        )
        assert encode_stats(stats) == {
            "kind": "prune",
            "elements_in": 7, "elements_out": 3, "texts_in": 5, "texts_out": 2,
            "attributes_in": 4, "attributes_out": 1,
            "bytes_in": 120, "bytes_out": 40,
            "distinct_tags_in": ["bib", "book", "title"],
            "distinct_tags_out": ["bib", "title"],
        }
        assert canonical_json(encode_stats(stats)) == (
            '{"attributes_in":4,"attributes_out":1,"bytes_in":120,"bytes_out":40,'
            '"distinct_tags_in":["bib","book","title"],'
            '"distinct_tags_out":["bib","title"],"elements_in":7,'
            '"elements_out":3,"kind":"prune","texts_in":5,"texts_out":2}'
        )

    def test_extract_stats(self):
        stats = ExtractStats(rows_out=7, fields_out=14, nulls_out=2,
                             bytes_in=100, bytes_out=50)
        wire = encode_stats(stats)
        assert wire["kind"] == "extract"
        assert decode_stats(json.loads(json.dumps(wire))) == stats


# -- the chained ledger file -------------------------------------------------


def _record(ledger: Ledger, i: int, tag: str = "x", text: str | None = None):
    text = text if text is not None else f"<out>{tag}-{i}</out>"
    return ledger.record(
        op="prune",
        grammar_fp=f"grammar-{tag}",
        workload_fp=f"workload-{i}",
        limits_fp="limits",
        input_hash=f"input-{tag}-{i}",
        output_hash=hash_text(text),
        stats=encode_stats(PruneStats(bytes_in=len(text) + 1, bytes_out=len(text))),
        provenance={"tag": tag},
        result={"kind": "prune", "text": text},
    )


class TestLedgerFile:
    def test_append_reopen_verifies_chain(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            first = _record(ledger, 1)
            second = _record(ledger, 2)
            assert first.prev == "" and second.prev == first.entry_hash
            assert ledger.tip == second.entry_hash
            assert [e.seq for e in ledger.entries] == [1, 2]
        with Ledger(path, fsync=False) as ledger:
            assert len(ledger) == 2
            assert ledger.tip == second.entry_hash
            third = _record(ledger, 3)
            assert third.prev == second.entry_hash and third.seq == 3

    def test_identical_rerun_dedups_and_heals_the_store(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            entry = _record(ledger, 1)
            again = _record(ledger, 1)
            assert again is entry and len(ledger) == 1
            # Losing the stored blob disables serving; re-running the
            # workload re-puts it instead of appending history.
            blob = os.path.join(path + ".store", entry.output_hash + ".json")
            os.unlink(blob)
            assert ledger.fetch(entry.key) is None
            _record(ledger, 1)
            assert len(ledger) == 1 and ledger.fetch(entry.key) is not None

    def test_same_key_new_output_appends(self, tmp_path):
        """A changed output for a recorded key is *history*, not an
        overwrite — both attestations stay on the chain."""
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            first = _record(ledger, 1, text="<out>v1</out>")
            second = _record(ledger, 1, text="<out>v2</out>")
            assert second.seq == 2 and second.key == first.key
            assert ledger.lookup(first.key) is second  # latest wins

    def test_fetch_refuses_tampered_store_payload(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            entry = _record(ledger, 1)
            blob = os.path.join(path + ".store", entry.output_hash + ".json")
            payload = json.loads(open(blob, encoding="utf-8").read())
            payload["text"] += "!"
            with open(blob, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            assert ledger.fetch(entry.key) is None
            assert ledger.hits == 0

    def test_any_single_entry_mutation_is_rejected(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            for i in range(1, 4):
                _record(ledger, i)
        pristine = open(path, "rb").read()
        lines = pristine.splitlines(keepends=True)
        assert len(lines) == 3
        for victim in range(3):
            line = lines[victim]
            where = line.index(b'"output":"') + len(b'"output":"')
            flipped = b"0" if line[where:where + 1] != b"0" else b"1"
            mutated = line[:where] + flipped + line[where + 1:]
            assert mutated != line
            with open(path, "wb") as handle:
                handle.writelines(
                    mutated if i == victim else original
                    for i, original in enumerate(lines)
                )
            with pytest.raises(LedgerCorrupt):
                Ledger(path, fsync=False)
        # Deleting or swapping whole entries breaks the chain too.
        with open(path, "wb") as handle:
            handle.writelines([lines[0], lines[2]])
        with pytest.raises(LedgerCorrupt):
            Ledger(path, fsync=False)
        with open(path, "wb") as handle:
            handle.writelines([lines[1], lines[0], lines[2]])
        with pytest.raises(LedgerCorrupt):
            Ledger(path, fsync=False)
        with open(path, "wb") as handle:
            handle.write(pristine)
        with Ledger(path, fsync=False) as ledger:
            assert len(ledger) == 3  # pristine bytes still verify

    def test_torn_final_line_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            _record(ledger, 1)
            _record(ledger, 2)
        intact = open(path, "rb").read()
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"seq":3,"op":"prune","gram')
        with Ledger(path, fsync=False) as ledger:
            assert len(ledger) == 2
        assert open(path, "rb").read() == intact

    def test_shrunk_file_is_corrupt(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=False) as ledger:
            _record(ledger, 1)
            _record(ledger, 2)
            with open(path, "rb") as handle:
                first_line_len = len(handle.readline())
            os.truncate(path, first_line_len)
            with pytest.raises(LedgerCorrupt, match="shrank"):
                _record(ledger, 3)

    def test_ledger_is_always_truthy(self, tmp_path):
        with Ledger(tmp_path / "ledger.jsonl", fsync=False) as ledger:
            assert len(ledger) == 0 and bool(ledger)

    def test_entry_hashes_stable_across_processes(self, tmp_path):
        with Ledger(tmp_path / "here.jsonl", fsync=False) as ledger:
            local = _record(ledger, 1)
        code = (
            "import sys\n"
            "from repro.ledger import Ledger, encode_stats, hash_text\n"
            "from repro.projection.stats import PruneStats\n"
            "text = '<out>x-1</out>'\n"
            "with Ledger(sys.argv[1], fsync=False) as ledger:\n"
            "    entry = ledger.record(op='prune', grammar_fp='grammar-x',\n"
            "        workload_fp='workload-1', limits_fp='limits',\n"
            "        input_hash='input-x-1', output_hash=hash_text(text),\n"
            "        stats=encode_stats(PruneStats(bytes_in=len(text) + 1,\n"
            "                                      bytes_out=len(text))),\n"
            "        provenance={'tag': 'x'})\n"
            "print(entry.entry_hash)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "there.jsonl")],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == local.entry_hash


# -- concurrency & crash safety ----------------------------------------------


class TestConcurrencyAndCrashes:
    def test_thread_and_fork_hammer_keeps_the_chain_unbroken(self, tmp_path):
        """8 threads sharing one handle plus 4 forked workers with their
        own handles, all appending to one file: every append lands, the
        chain verifies end to end, and no line is torn."""
        path = str(tmp_path / "ledger.jsonl")
        per_writer = 20

        child_pids = []
        for worker in range(4):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with Ledger(path, fsync=False) as ledger:
                        for i in range(per_writer):
                            _record(ledger, i, tag=f"fork{worker}")
                    status = 0
                finally:
                    os._exit(status)
            child_pids.append(pid)

        errors: list[BaseException] = []
        with Ledger(path, fsync=False) as ledger:
            def hammer(thread: int) -> None:
                try:
                    for i in range(per_writer):
                        _record(ledger, i, tag=f"thread{thread}")
                except BaseException as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "hammer thread wedged"
        for pid in child_pids:
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, "forked writer failed"
        assert not errors

        raw = open(path, "rb").read()
        assert raw.endswith(b"\n"), "torn final line survived the hammer"
        with Ledger(path, fsync=False) as ledger:  # full chain verification
            assert len(ledger) == (8 + 4) * per_writer
            assert raw.count(b"\n") == len(ledger)
            assert [e.seq for e in ledger.entries] == list(
                range(1, len(ledger) + 1)
            )

    def test_threads_storing_the_same_result_all_succeed(self, tmp_path):
        """8 threads store the same digest at once (service threads
        recording one output): each writes its own temporary file, so
        every put succeeds, the blob re-hashes to its digest and no
        temporary file is left behind."""
        from repro.ledger.ledger import ResultStore

        text = "<a>" + "x" * 200_000 + "</a>"
        digest = hash_text(text)
        store = ResultStore(str(tmp_path / "store"))
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def put() -> None:
            try:
                barrier.wait(timeout=30)
                store.put(digest, {"text": text})
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=put) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "store thread wedged"
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert hash_text(store.get(digest)["text"]) == digest
        assert os.listdir(store.root) == [digest + ".json"]

    def test_blob_gets_the_mode_open_would_give(self, tmp_path):
        """Blobs are written through a private temporary file but keep
        the umask-derived mode of a plain ``open()``, so a replay run
        under another account can still read them."""
        from repro.ledger.ledger import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        digest = hash_text("<a/>")
        store.put(digest, {"text": "<a/>"})
        reference = tmp_path / "reference"
        reference.write_text("")
        blob = os.path.join(store.root, digest + ".json")
        assert os.stat(blob).st_mode & 0o777 == reference.stat().st_mode & 0o777

    def test_writer_killed_mid_append_costs_one_partial_line(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path, fsync=True) as ledger:
            _record(ledger, 1)
            _record(ledger, 2)

        pid = os.fork()
        if pid == 0:
            # Die mid-append: half an entry hits the file, no newline,
            # no cleanup (os._exit skips every handler).
            fd = os.open(path, os.O_APPEND | os.O_WRONLY)
            os.write(fd, b'{"v":1,"seq":3,"op":"prune","grammar":"gram')
            os._exit(1)
        os.waitpid(pid, 0)
        raw = open(path, "rb").read()
        assert not raw.endswith(b"\n")  # the torn line really is there

        with Ledger(path, fsync=False) as ledger:
            assert len(ledger) == 2  # at most the final partial line lost
            entry = _record(ledger, 3)
            assert entry.seq == 3
        raw = open(path, "rb").read()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 3

        report = replay_ledger(path)
        assert report.ok and not report.divergent


# -- facade recording, dedup serving, replay ---------------------------------


@pytest.fixture()
def bib(tmp_path):
    grammar = grammar_from_text(BOOK_DTD, "bib")
    doc = tmp_path / "bib.xml"
    doc.write_text(BOOK_XML, encoding="utf-8")
    return grammar, str(doc), str(tmp_path / "ledger.jsonl")


PROV = {"grammar": {"dtd": BOOK_DTD, "root": "bib"}}
TITLES = frozenset({"bib", "book", "title"})


class TestFacadeRecording:
    def test_prune_records_serves_and_counts(self, bib):
        grammar, doc, led_path = bib
        with obs.capture(), Ledger(led_path, fsync=False) as ledger:
            fresh = prune(doc, grammar, TITLES)
            first = prune(doc, grammar, TITLES, ledger=ledger, provenance=PROV)
            second = prune(doc, grammar, TITLES, ledger=ledger, provenance=PROV)
            assert first.text == second.text == fresh.text
            assert first.stats == second.stats == fresh.stats
            assert ledger.appended == 1 and ledger.hits == 1
            assert obs.counter("ledger.records") == 1
            assert obs.counter("ledger.hits") == 1

    def test_validate_runs_are_never_dedup_served(self, bib):
        grammar, doc, led_path = bib
        with Ledger(led_path, fsync=False) as ledger:
            prune(doc, grammar, TITLES, ledger=ledger, validate=True)
            prune(doc, grammar, TITLES, ledger=ledger, validate=True)
            assert ledger.hits == 0 and len(ledger) == 1

    def test_stream_output_attests_without_a_blob(self, bib):
        grammar, doc, led_path = bib
        with Ledger(led_path, fsync=False) as ledger:
            sink = io.StringIO()
            prune(doc, grammar, TITLES, out=sink, ledger=ledger)
            entry = ledger.entries[0]
            assert entry.output_hash == hash_text(sink.getvalue())
            # No stored bytes -> no dedup serve; the re-run re-attests
            # the same hash without appending history.
            again = io.StringIO()
            prune(doc, grammar, TITLES, out=again, ledger=ledger)
            assert again.getvalue() == sink.getvalue()
            assert ledger.hits == 0 and len(ledger) == 1

    def test_stream_sources_bypass_the_ledger(self, bib):
        grammar, _, led_path = bib
        with Ledger(led_path, fsync=False) as ledger:
            result = prune(io.StringIO(BOOK_XML), grammar, TITLES, ledger=ledger)
            assert result.text is not None
            assert len(ledger) == 0

    def test_extract_records_and_serves_records(self, bib):
        grammar, doc, led_path = bib
        spec = ExtractSpec(
            rows="/bib/book",
            fields={"title": "title/text()", "isbn": "@isbn"},
        )
        with Ledger(led_path, fsync=False) as ledger:
            fresh = extract(doc, grammar, spec)
            first = extract(doc, grammar, spec, ledger=ledger, provenance=PROV)
            second = extract(doc, grammar, spec, ledger=ledger, provenance=PROV)
            assert ledger.appended == 1 and ledger.hits == 1
            assert second.text == first.text == fresh.text
            assert second.records == first.records == fresh.records
            assert second.stats == first.stats == fresh.stats
            entry = ledger.entries[0]
            assert entry.op == "extract" and entry.records_hash is not None

    def test_prune_and_extract_to_path_serve_identical_files(self, bib, tmp_path):
        grammar, doc, led_path = bib
        out_a, out_b = str(tmp_path / "a.xml"), str(tmp_path / "b.xml")
        with Ledger(led_path, fsync=False) as ledger:
            prune(doc, grammar, TITLES, out=out_a, ledger=ledger)
            prune(doc, grammar, TITLES, out=out_b, ledger=ledger)
            assert ledger.hits == 1
            assert open(out_a).read() == open(out_b).read()


class TestReplay:
    def _recorded(self, bib) -> "tuple[str, object]":
        grammar, doc, led_path = bib
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        with Ledger(led_path, fsync=False) as ledger:
            prune(doc, grammar, TITLES, ledger=ledger, provenance=PROV)
            extract(doc, grammar, spec, ledger=ledger, provenance=PROV)
        return led_path, grammar

    def test_replay_attests_everything(self, bib):
        led_path, _ = self._recorded(bib)
        report = replay_ledger(led_path, jobs=2)
        assert report.ok and report.attested == report.total == 2
        assert not report.skipped
        data = report.as_dict()
        assert data["ok"] and data["attested"] == 2

    def test_changed_input_is_divergent(self, bib):
        led_path, _ = self._recorded(bib)
        _, doc, _ = bib
        with open(doc, "a", encoding="utf-8") as handle:
            handle.write("<!-- tampered -->")
        report = replay_ledger(led_path)
        assert not report.ok and len(report.divergent) == 2
        assert all("input file changed" in item.reason
                   for item in report.divergent)

    def test_missing_source_is_skipped_not_failed(self, bib):
        led_path, _ = self._recorded(bib)
        _, doc, _ = bib
        os.unlink(doc)
        # The stored results still hash-verify (step 1), but the runs
        # cannot be re-earned — reported as skips, never as divergence.
        report = replay_ledger(led_path)
        assert report.ok and report.attested == 0
        assert {item.reason for item in report.skipped} == {
            "source file no longer exists"
        }

    def test_grammar_fallback_by_fingerprint(self, bib):
        grammar, doc, led_path = bib
        with Ledger(led_path, fsync=False) as ledger:
            # No grammar provenance recorded at all.
            prune(doc, grammar, TITLES, ledger=ledger)
        assert replay_ledger(led_path).skipped  # unrecoverable alone
        report = replay_ledger(led_path, grammar=grammar)
        assert report.ok and report.attested == 1
        wrong = grammar_from_text("<!ELEMENT r (#PCDATA)>", "r")
        report = replay_ledger(led_path, grammars=[wrong])
        assert report.attested == 0 and report.skipped

    def test_since_replays_a_suffix(self, bib):
        led_path, _ = self._recorded(bib)
        report = replay_ledger(led_path, since=2)
        assert report.total == 1 and report.ok


class TestCli:
    def test_verify_ledger_command(self, bib, capsys):
        from repro.cli import main

        grammar, doc, led_path = bib
        with Ledger(led_path, fsync=False) as ledger:
            prune(doc, grammar, TITLES, ledger=ledger, provenance=PROV)
        assert main(["verify-ledger", "--ledger", led_path, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 attested, 0 divergent, 0 skipped" in out

        with open(doc, "a", encoding="utf-8") as handle:
            handle.write(" ")
        assert main(["verify-ledger", "--ledger", led_path]) == 1
        captured = capsys.readouterr()
        assert "DIVERGENT seq=1" in captured.err

    def test_prune_and_extract_ledger_flags(self, bib, tmp_path, capsys):
        from repro.cli import main

        _, doc, led_path = bib
        dtd = tmp_path / "bib.dtd"
        dtd.write_text(BOOK_DTD, encoding="utf-8")
        out = str(tmp_path / "pruned.xml")
        argv = ["prune", "--dtd", str(dtd), "--root", "bib",
                "--query", "/bib/book/title", doc, out, "--ledger", led_path]
        assert main(argv) == 0
        assert "ledger: attestation recorded" in capsys.readouterr().out
        assert main(argv) == 0
        assert "ledger: served from recorded result" in capsys.readouterr().out

        argv = ["extract", "--dtd", str(dtd), "--root", "bib",
                "--rows", "/bib/book", "--field", "title=title/text()",
                doc, "--ledger", led_path]
        assert main(argv) == 0
        assert "ledger: attestation recorded" in capsys.readouterr().err
        assert main(argv) == 0
        assert "ledger: served from recorded result" in capsys.readouterr().err

        # The recorded dtd_path provenance makes the replay self-contained.
        assert main(["verify-ledger", "--ledger", led_path]) == 0
        assert "2 attested" in capsys.readouterr().out

    def test_ledger_refuses_batch_and_server(self, bib, tmp_path):
        from repro.cli import main

        _, doc, led_path = bib
        with pytest.raises(SystemExit, match="single-document"):
            main(["prune", "--xmark", "--query", "/site", "--jobs", "2",
                  doc, str(tmp_path), "--ledger", led_path])
        with pytest.raises(SystemExit, match="serve --ledger"):
            main(["prune", "--xmark", "--query", "/site", doc,
                  str(tmp_path / "o.xml"), "--ledger", led_path,
                  "--server", "127.0.0.1:1"])
