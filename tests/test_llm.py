import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from gridsentry.errors import ToolkitError
from gridsentry.llm import (
    ChatClient,
    ChatClientConfig,
    HttpChatClient,
    MockFixtureClient,
    RulesMockClient,
    build_prompts,
    detect_llm,
    parse_response,
    serialize_rules,
)
from gridsentry.records import Label
from gridsentry.rules import Level, RuleSet, TimingConfig, detect_batch, verdicts_to_predictions
from gridsentry.simulate import make_eval_set

FULL = RuleSet.for_level(Level.FULL)
PARTIAL = RuleSet.for_level(Level.PARTIAL)
WITHOUT = RuleSet.for_level(Level.WITHOUT)


def sv_eval(seed=3):
    return make_eval_set("SV", anomalies=30, normals=10, seed=seed)


class TestSerializeRules:
    def test_sentence_counts_per_level(self):
        assert serialize_rules(WITHOUT, "GOOSE") == ""
        assert serialize_rules(WITHOUT, "SV") == ""
        assert len(serialize_rules(PARTIAL, "GOOSE").splitlines()) == 4
        assert len(serialize_rules(FULL, "GOOSE").splitlines()) == 6
        assert len(serialize_rules(PARTIAL, "SV").splitlines()) == 5
        assert len(serialize_rules(FULL, "SV").splitlines()) == 6

    def test_numbering_and_content(self):
        text = serialize_rules(FULL, "SV")
        lines = text.splitlines()
        assert [line.split(".")[0] for line in lines] == [str(i) for i in range(1, 7)]
        assert 'The range of "smpCnt" is from 0 to 4799.' in lines[0]
        assert "208 microseconds" in text
        assert "2.083 ms" in text

    def test_goose_full_text(self):
        text = serialize_rules(FULL, "GOOSE")
        assert '"sqNum" should be increased every time' in text
        assert "10 packets" in text and "10 s" in text
        assert "previously seen combination" in text  # replay clause, full only
        assert "previously seen combination" not in serialize_rules(PARTIAL, "GOOSE")


    def test_default_thresholds_give_the_fixed_text(self):
        # prompt_bytes_per_record of the benchmark rests on this text
        assert serialize_rules(FULL, "GOOSE") == (
            '1. If data has the same "DM" and "SM," "sqNum" should be increased every time.\n'
            '2. If there is any change in "data1" or "data2," "stNum" should be increased by 1'
            ' and "sqNum" should be reset to 0.\n'
            '3. If data has the same "DM" and "SM," once "stNum" is increased, it cannot go'
            ' back to smaller numbers.\n'
            "4. There are up to 10 packets (rows) within 10 ms.\n"
            "5. There should be a packet (dataset) within 10 s.\n"
            '6. If there is any change in "data1" or "data2," "stNum" should be increased 1'
            ' and "sqNum" should be reset to 0; a previously seen combination must not'
            " reappear.")
        assert serialize_rules(FULL, "SV") == (
            '1. The range of "smpCnt" is from 0 to 4799.\n'
            '2. Once the "smpCnt" is increased, it should be increased up to 4799 and then'
            " reset to 0.\n"
            '3. "smpCnt" cannot be decreased until it reaches 4799 and resets to 0.\n'
            "4. A normal time interval should be around 208 microseconds.\n"
            "5. There are up to 12 packets within 2.083 ms.\n"
            '6. "smpCnt" should be increased every time by 1.')

    def test_sentences_state_the_thresholds(self):
        thresholds = TimingConfig(goose_dos_max_packets=3, goose_dos_window_us=12_345_678,
                                  goose_heartbeat_max_gap_us=1_234_567,
                                  sv_nominal_interval_us=250, sv_dos_window_us=2_000,
                                  sv_dos_max_packets=9)
        rules = RuleSet.for_level(Level.FULL, thresholds)
        goose = serialize_rules(rules, "GOOSE").splitlines()
        assert goose[3] == "4. There are up to 3 packets (rows) within 12345.678 ms."
        assert goose[4] == "5. There should be a packet (dataset) within 1.234567 s."
        sv = serialize_rules(rules, "SV").splitlines()
        assert sv[3] == "4. A normal time interval should be around 250 microseconds."
        assert sv[4] == "5. There are up to 9 packets within 2 ms."
        partial = serialize_rules(RuleSet.for_level(Level.PARTIAL, thresholds), "GOOSE")
        assert "up to 3 packets (rows) within 12345.678 ms" in partial

    @pytest.mark.parametrize("gap_us, words", [
        (1e30, "1000000000000000000000000 s"),
        (12345678901234567890, "12345678901234.56789 s"),
    ])
    def test_large_thresholds_print_without_noise_digits(self, gap_us, words):
        rules = RuleSet.for_level(Level.FULL, TimingConfig(goose_heartbeat_max_gap_us=gap_us))
        goose = serialize_rules(rules, "GOOSE").splitlines()
        assert goose[4] == f"5. There should be a packet (dataset) within {words}."


class TestBuildPrompts:
    def test_windows_partition_dataset(self):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=20)
        bundles = build_prompts(ds, FULL, cfg)
        spans = [b.window for b in bundles]
        assert sum(length for _, length in spans) == len(ds)
        assert spans[0][0] == 0
        for (s0, l0), (s1, _) in zip(spans, spans[1:]):
            assert s1 == s0 + l0
        assert all(length <= 20 for _, length in spans)

    def test_prompt_determinism(self):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=20)
        a = build_prompts(ds, FULL, cfg)
        b = build_prompts(ds, FULL, cfg)
        assert [x.user_text() for x in a] == [y.user_text() for y in b]

    def test_table_has_one_row_per_record(self):
        ds = sv_eval()
        bundle = build_prompts(ds, FULL, ChatClientConfig(window_size=20))[0]
        assert len(bundle.records_text.splitlines()) == 1 + bundle.window[1]


class TestParseResponse:
    def test_plain_json(self):
        r = parse_response('{"anomalies": [1, 3]}', 20)
        assert r.anomalous_indices == frozenset({1, 3})
        assert r.warnings == []

    def test_fenced_and_chatty(self):
        raw = 'Sure! Here is my answer:\n```json\n{"anomalies": [0]}\n```\nDone.'
        assert parse_response(raw, 5).anomalous_indices == frozenset({0})

    def test_out_of_range_dropped_with_warning(self):
        r = parse_response('{"anomalies": [2, 99, -1]}', 10)
        assert r.anomalous_indices == frozenset({2})
        assert len(r.warnings) == 2

    def test_non_integer_dropped(self):
        r = parse_response('{"anomalies": [1, "two", true]}', 10)
        assert r.anomalous_indices == frozenset({1})
        assert len(r.warnings) == 2

    def test_nested_objects(self):
        r = parse_response('{"anomalies": [1, 3], "reasons": {"1": "gap"}}', 10)
        assert r.anomalous_indices == frozenset({1, 3})
        assert r.warnings == []
        r = parse_response('Verdict: {"result": {"anomalies": [2]}}', 10)
        assert r.anomalous_indices == frozenset({2})

    def test_deeply_nested_reply_scores_all_normal(self):
        r = parse_response('{"a": ' * 3000 + '1' + '}' * 3000, 10)
        assert r.anomalous_indices == frozenset()
        assert r.warnings and "unparseable" in r.warnings[0]

    def test_unparseable_scores_all_normal(self):
        r = parse_response("I cannot help with that.", 10)
        assert r.anomalous_indices == frozenset()
        assert r.warnings and "unparseable" in r.warnings[0]


class TestClients:
    def test_fixture_client(self, tmp_path):
        (tmp_path / "window_0.txt").write_text('{"anomalies": [2]}')
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=len(ds))
        report = detect_llm(ds, FULL, cfg, MockFixtureClient(str(tmp_path)))
        assert report.predictions[2] is True
        assert sum(report.predictions) == 1

    def test_fixture_client_missing_file(self, tmp_path):
        client = MockFixtureClient(str(tmp_path))
        bundle = build_prompts(sv_eval(), FULL, ChatClientConfig(window_size=20))[0]
        with pytest.raises(ToolkitError):
            client.complete(bundle, 0)

    def test_rules_mock_matches_engine(self):
        for seed in (1, 2, 3):
            for protocol, anomalies, normals in (("GOOSE", 55, 25), ("SV", 60, 20)):
                ds = make_eval_set(protocol, anomalies=anomalies, normals=normals,
                                   seed=seed)
                cfg = ChatClientConfig(window_size=20)
                report = detect_llm(ds, FULL, cfg, RulesMockClient(ds, FULL))
                expected = verdicts_to_predictions(detect_batch(ds, FULL), len(ds))
                assert report.predictions == expected
                assert report.failed_windows == []


class _FlakyClient(ChatClient):
    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def complete(self, bundle, window_id):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("transient")
        return '{"anomalies": []}'


class _AlwaysDownClient(ChatClient):
    def complete(self, bundle, window_id):
        raise RuntimeError("down")


class _ScriptedClient(ChatClient):
    """Returns ``replies`` in turn, repeating the last one."""

    def __init__(self, *replies):
        self.replies = replies
        self.calls = 0

    def complete(self, bundle, window_id):
        self.calls += 1
        return self.replies[min(self.calls, len(self.replies)) - 1]


class TestDetectLlm:
    def test_retries_recover(self):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=len(ds), max_retries=2)
        report = detect_llm(ds, FULL, cfg, _FlakyClient(fail_times=2))
        assert report.failed_windows == []
        assert report.predictions == [False] * len(ds)

    def test_exhausted_retries_score_all_normal(self):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=20, max_retries=1)
        report = detect_llm(ds, FULL, cfg, _AlwaysDownClient())
        assert report.failed_windows == list(range((len(ds) + 19) // 20))
        assert report.predictions == [False] * len(ds)
        assert report.warnings

    def test_non_string_reply_fails_window_after_retries(self):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=len(ds), max_retries=2)
        client = _ScriptedClient(None)
        report = detect_llm(ds, FULL, cfg, client)
        assert report.failed_windows == [0]
        assert report.predictions == [False] * len(ds)
        assert "NoneType" in report.warnings[0]
        assert client.calls == 3

    def test_non_string_reply_then_valid_reply_recovers(self):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=len(ds), max_retries=2)
        client = _ScriptedClient(None, '{"anomalies": [1]}')
        report = detect_llm(ds, FULL, cfg, client)
        assert report.failed_windows == []
        assert report.predictions == [i == 1 for i in range(len(ds))]
        assert client.calls == 2

    def test_transcript_written(self, tmp_path):
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=20)
        path = tmp_path / "transcript.jsonl"
        detect_llm(ds, FULL, cfg, RulesMockClient(ds, FULL), transcript_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == (len(ds) + 19) // 20
        entry = json.loads(lines[0])
        assert {"window", "attempt", "system", "user", "reply", "flagged"} <= set(entry)


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's ``status`` and ``body``."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.seen.append((dict(self.headers), json.loads(self.rfile.read(length))))
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.server.body)))
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, *args):
        pass


class _ChatServer(HTTPServer):
    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.status, self.body, self.seen = 200, b"{}", []

    def reply(self, payload, status=200):
        self.status, self.body = status, json.dumps(payload).encode()


@pytest.fixture
def chat_server(monkeypatch):
    """A chat endpoint on 127.0.0.1, served by one thread."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "*")
    server = _ChatServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()
    assert not thread.is_alive()


def _chat(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class TestHttpChatClient:
    def _client(self, server, **kwargs):
        host, port = server.server_address
        cfg = ChatClientConfig(endpoint_url=f"http://{host}:{port}/v1/chat",
                               model_name="m", timeout_ms=5_000, **kwargs)
        return HttpChatClient(cfg), cfg

    def _bundle(self):
        return build_prompts(sv_eval(), FULL, ChatClientConfig(window_size=20))[0]

    def test_string_content_returned_as_is(self, chat_server):
        chat_server.reply(_chat('{"anomalies": [1]}'))
        client, _ = self._client(chat_server)
        bundle = self._bundle()
        assert client.complete(bundle, 0) == '{"anomalies": [1]}'
        _, body = chat_server.seen[0]
        assert body["model"] == "m"
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert body["messages"][1]["content"] == bundle.user_text()

    def test_content_parts_are_joined(self, chat_server):
        chat_server.reply(_chat([{"type": "text", "text": '{"anomalies": '},
                                 {"type": "image_url", "image_url": {"url": "x"}},
                                 {"type": "text", "text": "[3]}"}]))
        client, _ = self._client(chat_server)
        assert client.complete(self._bundle(), 0) == '{"anomalies": [3]}'

    def test_null_content_scores_window_all_normal(self, chat_server):
        chat_server.reply(_chat(None))
        client, _ = self._client(chat_server)
        assert client.complete(self._bundle(), 0) == json.dumps(_chat(None))
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=len(ds))
        report = detect_llm(ds, FULL, cfg, client)
        assert report.failed_windows == []
        assert report.predictions == [False] * len(ds)
        assert any("unparseable" in w for w in report.warnings)

    def test_server_error_fails_window_after_retries(self, chat_server):
        chat_server.reply({"error": "overloaded"}, status=500)
        client, _ = self._client(chat_server)
        ds = sv_eval()
        cfg = ChatClientConfig(window_size=len(ds), max_retries=2)
        report = detect_llm(ds, FULL, cfg, client)
        assert report.failed_windows == [0]
        assert report.predictions == [False] * len(ds)
        assert "500" in report.warnings[0]
        assert len(chat_server.seen) == 3

    def test_non_json_body_raises(self, chat_server):
        chat_server.body = b"<html>bad gateway</html>"
        client, _ = self._client(chat_server)
        with pytest.raises(ValueError):
            client.complete(self._bundle(), 0)

    def test_bearer_header_only_when_token_set(self, chat_server, monkeypatch):
        chat_server.reply(_chat('{"anomalies": []}'))
        client, cfg = self._client(chat_server, auth_token_env_var_name="CHAT_TEST_TOKEN")
        monkeypatch.setenv("CHAT_TEST_TOKEN", "s3cret")
        client.complete(self._bundle(), 0)
        monkeypatch.delenv("CHAT_TEST_TOKEN")
        client.complete(self._bundle(), 1)
        (with_token, _), (without, _) = chat_server.seen
        assert with_token["Authorization"] == "Bearer s3cret"
        assert "Authorization" not in without
