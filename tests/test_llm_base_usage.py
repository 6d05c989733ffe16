"""Tests for LLM usage accounting, chat primitives and code extraction."""

from repro.llm.base import ChatMessage, LLMUsage, extract_code_block


class TestChatMessage:
    def test_token_property(self):
        assert ChatMessage("user", "three small words").tokens == 3

    def test_roles_preserved(self):
        assert ChatMessage("system", "x").role == "system"


class TestLLMUsage:
    def test_add_accumulates(self):
        usage = LLMUsage()
        usage.add(100, 50)
        usage.add(10, 5)
        assert usage.prompt_tokens == 110
        assert usage.completion_tokens == 55
        assert usage.total_tokens == 165
        assert usage.n_requests == 2

    def test_snapshot_is_independent(self):
        usage = LLMUsage()
        usage.add(10, 10)
        snap = usage.snapshot()
        usage.add(10, 10)
        assert snap.total_tokens == 20
        assert usage.total_tokens == 40

    def test_delta_since(self):
        usage = LLMUsage()
        usage.add(100, 100)
        snap = usage.snapshot()
        usage.add(7, 3)
        delta = usage.delta_since(snap)
        assert delta.prompt_tokens == 7
        assert delta.completion_tokens == 3
        assert delta.n_requests == 1


class TestExtractCodeBlock:
    def test_extract_code_block(self):
        assert extract_code_block("before <CODE>\nx = 1\n</CODE> after") == "x = 1"

    def test_extract_without_tags_returns_text(self):
        assert extract_code_block("plain") == "plain"
