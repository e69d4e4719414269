"""K-shot dialogue construction for serialization-to-report generation.

A prompt chain is a system message, K user/assistant example pairs, and a
final user message carrying the serialization to be rewritten. The exact
system and instruction strings matter: generated reports are sensitive to
them, so they are module constants rather than configuration.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

from .errors import InputError

SYSTEM_PROMPT = ("You are a helpful assistant that generates chest x-ray "
                 "reports from key words.")
INSTRUCTION = "Generate a chest x-ray report from the following key words:"


# a message's role, spelled as on the wire
Role = Literal["system", "user", "assistant"]


@dataclass(frozen=True)
class PromptMessage:
    role: Role
    content: str

    @cached_property
    def wire_json(self) -> str:
        """The message's wire object as JSON text, exactly as
        ``json.dumps`` writes ``{"role": ..., "content": ...}``; built on
        first use."""
        return json.dumps({"role": self.role, "content": self.content})


SYSTEM_MESSAGE = PromptMessage("system", SYSTEM_PROMPT)


@dataclass(frozen=True)
class StylePair:
    """One in-context example: a serialization and the report written
    from it."""

    serialization: str
    report: str

    @cached_property
    def messages(self) -> tuple[PromptMessage, PromptMessage]:
        """The user and assistant messages this example adds to a chain,
        built on first use and shared by every chain that draws it."""
        return (PromptMessage("user", _user_content(self.serialization)),
                PromptMessage("assistant", self.report))


@dataclass(frozen=True)
class PromptChain:
    """One request's messages, as ``build_prompt``, their only builder,
    lays them out. ``k`` is the number of example pairs."""

    messages: tuple[PromptMessage, ...]
    k: int


def _user_content(serialization: str) -> str:
    return f"{INSTRUCTION}\n{serialization}"


def build_prompt(examples: Sequence[StylePair],
                 eval_serialization: str) -> PromptChain:
    """Assemble the dialogue for one evaluation serialization."""
    if not eval_serialization.strip():
        raise InputError("evaluation serialization is empty")
    messages = [SYSTEM_MESSAGE]
    for i, pair in enumerate(examples):
        if not pair.serialization.strip():
            raise InputError(f"example {i}: serialization is empty")
        if not pair.report.strip():
            raise InputError(f"example {i}: report is empty")
        messages += pair.messages
    messages.append(PromptMessage("user", _user_content(eval_serialization)))
    return PromptChain(tuple(messages), k=len(examples))


def select_examples(pool: Sequence[StylePair], k: int,
                    seed: int) -> list[StylePair]:
    """Draw k distinct examples from the pool, reproducibly for a seed."""
    if k < 0:
        raise InputError(f"k must be non-negative, got {k}")
    if k > len(pool):
        raise InputError(f"k={k} exceeds pool size {len(pool)}")
    if k == 0:   # every seed draws nothing; seeding an RNG costs more
        return []
    return random.Random(seed).sample(pool, k)


def derive_selection_seed(seed: int, k: int, study_id: str) -> int:
    """Stable per-study seed so example draws do not depend on iteration
    order or on runs for other studies. Any id hashes, one holding a lone
    surrogate too; no UTF-8 text encodes as a surrogate does."""
    key = f"{seed}:{k}:{study_id}".encode("utf-8", "surrogatepass")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big")


def wire_messages(chain: PromptChain) -> list[dict[str, str]]:
    """Chat-API message payload: [{"role": ..., "content": ...}, ...]."""
    return [{"role": m.role, "content": m.content}
            for m in chain.messages]
