from .client import (
    CassetteClient,
    ChatClient,
    ChatRequest,
    ChatResponse,
    HttpChatClient,
    LLMConfigError,
    LLMEndpointConfig,
    ScriptedClient,
    TransportError,
)
from .parsing import ParseFailure, parse_joint, parse_retrieval, parse_segmentation
from .prompts import PromptKind, build_prompt
from .runner import LLMRunResult, run_posr_llm

__all__ = [
    "CassetteClient",
    "ChatClient",
    "ChatRequest",
    "ChatResponse",
    "HttpChatClient",
    "LLMConfigError",
    "LLMEndpointConfig",
    "LLMRunResult",
    "ParseFailure",
    "PromptKind",
    "ScriptedClient",
    "TransportError",
    "build_prompt",
    "parse_joint",
    "parse_retrieval",
    "parse_segmentation",
    "run_posr_llm",
]
