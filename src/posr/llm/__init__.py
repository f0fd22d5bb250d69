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
    load_prices,
)
from .parsing import ParseFailure, parse_joint, parse_retrieval, parse_segmentation
from .prompts import PromptKind, build_prompt
from .runner import (
    LLM_CONCURRENCY,
    LLMRunResult,
    fallback_labeling,
    run_posr_llm,
    run_posr_llm_batch,
)

__all__ = [
    "CassetteClient",
    "ChatClient",
    "ChatRequest",
    "ChatResponse",
    "HttpChatClient",
    "LLMConfigError",
    "LLM_CONCURRENCY",
    "LLMEndpointConfig",
    "LLMRunResult",
    "ParseFailure",
    "PromptKind",
    "ScriptedClient",
    "TransportError",
    "build_prompt",
    "fallback_labeling",
    "load_prices",
    "parse_joint",
    "parse_retrieval",
    "parse_segmentation",
    "run_posr_llm",
    "run_posr_llm_batch",
]
