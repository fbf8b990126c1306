"""Engine registry: id → actor-pool stage factory (SURVEY.md T4).

The Ray-native restatement of the reference's ModelManager + the
engine-string factory switch (src/managers/ModelManager.cpp:20-139,
src/ui/MainWindow.cpp:843-889): a driver-side dict mapping engine name
to the callable CLASS handed to ``map_batches``; per-run engine
selection is a pipeline parameter. The reference's
active-engine-fallback-to-first-initialized rule
(src/ui/MainWindow.cpp:960-975) maps to ``pick_model``.

User extension surface (§2.11): ``REGISTRY.register("my_engine", Cls)``
— subclass ``stages.extract_stage.BatchExtractor`` (constructor
``(prompt, params, **kwargs)``) and implement its per-row
``_extract_one``; the base class's one batch loop emits the results
columns (``schema.RESULTS_SCHEMA``). See ``HtmlExtractor``,
``stages/layout.py`` and ``engines/vlm_stub.py``.
"""

from __future__ import annotations

from .config import EngineConfig, ModelConfig, resolve_provider_params


class EngineRegistry:
    def __init__(self):
        self._engines: dict[str, type] = {}

    def register(self, engine: str, cls: type) -> None:
        self._engines[engine] = cls

    def get(self, engine: str) -> type:
        if engine not in self._engines:
            raise KeyError(
                f"unknown engine {engine!r}; registered: {sorted(self._engines)}"
            )
        return self._engines[engine]

    def engines(self) -> list[str]:
        return sorted(self._engines)


REGISTRY = EngineRegistry()


def _register_builtins() -> None:
    from ..stages.extract_stage import HtmlExtractor
    from .vlm_stub import StubVlmExtractor

    REGISTRY.register(HtmlExtractor.ENGINE_ID, HtmlExtractor)
    REGISTRY.register(StubVlmExtractor.ENGINE_ID, StubVlmExtractor)


_register_builtins()


def pick_model(cfg: EngineConfig, requested: str | None = None) -> ModelConfig:
    """Requested model if present+enabled, else first enabled (the
    reference's fallback-to-first-initialized)."""
    if requested is not None:
        for m in cfg.models:
            if m.id == requested and m.enabled:
                return m
    for m in cfg.models:
        if m.enabled:
            return m
    raise ValueError("no enabled model in config")


def build_engine_stage(
    cfg: EngineConfig,
    model_id: str | None = None,
    prompt: str = "",
    registry: EngineRegistry = REGISTRY,
) -> tuple[type, dict]:
    """Resolve config → (engine class, fn_constructor_kwargs) for
    ``map_batches``. Provider params are inherited here (T7), once,
    driver-side — never re-resolved per batch."""
    model = pick_model(cfg, model_id)
    cls = registry.get(model.engine)
    kwargs: dict = {
        "prompt": prompt,
        "params": resolve_provider_params(model, cfg.providers),
    }
    if model.engine == "stub_vlm":
        kwargs["row_timeout_ms"] = cfg.settings.row_timeout_ms
    return cls, kwargs
