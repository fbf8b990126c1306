"""Engine registry / config system / stub VLM engine (SURVEY.md T1, T4,
T7, M4, M15, M19, §2.11)."""

import pyarrow as pa
import pytest

from xs_vlm_ocr_ray.engines import (
    EngineConfigError,
    ModelConfig,
    ProviderConfig,
    REGISTRY,
    StubVlmExtractor,
    build_engine_stage,
    default_config,
    group_templates,
    load_config,
    resolve_provider_params,
    save_config,
)
from xs_vlm_ocr_ray.engines.config import (
    DEFAULT_PROMPT_TEXT_ONLY,
    DEFAULT_PROMPT_WITH_PAYLOAD,
    default_prompt,
)
from xs_vlm_ocr_ray.engines.errors import classify_error, is_retryable, is_retryable_http
from xs_vlm_ocr_ray.engines.registry import pick_model
from xs_vlm_ocr_ray.extract import extract_html


# --- config (S5/K8/T7/M4/A5) --------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = default_config()
    p = str(tmp_path / "cfg.json")
    save_config(cfg, p)
    cfg2 = load_config(p)
    assert [m.id for m in cfg2.models] == [m.id for m in cfg.models]
    assert cfg2.providers["stubcloud"].api_key == "sk-stub"
    assert cfg2.settings.row_timeout_ms == 60_000
    assert [t.name for t in cfg2.templates] == [t.name for t in cfg.templates]


def test_config_load_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    with pytest.raises(EngineConfigError):
        load_config(str(p))
    p.write_text('{"providers": [{"name": "no id"}]}')
    with pytest.raises(EngineConfigError):
        load_config(str(p))


def test_provider_inheritance():
    providers = {"p1": ProviderConfig(id="p1", api_key="pk", api_host="ph")}
    m = ModelConfig(id="m", provider="p1", params={"api_key": "mk"})
    out = resolve_provider_params(m, providers)
    # model's own key wins; host inherited (ConfigManager.cpp:192-207)
    assert out["api_key"] == "mk"
    assert out["api_host"] == "ph"
    # missing provider contributes nothing
    m2 = ModelConfig(id="m2", provider="nope")
    assert "api_key" not in resolve_provider_params(m2, providers)


def test_prompt_defaulting():
    assert default_prompt("", True) == DEFAULT_PROMPT_WITH_PAYLOAD
    assert default_prompt("", False) == DEFAULT_PROMPT_TEXT_ONLY
    assert default_prompt("custom", True) == "custom"


def test_group_templates():
    cfg = default_config()
    g = group_templates(cfg.templates)
    assert set(g) == {"extract", "chat"}
    assert set(g["extract"]) == {"general", "table"}


# --- registry (T4) -------------------------------------------------------


def test_registry_builtin_engines():
    assert set(REGISTRY.engines()) >= {"local_html", "stub_vlm"}
    with pytest.raises(KeyError):
        REGISTRY.get("nope")


def test_pick_model_fallback():
    cfg = default_config()
    assert pick_model(cfg, "stub-vlm").id == "stub-vlm"
    # unknown → first enabled (MainWindow.cpp:960-975)
    assert pick_model(cfg, "missing").id == "local-html"
    cfg.models[0].enabled = False
    assert pick_model(cfg).id == "stub-vlm"


def test_build_engine_stage_resolves_provider():
    cfg = default_config()
    cls, kwargs = build_engine_stage(cfg, "stub-vlm", prompt="p")
    assert cls is StubVlmExtractor
    assert kwargs["params"]["api_key"] == "sk-stub"  # inherited via T7
    assert kwargs["row_timeout_ms"] == 60_000
    ext = cls(**kwargs)
    assert ext.init_error == ""


# --- error classifier (M19) ---------------------------------------------


def test_error_classifier():
    assert classify_error("") == ""
    assert classify_error("timeout after 60000 ms") == "timeout"
    assert classify_error("transport: connection reset") == "transport"
    assert classify_error("http_500: boom") == "http"
    assert classify_error("parse: missing choices") == "parse"
    assert classify_error("empty_payload") == "input"
    assert is_retryable("timeout") and is_retryable("transport")
    assert not is_retryable("parse") and not is_retryable("input")
    assert is_retryable_http(429) and is_retryable_http(503)
    assert not is_retryable_http(401)


# --- stub VLM engine (T1/M1/M4/M15/M16 + timeout) ------------------------


def _batch(payloads, urls=None):
    urls = urls or [f"u{i}" for i in range(len(payloads))]
    return pa.table(
        {"url": pa.array(urls, pa.string()), "html": pa.array(payloads, pa.binary())}
    )


def test_stub_vlm_success_normalizes_boxed():
    ext = StubVlmExtractor(params={"api_key": "k", "api_host": "h"})
    html = b"<p>Hello world, this is a long enough paragraph of content.</p>"
    out = ext(_batch([html]))
    assert out["success"][0].as_py() is True
    # box markers stripped byte-exactly → equals the local extraction
    assert out["extracted_text"][0].as_py() == extract_html(html).full_text
    assert out["error_kind"][0].as_py() == ""
    assert out["processing_ms"][0].as_py() >= 1


def test_stub_vlm_text_only_path():
    """Empty payload is the legal text-only query path (M1,
    QwenAdapter.cpp:503-508), not an error."""
    ext = StubVlmExtractor(params={"api_key": "k", "api_host": "h"})
    out = ext(_batch([None]))
    assert out["success"][0].as_py() is True
    assert DEFAULT_PROMPT_TEXT_ONLY in out["extracted_text"][0].as_py()
    assert out["content_hash"][0].as_py() == ""  # null payload → null hash


def test_stub_vlm_row_timeout_in_band():
    ext = StubVlmExtractor(params={"api_key": "k", "api_host": "h"}, row_timeout_ms=1)
    big = b"<p>" + b"x" * 10_000 + b"</p>"
    out = ext(_batch([big, b"<p>tiny but long enough to keep as content block ok.</p>"]))
    assert out["success"][0].as_py() is False
    assert out["error_kind"][0].as_py() == "timeout"
    assert out["retryable"][0].as_py() is True
    assert out["processing_ms"][0].as_py() == 1  # capped at the timeout
    # the batch is NOT aborted: row 2 still succeeds (failure isolation)
    assert out["success"][1].as_py() is True


def test_stub_vlm_uninitialized_in_band():
    ext = StubVlmExtractor(params={})
    out = ext(_batch([b"<p>x</p>"]))
    assert out["success"][0].as_py() is False
    assert out["error"][0].as_py().startswith("not_initialized")
    assert out["error_kind"][0].as_py() == "not_initialized"
    assert out["retryable"][0].as_py() is False


def test_stub_vlm_in_ray_actor_pool(ray_session, tiny_pages_dir):
    """The engine runs as a real map_batches actor pool selected through
    the registry, with provider params resolved driver-side."""
    from xs_vlm_ocr_ray.pipelines.extract import build_extract_ds

    cfg = default_config()
    cls, kwargs = build_engine_stage(cfg, "stub-vlm")
    ds = build_extract_ds(
        tiny_pages_dir, engine_cls=cls, engine_kwargs=kwargs, concurrency=2
    )
    df = ds.to_pandas()
    assert len(df) == 200
    assert (df["engine"] == "stub_vlm").all()
    ok = df[df["success"]]
    assert len(ok) > 150
    # every success is byte-equal to the local extractor's text (the
    # box-normalizer chain is exact)
    assert (ok["error_kind"] == "").all()


# --- the one engine batch contract (T1) ---------------------------------

_CREDS = {"api_key": "k", "api_host": "h"}


def _vlm_schema() -> pa.Schema:
    """RESULTS_SCHEMA without spans, plus the error classification right
    after ``error``."""
    from xs_vlm_ocr_ray.schema import RESULTS_SCHEMA

    fields = [f for f in RESULTS_SCHEMA if f.name != "spans"]
    at = [f.name for f in fields].index("error") + 1
    fields[at:at] = [pa.field("error_kind", pa.string()), pa.field("retryable", pa.bool_())]
    return pa.schema(fields)


def _engine_cases():
    from xs_vlm_ocr_ray.engines.retry import RetryingEngine
    from xs_vlm_ocr_ray.pipelines.routed import RoutedExtractor
    from xs_vlm_ocr_ray.schema import RESULTS_SCHEMA
    from xs_vlm_ocr_ray.stages.extract_stage import HtmlExtractor
    from xs_vlm_ocr_ray.stages.layout import LayoutExtractor

    retry_schema = _vlm_schema().append(pa.field("attempts", pa.int32()))
    # (engine factory, schema, engine per row, error per row) over the
    # rows (2.5 KB html, empty, %PDF- payload)
    return {
        "html": (HtmlExtractor, RESULTS_SCHEMA, ["local_html"] * 3, ["", "empty_payload", ""]),
        "layout": (LayoutExtractor, RESULTS_SCHEMA, ["layout_ocr"] * 3, ["", "empty_payload", ""]),
        "routed": (
            RoutedExtractor,
            RESULTS_SCHEMA,
            ["local_html", "local_html", "layout_ocr"],
            ["", "empty_payload", ""],
        ),
        # 1 ms timeout: the 2.5 KB row's simulated cost (2 ms) exceeds it
        "stub_vlm": (
            lambda: StubVlmExtractor(params=_CREDS, row_timeout_ms=1),
            _vlm_schema(),
            ["stub_vlm"] * 3,
            ["timeout after 1 ms", "", ""],
        ),
        # the escalated retry clears the timeout
        "retry_stub_vlm": (
            lambda: RetryingEngine(
                StubVlmExtractor,
                {"params": _CREDS, "row_timeout_ms": 1},
                {"row_timeout_ms": 60_000},
            ),
            retry_schema,
            ["stub_vlm"] * 3,
            ["", "", ""],
        ),
    }


@pytest.mark.parametrize("n_rows", [3, 0])
@pytest.mark.parametrize("name", ["html", "layout", "routed", "stub_vlm", "retry_stub_vlm"])
def test_engine_output_schema(name, n_rows):
    """Every engine's output columns (names, order, Arrow types) are
    pinned; the HTML, layout and routed engines emit exactly
    RESULTS_SCHEMA, which RoutedExtractor's concat relies on."""
    from xs_vlm_ocr_ray.stages.classify import classify_payload_kind

    make, schema, engines, errors = _engine_cases()[name]
    batch = classify_payload_kind(
        pa.table(
            {
                "url": ["a", "b", "c"],
                "html": pa.array(
                    [b"<p>" + b"word " * 500 + b"</p>", b"", b"%PDF-1.4 stub"], pa.binary()
                ),
                "shard_id": pa.array([0, 0, 0], pa.int32()),
                "row_idx": pa.array([0, 1, 2], pa.int64()),
            }
        )
    ).slice(0, n_rows)
    out = make()(batch)
    assert out.schema.equals(schema), f"{out.schema}\n!=\n{schema}"
    assert out["engine"].to_pylist() == engines[:n_rows]
    assert out["error"].to_pylist() == errors[:n_rows]
    assert out["url"].to_pylist() == ["a", "b", "c"][:n_rows]


def test_config_watcher_survives_wrong_typed_reload(tmp_path):
    """A hot reload of valid JSON with wrong-TYPED fields (raw TypeError
    out of load_config, not EngineConfigError) keeps the last good
    config instead of killing the job."""
    import json
    import os

    from xs_vlm_ocr_ray.engines.config import ConfigWatcher

    p = tmp_path / "config.json"
    p.write_text(json.dumps({"settings": {"max_history": 7}}))
    w = ConfigWatcher(str(p))  # constructor polls once
    good = w.config
    assert good is not None
    p.write_text(json.dumps({"settings": {"max_history": None}}))
    os.utime(p, (1e9, 1e9))  # force a new stamp
    assert w.poll() is False
    assert w.config is good
    assert "TypeError" in w.last_error
