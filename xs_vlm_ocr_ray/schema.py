"""Arrow schemas for the engine (FIXTURES.md F1/F2).

The results schema is the Ray-native restatement of the reference's
``OCRResult`` + history row (src/core/OCRResult.h:18-42,
src/managers/HistoryManager.cpp:52-65): success/error are in-band
columns, spans are a list-of-struct column, lineage keys
``(shard_id, row_idx, content_hash)`` replace the reference's
``contextId`` correlation string (src/ui/MainWindow.cpp:1442).
"""

from __future__ import annotations

import pyarrow as pa

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# text is large_string and the spans column large_list for the same
# reason extracted_text is large_string: a span-heavy batch's total
# flat text can exceed the 2 GiB int32-offset capacity of the 32-bit
# types, and an ArrowCapacityError would fail the whole batch the
# in-band error model protects
SPAN_TYPE = pa.struct(
    [
        ("text", pa.large_string()),
        ("x0", pa.float32()),
        ("y0", pa.float32()),
        ("x1", pa.float32()),
        ("y1", pa.float32()),
        ("confidence", pa.float32()),
    ]
)

RESULTS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("extracted_text", pa.large_string()),
        ("spans", pa.large_list(SPAN_TYPE)),
        ("success", pa.bool_()),
        ("error", pa.string()),
        ("engine", pa.string()),
        ("processing_ms", pa.int64()),
        ("content_hash", pa.string()),
        ("shard_id", pa.int32()),
        ("row_idx", pa.int64()),
    ]
)

# lineage columns every engine copies from its input batch to its output
LINEAGE_COLUMNS = ("shard_id", "row_idx")

# Confidence the local HTML engine assigns to its single-block spans —
# mirrors the reference's online-adapter constant (QwenAdapter.cpp:554-560
# uses 0.95; Tesseract uses 0.8, TesseractAdapter.cpp:226-231).
HTML_ENGINE_CONFIDENCE = 0.95
