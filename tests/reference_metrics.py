"""The ``metrics`` line as ``json.dumps`` writes it: the reference for ``MetricRecord.json_line``.

``json_dict`` is the record's plain-data form: histogram keys as strings
in numeric order, means rounded to 4 places. ``json_line`` dumps it with
``sort_keys=True`` and json's other defaults (``ensure_ascii=True``,
``", "`` and ``": "`` separators).
"""

from __future__ import annotations

import json

from depmetrics.metrics import MetricRecord


def json_dict(record: MetricRecord) -> dict[str, object]:
    return {
        "id": record.sentence_id,
        "sl": record.sl,
        "mdd": round(record.mdd, 4),
        "mhd": round(record.mhd, 4),
        "dd_hist": {str(k): record.dd_hist[k] for k in sorted(record.dd_hist)},
        "hd_hist": {str(k): record.hd_hist[k] for k in sorted(record.hd_hist)},
        "root_out_degree": record.root_out_degree,
    }


def json_line(record: MetricRecord) -> str:
    return json.dumps(json_dict(record), sort_keys=True)
