"""JSON for SDP results and factorization witnesses, as the CLI emits them.

Keys are sorted.  Witness rows appear only on request; real rows are plain
numbers and complex rows [re, im] pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .mlab import CbNormResult, FactorizationWitness

__all__ = [
    "witness_to_json",
    "cb_result_to_json",
]


def _rows_payload(rows: np.ndarray) -> list:
    if np.iscomplexobj(rows):
        return np.stack([rows.real, rows.imag], axis=-1).tolist()
    return rows.tolist()


def witness_to_json(witness: FactorizationWitness, include_rows: bool = False) -> str:
    """Witness summary; the factorization rows only on request, they are big."""
    payload = {
        "dimension": witness.dimension,
        "sup_p": witness.sup_p,
        "sup_q": witness.sup_q,
        "certified": witness.certified,
        "reproduction_error": witness.reproduction_error,
        "tail_bound": witness.tail_bound,
        "detail": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in witness.detail.items()
                   if isinstance(v, (str, int, float, bool, tuple))},
    }
    if include_rows and witness.p_rows is not None:
        payload["p_rows"] = _rows_payload(witness.p_rows)
        payload["q_rows"] = _rows_payload(witness.q_rows)
    return json.dumps(payload, sort_keys=True)


def cb_result_to_json(result: CbNormResult, include_rows: bool = False) -> str:
    payload = {
        "lower": result.lower,
        "upper": result.upper,
        "gap": result.gap,
        "iterations": result.iterations,
        "trace": [[c, tag, used, r] for c, tag, used, r in result.trace],
        "witness": json.loads(witness_to_json(result.witness, include_rows))
        if result.witness is not None else None,
    }
    return json.dumps(payload, sort_keys=True)
