"""Finding reporters: the human text form and the machine JSON form.

Both render the same :class:`~repro.analysis.findings.Finding` list in the
same order, so the text output, ``--json`` output and
``scripts/check_docs.py`` (which borrows these reporters) all agree on what
a finding looks like.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.analysis.findings import Finding

REPORT_VERSION = 1


def render_text(findings: Sequence[Finding], **counts: Any) -> str:
    """One line per finding plus a summary line.

    ``counts`` are extra ``name=value`` pairs for the summary (e.g.
    ``checked_files=97, suppressed=6``); zero-valued extras are omitted.
    """
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    extras = ", ".join(f"{name.replace('_', ' ')}: {value}"
                       for name, value in counts.items() if value)
    summary = f"{len(findings)} {noun}" + (f" ({extras})" if extras else "")
    lines.append(summary if findings else f"lint OK: {summary}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], **counts: Any) -> str:
    """The machine form: versioned, sorted keys, trailing newline."""
    payload: dict[str, Any] = {
        "version": REPORT_VERSION,
        "findings": [finding.to_dict() for finding in findings],
    }
    payload.update(counts)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
