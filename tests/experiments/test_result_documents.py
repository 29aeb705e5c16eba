"""The result documents a user reads, pinned by sha256.

The golden fixtures pin per-point payloads; this module pins what is
built from them: the ``to_json()`` document, the ``to_csv()`` table and
the text render of every registered experiment, of ``sweep`` on every
``examples/*.toml`` scenario and of ``ablate`` on
``examples/ablate.toml``, all at smoke scale.  So a change to the
result codec, the aggregation or a report moves a hash here even when
every payload keeps its bytes.

After an intended change to an output, rewrite the fixture with::

    PYTHONPATH=src python tests/experiments/test_result_documents.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.ablate import AblationExperiment, load_ablation
from repro.experiments import experiment_names, get_experiment
from repro.experiments.config import SCALES
from repro.experiments.scenario import (
    build_scenario_experiment,
    load_scenario,
)

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).resolve().parent / "result_documents.json"
SCENARIOS = sorted(
    path.stem
    for path in (ROOT / "examples").glob("*.toml")
    if path.stem != "ablate"
)


def _experiment(document: str):
    kind, _, name = document.partition(":")
    path = ROOT / "examples" / f"{name}.toml"
    if kind == "sweep":
        return build_scenario_experiment(load_scenario(path))
    if kind == "ablate":
        return AblationExperiment(load_ablation(path))
    return get_experiment(document)


def _documents() -> list[str]:
    return [
        *experiment_names(),
        *(f"sweep:{name}" for name in SCENARIOS),
        "ablate:ablate",
    ]


def document_hashes(document: str) -> dict[str, str]:
    """sha256 of one run's JSON document, CSV table and text render."""
    experiment = _experiment(document)
    result = experiment.run(SCALES["smoke"])
    texts = {
        "json": result.to_json(),
        "csv": result.to_csv(),
        "text": experiment.render(result),
    }
    return {
        fmt: hashlib.sha256(text.encode()).hexdigest()
        for fmt, text in texts.items()
    }


def test_fixture_covers_every_document():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_documents())


@pytest.mark.parametrize("document", _documents())
def test_result_documents_keep_their_bytes(document):
    assert document_hashes(document) == json.loads(FIXTURE.read_text())[
        document
    ]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {document: document_hashes(document) for document in _documents()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
