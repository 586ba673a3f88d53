"""Access to the example datasets shipped inside the package.

Three model documents and one roadmap dataset:

* ``layered_iot`` -- a nine-component, three-layer linear interdependency
  chain (perception feed a14 through network services into the application
  goals a4..a1); the canonical cascade example.
* ``smart_home`` -- a five-node home-monitoring model with multi-parent
  tables, temporal dynamics, a mini roadmap and one element binding.
* ``uncontrolled_sensor`` -- a legacy component with no CPT, resolved from
  its declared state catalogue and an observed dependent.
* the transformation roadmap dataset -- worked control goals / objectives /
  elements in three sections; ``training-and-awareness`` is the default.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING

from . import documents
from .errors import ValidationFailed

if TYPE_CHECKING:
    from .documents import ModelDocument
    from .roadmap import RoadmapModel

BUNDLED_MODELS = ("layered_iot", "smart_home", "uncontrolled_sensor")
ROADMAP_DATASET = "transformation_roadmap"
DEFAULT_ROADMAP_SECTION = "training-and-awareness"


def _read_text(name: str) -> str:
    candidate = resources.files("iotrisk.data").joinpath(f"{name}.json")
    if not candidate.is_file():
        raise FileNotFoundError(
            f"no bundled dataset {name!r}; models: {BUNDLED_MODELS}")
    return candidate.read_text(encoding="utf-8")


def bundled_model_names() -> tuple[str, ...]:
    return BUNDLED_MODELS


def load_bundled_model(name: str) -> ModelDocument:
    """Parse one of the shipped model documents."""
    if name not in BUNDLED_MODELS:
        raise FileNotFoundError(f"no bundled model {name!r}; choose from {BUNDLED_MODELS}")
    # Looked up per call, not bound at import, so a tracer that patches
    # ``documents.parse_model`` sees this call and leaves nothing behind.
    return documents.parse_model(_read_text(name))


def parse_roadmap_document(text: str, section: str | None = DEFAULT_ROADMAP_SECTION) -> RoadmapModel:
    """Parse a standalone roadmap document (sections of control goals).

    Each section is an object with a string ``key``.  ``section`` selects one
    section by key; pass None to combine all sections into a single roadmap.
    """
    from .roadmap import build_roadmap

    raw = documents._versioned_root(text)
    issues: list[tuple[str, str]] = []
    sections = [(documents._take(s, "key", str, path, issues, required=True), s)
                for path, s in documents._entries(raw, "sections", "$", issues, required=True)]
    if issues:
        raise ValidationFailed(issues)
    by_key = dict(sections)
    if section is not None:
        if section not in by_key:
            raise ValidationFailed(
                [("$.sections", f"no section {section!r}; available: {sorted(by_key)}")])
        chosen = [(section, by_key[section])]
    else:
        chosen = sections

    goals = []
    for key, s in chosen:
        parsed = documents._parse_roadmap(s, f"$.sections[{key}]", issues)
        if parsed is not None:
            goals.extend(parsed.goals)
    if issues:
        raise ValidationFailed(issues)
    return build_roadmap(goals)


def roadmap_section_keys() -> tuple[str, ...]:
    raw = json.loads(_read_text(ROADMAP_DATASET))
    return tuple(s["key"] for s in raw["sections"])


def load_bundled_roadmap(section: str | None = DEFAULT_ROADMAP_SECTION) -> RoadmapModel:
    """The shipped roadmap dataset; defaults to the training-and-awareness section."""
    return parse_roadmap_document(_read_text(ROADMAP_DATASET), section)
