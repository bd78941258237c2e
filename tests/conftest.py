"""Shared test fixtures and corpus paths."""

import json
import os
import pathlib

# one BLAS thread, as `qnetdet verify` runs, unless the caller chose a
# count; numpy reads it when it loads, after this module
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NETWORKS = ROOT / "networks"
SCHEMAS = ROOT / "schemas"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def repo_root():
    return ROOT


@pytest.fixture(scope="session")
def network_dir():
    return NETWORKS


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN


def load_schema(name):
    with open(SCHEMAS / name, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def schema_validator():
    """Validator factory resolving cross-file schema references."""
    import jsonschema
    from jsonschema import validators
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMAS.glob("*.schema.json"):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)

    def make(schema_name):
        schema = load_schema(schema_name)
        cls = validators.validator_for(schema)
        return cls(schema, registry=registry)

    return make
