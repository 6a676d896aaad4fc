"""The package's public names."""

import importlib
import re
from pathlib import Path

import noma_harq

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED = ["per_ir", "initial_sinr", "transition_prob", "per_user", "success_prob"]


def test_every_exported_name_resolves():
    missing = [name for name in noma_harq.__all__ if not hasattr(noma_harq, name)]
    assert missing == []
    assert len(set(noma_harq.__all__)) == len(noma_harq.__all__)


def test_star_import():
    namespace = {}
    exec("from noma_harq import *", namespace)
    assert set(noma_harq.__all__) <= set(namespace)


def test_removed_names_are_gone_and_listed_in_readme():
    modules = [importlib.import_module(f"noma_harq.{m}")
               for m in ("fbl", "sic", "markov", "montecarlo")]
    for name in REMOVED:
        assert name not in noma_harq.__all__
        assert not any(hasattr(m, name) for m in modules), name
    changes = README.read_text().split("## API changes", 1)[1]
    for name in REMOVED + ["per_fn", "max_transmissions"]:
        assert re.search(rf"`[\w.]*\b{name}`", changes), name
