"""The mutation gate's table stays applicable: `scripts/mutants.py` runs for minutes, so tier-1 checks its mutants.

Each mutant's old text must occur exactly once in its module, as the script
checks before it runs any, and its edit must change that text.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(HERE, os.pardir, "scripts", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_edits_its_module_in_one_place():
    sources = mutants.module_sources(mutants.MUTANTS)
    assert sorted(sources) == sorted({mutant.module for mutant in mutants.MUTANTS})


def test_mutants_are_named_once_and_change_their_text():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(mutant.old != mutant.new for mutant in mutants.MUTANTS)
