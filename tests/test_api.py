"""The public API is what the README documents, and no more."""

import re
from pathlib import Path

import torus_orbits

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_every_public_name_is_documented():
    missing = [name for name in torus_orbits.__all__
               if not re.search(rf"\b{re.escape(name)}\b", README)]
    assert missing == []


def test_every_documented_name_is_public():
    # the head of each "Public names" bullet, up to its colon: names
    # written `name(...)` or `name`, one or several per bullet
    heads = re.findall(r"^- (`.*?`):", README, re.MULTILINE)
    documented = {name for head in heads
                  for name in re.findall(r"`(\w+)", head)}
    assert documented
    assert sorted(documented - set(torus_orbits.__all__)) == []
