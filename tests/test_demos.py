import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: a change to the library that moves any
# printed byte has to re-pin it here
DEMO_DIGESTS = {
    "01_homology_and_linking_forms.py":
        "e23ba4e9ba7ac7d588adebb64e1a69ac88e4772c09b04778c02f476dea9604ee",
    "02_partition_functions.py":
        "68c03404f6cad961b98dc01da7077927fbae495b3dbbe8d72d650fd65faec1a9",
    "03_reciprocity_and_duality.py":
        "97613bde2363762337b2c8e76d57570db6765169cb01a525e8d3dba297bb43a1",
    "04_kirby_moves_and_evenization.py":
        "e880383f1334390f456530d7d13fd5be4dae0d27faa5b232c5582afc4e8628b5",
}


def test_there_are_demos():
    assert [demo.name for demo in DEMOS] == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.name]


def test_readme_tour_prints_what_its_comments_say():
    text = (ROOT / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    tour = tour.split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip()
                for line in tour.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", tour], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(expected) == 4
    assert proc.stdout.splitlines() == expected
