import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demos_run_to_completion(capsys):
    scripts = sorted(DEMOS.glob("*.py"))
    assert [p.name for p in scripts] == [
        "admissibility_tour.py",
        "lifting_walkthrough.py",
        "scaling_up.py",
    ]
    for script in scripts:
        runpy.run_path(str(script), run_name="__main__")
        assert capsys.readouterr().out, script.name
