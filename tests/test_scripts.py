"""The runnable experiments under scripts/, run as their own main()."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_main(name, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_misprint_survey_output_is_pinned(capsys):
    # every solved correction, lambda, theta and k^2 the survey prints
    out = run_main("misprint_survey", capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == "fd8fd3284309b92cffc9290048bf5d46373edf4b3ece4a4aac1dbdd964df690b"
