"""The benchmark's commands reproduce their committed seed-0 outputs byte for byte.

Every command of ``benchmarks/workloads.py`` runs in process at ``--seed
0``, the storage sweep on the scenario file the workloads generate, and
the sha256 of each output file and of stdout (the ``--out`` path masked,
as the benchmark masks it) must equal ``benchmarks/reference_seed0.json``.
``manifest.txt`` is left out: it names the installed package version,
which reads "unknown" when the package runs from source. Skipped when the
checkout has no ``benchmarks/`` directory.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from bspower.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
REFERENCE = BENCHMARKS / "reference_seed0.json"

if not REFERENCE.is_file():
    pytest.skip("no benchmarks/ directory in this checkout", allow_module_level=True)


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
COMMANDS = {command.name: command
            for workload in WORKLOADS.WORKLOADS.values()
            for command in (*workload.commands, workload.warmup)}
EXPECTED = json.loads(REFERENCE.read_text())


def test_every_reference_entry_names_a_benchmark_command():
    assert set(EXPECTED) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_benchmark_command_reproduces_its_seed_0_digests(tmp_path, name):
    command = COMMANDS[name]
    storage = WORKLOADS.write_storage_file(tmp_path, 0)
    out = tmp_path / "out"
    argv = [str(storage) if arg == WORKLOADS.STORAGE_FILE else arg for arg in command.argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 0

    found = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
             for file in command.outputs if file != "manifest.txt"}
    found["stdout"] = hashlib.sha256(
        stdout.getvalue().replace(str(out), "<out>").encode()).hexdigest()
    want = {key: digest for key, digest in EXPECTED[name].items() if key != "manifest.txt"}
    assert found == want
