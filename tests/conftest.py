import json
from pathlib import Path

import pytest

from gfinv.algebra import parse_closed_form
from gfinv.program import parse

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def bench_names():
    return sorted(p.name for p in BENCH_DIR.iterdir() if p.is_dir())


def load_bench(name):
    d = BENCH_DIR / name
    ast = parse((d / "program.pgcl").read_text())
    init = parse_closed_form((d / "init.gf").read_text().strip(), ast.variables)
    expected = json.loads((d / "expected.json").read_text())
    return ast, init, expected, d


@pytest.fixture(scope="session")
def corpus():
    return {name: load_bench(name) for name in bench_names()}


def pytest_generate_tests(metafunc):
    if "bench_name" in metafunc.fixturenames:
        metafunc.parametrize("bench_name", bench_names())
