import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import glda


def test_every_exported_name_resolves():
    # a name dropped from a module must not linger in its __all__
    for info in pkgutil.iter_modules(glda.__path__):
        module = importlib.import_module(f"glda.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"glda.{info.name}.{name}"


def test_package_exports_exactly_its_modules_public_names():
    # the package restates no name: its public names are the union of the
    # five library modules' __all__
    modules = ("model", "solvers", "classify", "select", "simulate")
    declared = set().union(*(importlib.import_module(f"glda.{m}").__all__ for m in modules))
    exported = {
        name
        for name, value in vars(glda).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared
    # names the README documents import from the package itself
    from glda import FoldSizeError, LpNumericalError, SupportCounts, as_scatter  # noqa: F401


def test_readme_library_example_runs(capsys):
    # the README's Library section documents the fit signatures; its example
    # must run against the code as it is
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    status, error_rate = capsys.readouterr().out.split()
    assert status == "optimal"
    assert 0.0 <= float(error_rate) < 0.5


def test_output_digest_runs_and_repeats():
    # tools/output_digest.py compares two checkouts, so it must run against
    # the code as it is and give the same hashes on a second run
    spec = importlib.util.spec_from_file_location(
        "output_digest", Path(__file__).parents[1] / "tools" / "output_digest.py"
    )
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    hashes, counts = digest.fit_digests(seeds=(0,))
    assert len(hashes) == 7
    # seed 0 gives 14 grouped fits, 28 single fits and 28 LPD fits
    assert counts == {
        "grouped.counts": "optimal=9 unbounded=5 max_iter=0 iterations=180",
        "single.counts": "optimal=20 unbounded=8 max_iter=0 iterations=578",
        "lpd.counts": "solved=20 infeasible=8 numerical=0",
    }
    assert digest.sample_digest(seeds=(0,)) == digest.sample_digest(seeds=(0,))
    assert digest.spectral_digest(seeds=(0,)) == digest.spectral_digest(seeds=(0,))
    # the temporary directory differs between runs and must be masked
    assert digest.cli_digest(seeds=(7,)) == digest.cli_digest(seeds=(7,))
