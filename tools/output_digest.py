"""One SHA-256 per family of glda outputs, for comparing two checkouts.

Run from a checkout's root:

    PYTHONPATH=src python tools/output_digest.py

and diff what two checkouts print. The hashed families are:

* ``grouped.{directions,reports,traces}`` - ``fit_grouped`` over the
  criterion-5 study grid (``lambda_grid(2.5, 14, 0.8)``) on design 1 at
  seeds 0-19 and 58-63;
* ``single.{directions,reports,traces}`` - ``fit_single_lasso`` on each
  contrast over the same problems;
* ``lpd`` - ``fit_lpd`` on each contrast over the same problems: the
  solution, or the ray of an ``LpInfeasibleError``, or the message of an
  ``LpNumericalError``;
* ``cli`` - in-process ``glda`` runs at design-1 seeds 7 and 41:
  ``simulate``, ``cv``, ``path`` with ``grouped``, ``single`` and ``lpd``,
  ``fit`` with each of those at lambda 0.5, 1.3 and the one ``cv`` chose,
  ``fit`` with ``pinv`` and ``nbayes``, ``predict`` with the grouped model
  at the chosen lambda and with the ``nbayes`` model, and ``diagnose`` of
  that grouped model. It covers every exit code, stdout and stderr (the
  temporary directory masked) and every written file except the
  ``.<name>.glda-cache`` sidecars that reading a CSV leaves;
* ``sample`` - the features and labels ``simulate.sample`` draws for
  designs 1 and 2 at the fit seeds, and for a p = 2000 identity design
  with design 1's directions and 200 samples per class, as perfbench's
  ``wide-io`` training set uses;
* ``spectral`` - the comparators that read the scatter's spectrum:
  ``pseudoinverse_lda_fit`` and, for each contrast on the supports
  [0, 1, 2] and 0-9, ``oracle_restricted_fit`` at the fit seeds, plus
  ``pseudoinverse_lda_fit`` on that p = 2000 design;
* ``csv`` - the bytes ``write_dataset_csv`` writes for that p = 2000
  sample, labelled and unlabelled, for the design-1 sample at seed 7, and
  for a 600 x 1000 table of values at the edges of ``%.17g`` formatting,
  labelled and unlabelled: the 40 floats on each side of every power of
  ten from 1e-12 to 1e19, values that lie half-way between two 17-digit
  decimals, 9.9999999999999995e-07 (the double nearest 1e-6), subnormals,
  zeros and the largest float, each with both signs. The wide tables are
  large enough to be split between the writing thread and a helper thread
  on a machine with more than one usable CPU, and the design-1 table is
  small enough to be formatted by the writing thread alone, so the hash
  covers both paths.

Numbers are hashed as their float64 bytes, so any change in the last bit
shows. Reports hash the iteration count, KKT residual, status and ray;
traces hash the objective trace on its own, since it is the one output
whose rounding follows the order of the objective's sums.

After the hashes come the counts of each fit family, so a change to the
outputs shows what it did to them: ``grouped.counts`` and ``single.counts``
give the fits ending in each status and the iterations they took in all,
``lpd.counts`` the solved, infeasible and numerically failed fits.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from glda import classify, cli, model, select, simulate, solvers
from glda.io import write_dataset_csv

FIT_SEEDS = (*range(20), *range(58, 64))
STUDY_GRID = (2.5, 14, 0.8)
CLI_SEEDS = (7, 41)
WIDE_P = 2000
ORACLE_SUPPORTS = ((0, 1, 2), tuple(range(10)))


def _float_bytes(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _report_bytes(rep):
    ray = b"" if rep.ray is None else _float_bytes(rep.ray)
    return f"{rep.iterations} {rep.kkt_residual.hex()} {rep.status}|".encode() + ray


def fit_digests(seeds=FIT_SEEDS):
    """Hashes and counts of the grouped, single and LPD fits over the study grid at ``seeds``.

    Returns two dicts: the hash of each family, and each family's counts
    as one ``key=value`` line.
    """
    names = [f"{e}.{part}" for e in ("grouped", "single") for part in ("directions", "reports", "traces")]
    h = {name: hashlib.sha256() for name in (*names, "lpd")}
    keys = ("optimal", "unbounded", "max_iter", "iterations")
    counts = {e: dict.fromkeys(keys, 0) for e in ("grouped", "single")}
    counts["lpd"] = dict.fromkeys(("solved", "infeasible", "numerical"), 0)

    def add(estimator, beta, rep):
        h[f"{estimator}.directions"].update(_float_bytes(beta))
        h[f"{estimator}.reports"].update(_report_bytes(rep))
        h[f"{estimator}.traces"].update(_float_bytes(rep.objective_trace) + b"|")
        counts[estimator][rep.status] += 1
        counts[estimator]["iterations"] += rep.iterations

    grid = select.lambda_grid(*STUDY_GRID).values
    for seed in seeds:
        d = simulate.sample(simulate.sim1_spec(seed))
        cs = model.summarize(d)
        S = model.pooled_scatter(d, cs)
        for lam in grid:
            lam = float(lam)
            ds, rep = solvers.fit_grouped(S, cs.deltas, lam)
            add("grouped", ds.matrix, rep)
            for delta in cs.deltas:
                add("single", *solvers.fit_single_lasso(S, delta, lam))
                try:
                    out = b"solution|" + _float_bytes(solvers.fit_lpd(S, delta, lam))
                    counts["lpd"]["solved"] += 1
                except solvers.LpInfeasibleError as exc:
                    out = b"infeasible|" + _float_bytes(exc.ray)
                    counts["lpd"]["infeasible"] += 1
                except solvers.LpNumericalError as exc:
                    out = f"numerical {exc}".encode()
                    counts["lpd"]["numerical"] += 1
                h["lpd"].update(out + b"|")
    lines = {f"{e}.counts": " ".join(f"{k}={v}" for k, v in c.items()) for e, c in counts.items()}
    return {name: h[name].hexdigest() for name in h}, lines


def _wide_spec():
    # p = 2000, identity covariance, design 1's directions, 200 per class
    B = np.zeros((WIDE_P, 2))
    B[0:3] = simulate.sim1_spec(0).true_directions.matrix[0:3]
    return simulate.spec_from_directions(np.eye(WIDE_P), B, (200, 200, 200), 0)


def sample_digest(seeds=FIT_SEEDS):
    """Hash of the samples drawn for designs 1 and 2 at ``seeds`` and for one wide design."""
    specs = [make(seed) for make in (simulate.sim1_spec, simulate.sim2_spec) for seed in seeds]
    specs.append(_wide_spec())
    h = hashlib.sha256()
    for spec in specs:
        d = simulate.sample(spec)
        h.update(_float_bytes(d.features) + d.labels.astype(np.int64).tobytes() + b"|")
    return h.hexdigest()


def spectral_digest(seeds=FIT_SEEDS):
    """Hash of the pseudo-inverse and support-oracle directions at ``seeds`` and on one wide design."""
    h = hashlib.sha256()
    for seed in seeds:
        d = simulate.sample(simulate.sim1_spec(seed))
        cs = model.summarize(d)
        S = model.pooled_scatter(d, cs)
        h.update(_float_bytes(classify.pseudoinverse_lda_fit(S, cs).matrix) + b"|")
        for support in ORACLE_SUPPORTS:
            for delta in cs.deltas:
                h.update(_float_bytes(solvers.oracle_restricted_fit(S, delta, support)) + b"|")
    d = simulate.sample(_wide_spec())
    cs = model.summarize(d)
    h.update(_float_bytes(classify.pseudoinverse_lda_fit(model.pooled_scatter(d, cs), cs).matrix))
    return h.hexdigest()


def boundary_values():
    """Floats at the edges of %.17g formatting, each with both signs (see the module docstring)."""
    near = [(np.array([10.0**k, float(f"1e{k}")]).view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64)
            for k in range(-12, 20)]
    halfway = (4e15 + 2 * np.arange(0, 2000, 7) + 1) / 4  # 18 significant digits, the last a 5
    edges = [9.9999999999999995e-07, 1e-6, 1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0, 5e-324,
             2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0]
    x = np.concatenate([*(a.ravel() for a in near), halfway, edges])
    return np.concatenate([x, -x])


def csv_digest():
    """Hash of the dataset CSVs written for the wide sample, a design-1 sample and the boundary table."""
    wide, sim1 = simulate.sample(_wide_spec()), simulate.sample(simulate.sim1_spec(CLI_SEEDS[0]))
    edges = np.resize(boundary_values(), (600, 1000))
    edge_labels = np.arange(600) % 3 + 1
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        path = Path(name) / "d.csv"
        for features, labels in ((wide.features, wide.labels), (wide.features, None), (sim1.features, sim1.labels),
                                 (edges, edge_labels), (edges, None)):
            write_dataset_csv(path, features, labels)
            h.update(path.read_bytes() + b"|")
    return h.hexdigest()


def _run(h, tmp, argv):
    # hashes the command, its exit code and both streams; returns stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"
    h.update(text.replace(str(tmp), "<tmp>").encode())
    return out.getvalue()


def cli_digest(seeds=CLI_SEEDS):
    """Hash of the exit codes, output streams and written files of the CLI runs at ``seeds``."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for seed in seeds:
            data = str(tmp / f"sim{seed}.csv")
            _run(h, tmp, ["simulate", "sim1", "--seed", str(seed), "--out", data,
                          "--truth-out", str(tmp / f"truth{seed}.json")])
            out = _run(h, tmp, ["cv", data, "--out", str(tmp / f"cv{seed}.csv")])
            lambdas = ["0.5", "1.3", *out.split()[1:2]]  # stdout opens "chosen_lambda <value>"
            for est in ("grouped", "single", "lpd"):
                _run(h, tmp, ["path", data, "--estimator", est, "--out", str(tmp / f"path{seed}-{est}.csv")])
                for lam in lambdas:
                    _run(h, tmp, ["fit", data, "--estimator", est, "--lambda", lam,
                                  "--out", str(tmp / f"fit{seed}-{est}-{lam}.txt")])
            for est in ("pinv", "nbayes"):
                _run(h, tmp, ["fit", data, "--estimator", est, "--out", str(tmp / f"fit{seed}-{est}.txt")])
            grouped = str(tmp / f"fit{seed}-grouped-{lambdas[-1]}.txt")
            for name, model_file in (("grouped", grouped), ("nbayes", str(tmp / f"fit{seed}-nbayes.txt"))):
                _run(h, tmp, ["predict", model_file, data, "--out", str(tmp / f"pred{seed}-{name}.csv")])
            _run(h, tmp, ["diagnose", grouped, str(tmp / f"truth{seed}.json"), data,
                          "--out", str(tmp / f"diag{seed}.json")])
        for path in sorted(tmp.iterdir()):
            if path.suffix != ".glda-cache":  # a CSV's parse, kept to speed up later reads
                h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def main():
    digests, counts = fit_digests()
    digests["sample"] = sample_digest()
    digests["spectral"] = spectral_digest()
    digests["csv"] = csv_digest()
    digests["cli"] = cli_digest()
    for name, value in {**digests, **counts}.items():
        print(f"{name:<18} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
