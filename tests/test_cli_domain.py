"""Property over the input domain of every CLI subcommand, run in-process:
each example draws ordinary option values and puts up to two options at edge
values (signed zeros, subnormals, the smallest normal double, +-1e308, NaN,
+-inf, W next to 0 and 1/2, negative and huge integers). ``main`` must return
0, 1, 2 or 3, let no exception out (the test configuration turns numpy's
RuntimeWarnings into exceptions) and write at most one stderr line, never a
traceback; a run that writes output (exit 0, or 3 under --strict) writes only
finite numbers. N stays at most 120 and K at most 121, so the module runs in
about 5 s."""

import contextlib
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

from slepian import cli
from slepian.approximation import BASES
from slepian.discrete import METHODS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

DOMAIN = hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)

TINY = 2.2250738585072014e-308   # the smallest normal double
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, TINY, -TINY,
                               1e-17, 1e308, -1e308, math.nan, math.inf, -math.inf])
edge_widths = edge_floats | st.sampled_from([1e-300, 0.49999999999999994, 0.5,
                                             0.5000000000000001])
edge_lengths = st.sampled_from([0, -1, -10 ** 30])
edge_ranks = st.sampled_from([-1, 121, -10 ** 30, 10 ** 30])
# (ordinary values, edge values) of each option
N = (st.integers(1, 120), edge_lengths)
W = (st.floats(1e-3, 0.49), edge_widths)


def _lists(pair, max_size=2):
    return tuple(st.lists(s, min_size=1, max_size=max_size) for s in pair)


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _finite_numbers(path: Path) -> None:
    """Every number in the file is finite: JSON constants (Infinity, NaN) raise
    on load, and every other token that parses as a float must be finite."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        def walk(x):
            if isinstance(x, dict):
                x = list(x.values())
            if isinstance(x, list):
                return all(walk(v) for v in x)
            return not isinstance(x, float) or math.isfinite(x)

        def refuse(name):
            raise ValueError(f"{path.name} holds the JSON constant {name}")
        assert walk(json.loads(text, parse_constant=refuse)), path.name
        return
    for token in re.split(r"[\s,=]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), f"{path.name}: {token}"


def run(data, command: str, tmp: Path, **options) -> None:
    """``slepian command --name=value ... --out=...`` in ``tmp``, checked for
    the domain property. Each option is an (ordinary, edge) pair of
    strategies, of which up to two draw from the edge one, or a strategy; a
    drawn True is a bare flag and None leaves the option out."""
    pairs = sorted(name for name, s in options.items() if isinstance(s, tuple))
    edge = data.draw(st.sets(st.sampled_from(pairs), max_size=2) if pairs else st.just(()))
    argv = [command, *["--strict"] * data.draw(st.booleans(), label="strict")]
    for name, s in options.items():
        value = data.draw(s[name in edge] if isinstance(s, tuple) else s, label=name)
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={_text(value)}")
    out = tmp / "out"
    out.mkdir()
    out /= "out.json" if command in ("bounds", "project") else "out.txt"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, f"--out={out}"])
    message = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert message.count("\n") <= 1 and "Traceback" not in message, (argv, message)
    if code in (0, 3):   # main wrote its output (exit 3 reports the verdict after it)
        for path in sorted(out.parent.iterdir()):
            _finite_numbers(path)


def domain_property(test, max_examples=DOMAIN.max_examples):
    """``test(data, tmp)`` as a derandomized property, each example in a fresh
    temporary directory."""
    @hypothesis.settings(DOMAIN, max_examples=max_examples)
    @given(data=st.data())
    def prop(data):
        with tempfile.TemporaryDirectory() as tmp:
            test(data, Path(tmp))
    prop.__name__ = test.__name__
    return prop


@domain_property
def test_eigs(data, tmp):
    run(data, "eigs", tmp, N=N, W=W, method=st.sampled_from(METHODS),
        with_classical=st.booleans())


@functools.partial(domain_property, max_examples=2)
def test_table1(data, tmp):
    run(data, "table1", tmp)


@domain_property
def test_bounds(data, tmp):
    run(data, "bounds", tmp, N=_lists(N), W=_lists(W),
        eps=_lists((st.floats(1e-12, 0.49), edge_floats)))


@domain_property
def test_project(data, tmp):
    samples = tmp / "samples.csv"   # the drawn rows between two that cover [-1, 1]
    drawn = data.draw(st.one_of(
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-10.0, 10.0)), max_size=3),
        st.lists(st.tuples(edge_floats, edge_floats), min_size=1, max_size=3)))
    rows = [(-1.0, 0.0), *drawn, (1.0, 1.0)]
    samples.write_text("x,f\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    run(data, "project", tmp, N=N, W=W,
        K=(st.integers(1, 120) | st.none(), edge_ranks),
        target=(st.sampled_from(["sinc", "weierstrass", "samples"]), st.none()),
        preset=(st.none(), st.sampled_from(sorted(cli.PRESETS))),
        alpha=(st.floats(0.5, 100.0), edge_floats), s=(st.floats(0.25, 3.0), edge_floats),
        basis=st.sampled_from(BASES), samples_file=st.just(samples))


@domain_property
def test_count(data, tmp):
    run(data, "count", tmp, N=N, W=W, eps=(st.floats(1e-12, 0.49), edge_floats))


@domain_property
def test_symmetry(data, tmp):
    run(data, "symmetry", tmp, N=N, W=W)


@domain_property
def test_projector_distance(data, tmp):
    run(data, "projector-distance", tmp, N=N, W=W, K=(st.integers(0, 12), edge_ranks),
        b=(st.floats(0.4, 10.0) | st.none(), edge_floats))


@domain_property
def test_turan(data, tmp):
    run(data, "turan", tmp, W=(st.floats(1 / 6, 0.49), edge_widths),
        N_list=_lists((st.integers(2, 60), edge_lengths), 3))


@pytest.mark.parametrize("basis", BASES)
def test_overflowing_samples_are_one_line_errors(basis):
    # a row the project property may draw: |f| = 1e308 once overflowed the fit
    # into numpy warnings and a NaN that the JSON writer refused
    with tempfile.TemporaryDirectory() as tmp:
        samples = Path(tmp) / "samples.csv"
        samples.write_text("x,f\n-1.0,0.0\n0.0,1e308\n1.0,1.0\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["project", "--target=samples", f"--samples-file={samples}",
                             "--N=16", "--W=0.2", f"--basis={basis}",
                             f"--out={Path(tmp) / 'p.json'}"])
        assert code == 1
        assert err.getvalue() == ("slepian: sample values must not exceed 1e150 "
                                  "in magnitude\n")
