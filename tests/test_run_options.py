"""The runner options have one definition and one check.

``repro-experiments run``, ``repro-sweep run`` and daemon submissions
share :data:`~repro.experiments.sweeps.RUN_DEFAULTS` and
:func:`~repro.experiments.sweeps.check_run_options`.  The property test
draws run blocks from a bounded grammar (in-range, out-of-range,
wrong-type and bool values for every option) and checks that every
boundary agrees: whatever the daemon accepts runs without a
``ValueError``, and ``repro-sweep run`` exits 2 exactly when the daemon
rejects.
"""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments import (
    RUN_DEFAULTS,
    SweepSpec,
    run_scenario,
    run_sweep,
)
from repro.experiments.cli import main as experiments_main
from repro.experiments.sweep_cli import main as sweep_main
from repro.serve import SubmissionError, parse_submission
from repro.serve.cli import main as serve_main

SPEC = {"scenario_id": "E5", "axes": {"m": [2]}}

#: per option: (in-range values, out-of-range / wrong-type / bool values)
VALUES = {
    "replications": ([1, 3], [0, True, "2"]),
    "seed": ([0, 7], [-1, True, 1.5]),
    "workers": ([1, 0], [-1, False, None]),
    "backend": (["auto", "event", "vectorized"], ["bogus", 1]),
    "level": ([0.9, 0.95], [1.0, math.nan, True]),
    "target_precision": ([0.05, 0.5, None], [0.0, math.nan, True]),
    "min_reps": ([2, 3, None], [1, True, 2.5]),
    "max_reps": ([4, 16, None], [1, True]),
}


def _with(run, bad):
    return {**run, bad[0]: bad[1]} if bad else run


# in-range blocks (whose combinations can still be invalid, e.g. min_reps
# without target_precision, or max_reps 4 under the default min_reps 5),
# each corrupted by at most one bad value
RUN_BLOCKS = st.builds(
    _with,
    st.fixed_dictionaries(
        {}, optional={k: st.sampled_from(ok) for k, (ok, _) in VALUES.items()}
    ),
    st.none()
    | st.sampled_from([(k, v) for k, (_, bad) in VALUES.items() for v in bad]),
)

_INT_FLAGS = {"replications", "seed", "workers", "min_reps", "max_reps"}


def _flag_value(key, value):
    """How ``value`` is spelled on the command line, or None when no argv
    can express it (the flag's parser would turn it into another value)."""
    if isinstance(value, bool):
        return None
    if key == "backend":
        return value if isinstance(value, str) else None
    if key in _INT_FLAGS:
        return str(value) if isinstance(value, int) else None
    return repr(value) if isinstance(value, (int, float)) else None


def _rejected(run):
    try:
        parse_submission({"spec": SPEC, "run": run})
    except SubmissionError:
        return True
    return False


@settings(
    max_examples=36,  # plus the five explicit examples: 41 in all
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=RUN_BLOCKS)
# blocks the runner itself rejects, which the daemon once accepted
@example(run={"seed": -1})
@example(run={"target_precision": 0.1, "min_reps": 1})
@example(run={"target_precision": 0.1, "max_reps": 4})
@example(run={"target_precision": math.nan})
@example(run={"target_precision": math.inf})
def test_every_boundary_accepts_and_rejects_the_same_run_blocks(run):
    try:
        submission = parse_submission({"spec": SPEC, "run": run})
    except SubmissionError as exc:
        assert exc.code == "invalid-submission"
    else:
        sweep = run_sweep(SweepSpec.from_dict(SPEC), **submission.run)
        assert len(sweep.results) == 1

    # the same options on the command line, minus what argv cannot spell
    # (None is spelled by omitting a nullable flag)
    argv = ["run", "E5", "--axis", "m=2", "--quiet"]
    representable = {}
    for key, value in run.items():
        if value is None and RUN_DEFAULTS[key] is None:
            representable[key] = value
            continue
        text = _flag_value(key, value)
        if text is not None:
            representable[key] = value
            argv += ["--" + key.replace("_", "-"), text]
    try:
        code = sweep_main(argv)
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    assert (code == 2) == _rejected(representable), (argv, code)
    assert code in (0, 2)


@pytest.mark.parametrize("fn", [run_scenario, run_sweep])
def test_library_defaults_are_the_run_defaults(fn):
    parameters = inspect.signature(fn).parameters
    assert {key: parameters[key].default for key in RUN_DEFAULTS} == RUN_DEFAULTS


# port 9 has no daemon: a check that ran after the request would report
# "cannot reach daemon" instead
_SUBMIT = ["submit", "E1", "--url", "http://127.0.0.1:9", "--axis", "n_jobs=8"]


@pytest.mark.parametrize(
    "main, argv, error",
    [
        (
            experiments_main,
            ["run", "E1", "--param", "n_jobs=10", "--param", "n_jobs=20"],
            "--param key(s) repeated: n_jobs",
        ),
        (
            sweep_main,
            ["run", "E1", "--axis", "n_jobs=8", "--base", "n_brute=4",
             "--base", "n_brute=5"],
            "--base key(s) repeated: n_brute",
        ),
        (
            sweep_main,
            ["run", "E1", "--axis", "n_jobs=8,12", "--where", "n_jobs=8",
             "--where", "n_jobs=12"],
            "--where key(s) repeated: n_jobs",
        ),
        (
            serve_main,
            _SUBMIT + ["--base", "n_brute=4", "--base", "n_brute=5"],
            "--base key(s) repeated: n_brute",
        ),
    ],
)
def test_repeated_key_is_refused_not_last_one_wins(main, argv, error, capsys):
    # regression: dict() of the flag's pairs silently kept the last value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith(f"error: {error}"), err


@pytest.mark.parametrize(
    "main, argv",
    [
        (experiments_main, ["run", "E5"]),
        (sweep_main, ["run", "E5", "--axis", "m=2"]),
        (serve_main, _SUBMIT),
    ],
)
def test_infinite_target_precision_is_refused(main, argv, capsys):
    # regression: inf passed, ran adaptively, stopped at min_reps and was
    # reported as "target_precision": null, like a fixed-n run
    assert main(argv + ["--target-precision", "1e999"]) == 2
    err = capsys.readouterr().err
    assert "--target-precision must be a finite number > 0 (got inf)" in err
    assert "Traceback" not in err


def test_repeated_key_within_one_point_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        sweep_main(["run", "E1", "--point", "n_jobs=8,n_jobs=12"])
    assert exc.value.code == 2
    assert "repeats key 'n_jobs'" in capsys.readouterr().err
