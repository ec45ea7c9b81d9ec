"""Benchmark for the hyposcreen CLI: fixed workloads, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cv_serial --seed 1 --seconds 20 --trace 0

Every repetition runs ``python -m hyposcreen.cli ...`` as fresh processes
against ``src/``.  A run sets its inputs up at least three times (the median is
``setup_s``), makes one warm-up repetition that is left out of the metrics,
then a fixed number of timed repetitions, derived from ``--seconds`` and a
nominal repetition time, so a run does the same work on every commit.  The
timed repetitions of a single-threaded workload run as two closed-loop
streams at once, one pinned to each vCPU.  A vCPU of a shared host speeds up
and slows down by 15-25% over seconds to minutes, so every set-up and
repetition is timed between two runs of a fixed reference computation
(``calibrate.py``) on the same vCPU, and its time is reported in seconds of
a host on which that computation takes ``REF_CAL_S``.  It checks the
outputs against computations made apart from the program and prints one
JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics from
spans recorded around each layer's calls with ``--trace 1``.  The exit code
is 0 only when every check passes.  See README.md in this directory.
"""

from __future__ import annotations

import os

# set before numpy loads, so BLAS never starts threads that compete with the
# program on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_CLI = HERE / "trace_cli.py"
CALIBRATE = HERE / "calibrate.py"
# calibrate.py's median on the reference host (2 vCPUs, Python 3.11, numpy 2.4);
# times are scaled by REF_CAL_S / (calibration time around them)
REF_CAL_S = 0.031
SETUPS = 3           # set-ups per run, at least ...
MIN_SETUP_S = 0.3    # ... and until this much set-up time is measured
DEADLINE_S = 170.0  # a run ends within 180 s even if the program hangs
MIN_REPS = 6         # the median of fewer repetitions moves too much
STREAMS = 2          # concurrent repetition streams of a single-threaded workload

END_TO_END = {
    "setup_s": "s",
    "rep_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


# --- program processes ------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    cpu: float      # user + sys seconds
    rss_mb: float   # peak resident set, 2**20 bytes


class Runner:
    """Runs program processes one at a time and reads their resource use."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, argv, cwd: Path, threads: int, log: Path, cpus=None) -> Proc:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        # no bytecode cache: every process compiles the package the same way
        # whatever the caller's environment, and nothing is written to src/
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                   PYTHONDONTWRITEBYTECODE="1", HYPOSCREEN_THREADS=str(threads))
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                if cpus:
                    _pin(proc.pid, cpus)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(code=proc.returncode, wall=wall,
                    cpu=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss / 1024.0)


def _pin(pid: int, cpus) -> None:
    try:
        os.sched_setaffinity(pid, cpus)
    except (ProcessLookupError, PermissionError):
        pass  # already exited, or pinning not allowed: runs unpinned


class Calibrator:
    """One ``calibrate.py --serve`` process pinned to each usable CPU, kept
    for the whole run so that a measurement costs no interpreter start."""

    def __init__(self, cpus):
        self.procs = {}
        try:
            for cpu in cpus:
                proc = subprocess.Popen([sys.executable, str(CALIBRATE), "--serve"],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)
                self.procs[cpu] = proc
                _pin(proc.pid, {cpu})
        except BaseException:
            self.close()
            raise

    def time(self, cpus) -> float:
        """Mean calibration time over ``cpus``, measured on all of them at once."""
        for cpu in cpus:
            self.procs[cpu].stdin.write("\n")
            self.procs[cpu].stdin.flush()
        times = [float(self.procs[cpu].stdout.readline()) for cpu in cpus]
        return sum(times) / len(times)

    def close(self) -> None:
        for proc in self.procs.values():
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def cli_argv(args, rep_dir: Path, k: int, traced: bool) -> list:
    if traced:
        return [str(TRACE_CLI), str(rep_dir / f"spans{k}.json"), "--"] + args
    return ["-m", "hyposcreen.cli"] + args


@dataclass
class Rep:
    directory: Path
    wall: float
    procs: list
    cal: float = REF_CAL_S  # mean calibration time before and after

    @property
    def scale(self) -> float:
        return REF_CAL_S / self.cal


def run_rep(wl, rep_dir: Path, runner: Runner, threads: int, traced: bool,
            cpus=None) -> Rep:
    rep_dir.mkdir(parents=True)
    procs = []
    t0 = time.perf_counter()
    for k, args in enumerate(wl.commands()):
        procs.append(runner.run(cli_argv(args, rep_dir, k, traced), rep_dir, threads,
                                rep_dir / f"log{k}.txt", cpus))
    return Rep(directory=rep_dir, wall=time.perf_counter() - t0, procs=procs)


def run_streams(wl, work: Path, runner: Runner, cal: Calibrator, cpus: list,
                n_reps: int, traced: bool) -> list:
    """``n_reps`` repetitions taken from one shared queue by ``wl.streams``
    closed-loop streams.  For a single-threaded workload stream s pins its
    processes to the s-th CPU and calibrates there; a multi-threaded one uses
    and calibrates every CPU.  Each repetition is bracketed by calibrations."""
    reps, raised = [None] * n_reps, []
    queue = iter(range(n_reps))
    lock = threading.Lock()

    def stream(s: int) -> None:
        mine = [cpus[s % len(cpus)]] if wl.threads == 1 else cpus
        try:
            before = cal.time(mine)
            while True:
                with lock:
                    i = next(queue, None)
                if i is None:
                    return
                rep = run_rep(wl, work / f"rep{i}", runner, wl.threads, traced, set(mine))
                after = cal.time(mine)
                rep.cal, before = (before + after) / 2, after
                reps[i] = rep
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            raised.append(exc)

    threads = [threading.Thread(target=stream, args=(s,)) for s in range(wl.streams)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if raised:
        raise raised[0]
    return reps


def output_digest(rep: Rep, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = rep.directory / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


# --- workloads -----------------------------------------------------------------------

class Workload:
    """One fixed set of inputs and CLI commands.

    ``items`` is the unit of ``items_per_s``; ``rep_estimate_s`` is the
    nominal time of one repetition on the reference machine with
    ``streams`` repetitions running at once, which turns ``--seconds`` into
    a repetition count.
    """

    threads = 1
    streams = STREAMS
    rep_estimate_s = 1.0
    items = 1
    outputs: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, inp: Path, runner: Runner) -> list:
        """Write the inputs into ``inp``; returns failure messages."""
        raise NotImplementedError

    def commands(self) -> list:
        """CLI argument lists of one repetition, run in its own directory."""
        raise NotImplementedError

    def check(self, out_dir: Path) -> list:
        """Failure messages for the outputs of one repetition."""
        raise NotImplementedError

    def expected_layers(self) -> dict:
        """Per-layer metric -> the value one repetition must show; ``None``
        means only that it must be above zero."""
        raise NotImplementedError


class CrossValidation(Workload):
    """``cv`` on a class-imbalanced 126-column Gaussian table, one worker.

    The table is the same for every ``--seed``, which sets the ``cv`` seed
    (fold assignment, SMOTE draws, model seeds): over tables seeded 201-210
    the boosters grew 15,792 to 20,618 nodes per repetition and the
    repetition time followed, against 18,720 to 19,434 nodes over cv seeds
    on one table.
    """

    TABLE_SEED = 0
    FOLDS, SEEDS, N_TREES = 2, 2, 10
    N_CASE, N_CONTROL, DELTA = 40, 120, 1.75
    GRID = 18
    rep_estimate_s = 3.6
    items = FOLDS * SEEDS  # pipeline trainings
    outputs = ("cv.json", "roc.csv", "roc.svg", "audit.jsonl")

    def setup(self, inp, runner):
        self.inp = inp
        self.table = inputs.gaussian_table(self.TABLE_SEED, "cv", self.N_CASE,
                                           self.N_CONTROL, self.DELTA, informative=2)
        self.table.write(inp / "table.csv")
        inputs.write_config(inp / "config.json", self.N_TREES)
        return []

    def commands(self):
        return [["cv", "--features", str(self.inp / "table.csv"),
                 "--config", str(self.inp / "config.json"),
                 "--folds", str(self.FOLDS), "--seeds", str(self.SEEDS),
                 "--seed", str(self.seed), "--out", "cv.json", "--roc-out", "roc.csv",
                 "--roc-svg", "roc.svg", "--audit-log", "audit.jsonl"]]

    def check(self, out_dir):
        return checks.check_cv(self.table, out_dir, self.FOLDS, self.SEEDS)

    def expected_layers(self):
        t = self.items
        fits = t * (self.GRID * 3 + self.GRID)  # inner-fold candidates + refits
        return {
            "histboost.fit_calls": fits,
            "histboost.trees": fits * self.N_TREES,
            "binning.fit_calls": fits,                 # one fit_bins per fit
            "binning.fit_distinct_inputs": 4 * t,      # 3 inner folds + final set
            "logistic.fit_calls": 2 * t,               # selection + meta-layer
            "ensemble.train_calls": t,
            "ensemble.predict_calls": t,
            "evaluate.cv_calls": self.SEEDS,
            "parallel.items": self.SEEDS,
            "parallel.workers": min(self.threads, self.SEEDS),
            "select.features_kept": 30 * t,
            "reports.write_calls": 4,
            "cli.commands": 1,
        }


class CvPool(CrossValidation):
    """Same table, config and seed as ``cv_serial`` on two workers; the
    warm-up repetition runs serially and is the byte-for-byte reference.
    One stream: the pool itself spreads the work over both vCPUs.

    Not listed in BENCHMARK.json: with it, the four workloads' runs took
    longer than the benchmark's time limit allows with a safe margin.  Run
    it by name to measure the ``parallel`` layer with two workers.
    """

    threads = 2
    streams = 1
    rep_estimate_s = 5.7


class FeaturizeCohort(Workload):
    """``featurize`` on participants x 3 recordings of ~300 frames each."""

    PARTICIPANTS = 2
    rep_estimate_s = 4.3
    items = PARTICIPANTS * 3  # recordings
    outputs = ("features.csv",)

    def setup(self, inp, runner):
        self.corpus = inputs.recording_corpus(self.seed, inp, self.PARTICIPANTS)
        self.index_map = json.loads(
            (SRC / "hyposcreen" / "data" / "landmark_indices.json").read_text())
        return []

    def commands(self):
        return [["featurize", "--manifest", self.corpus.manifest_path,
                 "--out", "features.csv", "--min-confidence", str(inputs.LOW_CONFIDENCE)]]

    def check(self, out_dir):
        return checks.check_featurize(self.corpus, self.index_map, out_dir / "features.csv")

    def expected_layers(self):
        frames = sum(r.confidence.shape[0] for r in self.corpus.recordings)
        return {
            "ingest.recordings": self.items,
            # frame + 7 intensities + 7 activations + confidence; frame + 478 x 3
            "ingest.cells_parsed": frames * (16 + 1435),
            "ingest.bytes_read": self.corpus.bytes_on_disk - len(
                Path(self.corpus.manifest_path).read_bytes()),
            "ingest.landmark_cells_used_ratio": 44 / 1435,  # x/y of 22 points
            "featurize.self_s": None,
            "featurize.attribute_s": None,
            "dataset.rows": self.PARTICIPANTS,
            "cli.commands": 1,
        }


class ScoreReport(Workload):
    """``predict``, ``explain``, two ``bias`` reports and ``project`` with an
    artifact that set-up trains on a small table.

    The training table and the training seed are the same for every
    ``--seed``, so every run scores with the same artifact: the lead model's
    size, which sets the TreeSHAP work, otherwise changes with the seed (68
    to 100 leaves over seeds 21-28, 10% of a repetition).  ``--seed`` sets
    the scoring table.
    """

    TRAIN_SEED = 0

    N_TRAIN = (50, 70)
    N_SCORE = (500, 700)
    DELTA, N_TREES, EXPLAIN_ROWS = 2.0, 15, 300
    AGE_BINS = (35, 55, 70, 86)
    rep_estimate_s = 4.2
    items = sum(N_SCORE)  # scoring-table rows
    outputs = ("preds.csv", "shap.csv", "bias_ethnicity.json", "bias_age.json",
               "coords.csv")

    def setup(self, inp, runner):
        self.inp = inp
        train = inputs.gaussian_table(self.TRAIN_SEED, "train", *self.N_TRAIN, self.DELTA,
                                      informative=5, factors=True, prefix="t")
        self.table = inputs.gaussian_table(self.seed, "score", *self.N_SCORE, self.DELTA,
                                           informative=5, factors=True, prefix="q")
        train.write(inp / "train.csv")
        self.table.write(inp / "score.csv")
        inputs.write_config(inp / "config.json", self.N_TREES)
        proc = runner.run(["-m", "hyposcreen.cli", "train", "--features", "train.csv",
                           "--config", "config.json", "--out", "model.json",
                           "--seed", str(self.TRAIN_SEED)], inp, self.threads,
                          inp / "train.log")
        return [] if proc.code == 0 else [f"artifact training exited {proc.code}"]

    def commands(self):
        model, score = str(self.inp / "model.json"), str(self.inp / "score.csv")
        bins = ",".join(str(b) for b in self.AGE_BINS)
        return [
            ["predict", "--model", model, "--features", score, "--out", "preds.csv"],
            ["explain", "--model", model, "--features", score, "--out", "shap.csv",
             "--max-rows", str(self.EXPLAIN_ROWS)],
            ["bias", "--preds", "preds.csv", "--features", score, "--group", "ethnicity",
             "--out", "bias_ethnicity.json"],
            ["bias", "--preds", "preds.csv", "--features", score, "--group", "age",
             "--bins", bins, "--out", "bias_age.json"],
            ["project", "--features", score, "--out", "coords.csv"],
        ]

    def _groups(self):
        eth = np.array(self.table.demographics["ethnicity"])
        age = np.array(self.table.demographics["age"])
        edges = self.AGE_BINS
        binned = {}
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            last = i == len(edges) - 2
            binned[f"[{lo:g}, {hi:g}{']' if last else ')'}"] = \
                (age >= lo) & ((age <= hi) if last else (age < hi))
        return {g: eth == g for g in sorted(set(eth.tolist()))}, binned

    def check(self, out_dir):
        artifact = json.loads((self.inp / "model.json").read_text())
        errors, predicted = checks.check_predictions(artifact, self.table,
                                                     out_dir / "preds.csv")
        if predicted is not None:
            cat, binned = self._groups()
            errors += checks.check_bias(out_dir / "bias_ethnicity.json", cat,
                                        self.table.y, predicted)
            errors += checks.check_bias(out_dir / "bias_age.json", binned,
                                        self.table.y, predicted)
        errors += checks.check_shap(artifact, self.table, out_dir / "shap.csv",
                                    self.EXPLAIN_ROWS)
        errors += checks.check_projection(self.table, out_dir / "coords.csv")
        return errors

    def artifact_shape(self) -> dict:
        artifact = json.loads((self.inp / "model.json").read_text())
        models = artifact["base_models"]
        return {"models": len(models),
                "trees": sum(len(m["trees"]) for m in models),
                "leaves": sum(t["feature"].count(-1) for m in models for t in m["trees"]),
                "features": len(artifact["feature_names"])}

    def expected_layers(self):
        shape = self.artifact_shape()
        lead_trees = self.N_TREES
        return {
            "cli.commands": 5,
            "ensemble.predict_calls": 1,
            "histboost.predict_calls": shape["models"] + self.EXPLAIN_ROWS,
            "explain.shap_rows": self.EXPLAIN_ROWS,
            "explain.shap_tree_rows": self.EXPLAIN_ROWS * lead_trees,
            "explain.pca_calls": 2 + 3,          # coordinates, all columns, 3 expressions
            "explain.silhouette_calls": 1 + 3,
            "stats.bias_calls": 2,
            "ensemble.artifact_bytes": 2 * (self.inp / "model.json").stat().st_size,
            "dataset.rows": 5 * self.items,      # every command reads the table
            "reports.write_calls": 5,
        }


WORKLOADS = {
    "cv_serial": CrossValidation,
    "cv_pool": CvPool,
    "featurize_cohort": FeaturizeCohort,
    "score_report": ScoreReport,
}


# --- a run ---------------------------------------------------------------------------

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def check_layers(wl, per_rep: list) -> list:
    errors = []
    counts = [{k: v for k, v in m.items() if not layers.is_time(k)} for m in per_rep]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("per-layer counts differ between repetitions")
    for metric, want in wl.expected_layers().items():
        got = per_rep[0][metric]
        if want is None:
            if not got > 0:
                errors.append(f"{metric} is {got}; the layer was not traced")
        elif isinstance(want, float):
            if abs(got - want) > 1e-12:
                errors.append(f"{metric} = {got}, expected {want}")
        elif got != want:
            errors.append(f"{metric} = {got}, expected {want}")
    return errors


def guarded(check, *args) -> list:
    """Run a check; an exception (say, an output a failed command never
    wrote) is a failed check, not a crash of the run."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]


def measure(wl: Workload, work: Path, seconds: int, traced: bool) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    cal = Calibrator(cpus)
    try:
        return measure_with(wl, work, seconds, traced, cal, cpus)
    finally:
        cal.close()


def run_setups(wl: Workload, inp: Path, runner: Runner, cal: Calibrator, cpu: int):
    """Set up at least ``SETUPS`` times and ``MIN_SETUP_S``, pinned to ``cpu``
    with a calibration between set-ups; returns raw and scaled times and
    failure messages."""
    everywhere = os.sched_getaffinity(0)
    raw, scaled, errors = [], [], []
    os.sched_setaffinity(0, {cpu})
    try:
        before = cal.time([cpu])
        while len(raw) < SETUPS or sum(raw) < MIN_SETUP_S:
            shutil.rmtree(inp, ignore_errors=True)
            inp.mkdir(parents=True)
            t0 = time.perf_counter()
            errors += wl.setup(inp, runner)
            raw.append(time.perf_counter() - t0)
            after = cal.time([cpu])
            scaled.append(raw[-1] * REF_CAL_S / ((before + after) / 2))
            before = after
    finally:
        os.sched_setaffinity(0, everywhere)
    return raw, scaled, errors


def measure_with(wl: Workload, work: Path, seconds: int, traced: bool,
                 cal: Calibrator, cpus: list) -> dict:
    runner = Runner(deadline=time.monotonic() + DEADLINE_S)
    inp = work / "inputs"
    setup_raw, setup_times, errors = run_setups(wl, inp, runner, cal, cpus[0])
    # flush the inputs now, so that their write-back (48 MB for
    # featurize_cohort) does not run during the timed repetitions
    for path in inp.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())

    # a whole number of rounds, one repetition per stream in each
    rounds = max(MIN_REPS // wl.streams, round(seconds / wl.rep_estimate_s))
    n_reps = rounds * wl.streams
    # serial for every workload: for cv_pool it is the byte-for-byte reference
    warm = run_rep(wl, work / "warm", runner, threads=1, traced=False)
    if any(p.code != 0 for p in warm.procs):
        errors.append(f"warm-up exit codes {[p.code for p in warm.procs]}")
    t0 = time.perf_counter()
    reps = run_streams(wl, work, runner, cal, cpus, n_reps, traced)
    wall = time.perf_counter() - t0

    errors += guarded(wl.check, warm.directory)
    reference = output_digest(warm, wl.outputs)
    for i, rep in enumerate(reps):
        if output_digest(rep, wl.outputs) != reference:
            errors.append(f"repetition {i}: outputs differ from the warm-up repetition")
    procs = [p for rep in reps for p in rep.procs]
    failed = sum(p.code != 0 for p in procs)

    if traced:
        per_rep = [layers.layer_metrics(layers.load_spans(
            sorted(rep.directory.glob("spans*.json")))) for rep in reps]
        errors += guarded(check_layers, wl, per_rep)
        metrics = {}
        for name, (unit, _, _) in layers.PER_LAYER.items():
            values = [m[name] for m in per_rep]
            value = statistics.median(values) if layers.is_time(name) else values[0]
            metrics[name] = {"value": value, "unit": unit}
        metrics[layers.REP_WALL] = {
            "value": statistics.median(r.wall * r.scale for r in reps), "unit": "s"}
    else:
        rep_s = statistics.median(r.wall * r.scale for r in reps)
        values = {
            "setup_s": statistics.median(setup_times),
            "rep_s": rep_s,
            "items_per_s": wl.items * wl.streams / rep_s,
            "cpu_s": statistics.median(sum(p.cpu for p in r.procs) * r.scale
                                       for r in reps),
            "peak_rss_mb": max(p.rss_mb for p in procs),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for e in errors:
        sys.stderr.write(f"check failed: {e}\n")
    info = {"repetitions": n_reps, "streams": wl.streams, "timed_wall_s": wall,
            "setup_raw_s": setup_raw, "rep_wall_s": [r.wall for r in reps],
            "rep_cal_s": [r.cal for r in reps], "ref_cal_s": REF_CAL_S, **environment()}
    if isinstance(wl, ScoreReport):
        info["artifact"] = wl.artifact_shape()
    print(json.dumps({"info": info}))
    return {"correct": not errors, "attempted": len(procs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hyposcreen" / "cli.py").is_file():
        sys.stderr.write(f"no program source at {SRC}; run from a checkout root\n")
        return 2
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload](args.seed), work, args.seconds,
                         bool(args.trace))
    except TimeoutError as exc:
        sys.stderr.write(f"run stopped: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
