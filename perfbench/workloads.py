"""The benchmark's workloads: build inputs from the seed, run them, check every operation.

``msd600`` and ``small_batch`` push systems through the library in this
process; ``cli_stokes15`` chains the ``qobt`` command line, one subprocess
per subcommand.  An operation is one system through the pipeline or one CLI
subcommand; it fails when any correctness check on it fails.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import resource
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qobt
from qobt.gramians import equation_residuals

TOL_SIGMA_REL = 1e-8
HORIZON = 10.0
STEP = 0.01
SIGNAL_1 = "sin(2*t)^2*exp(-t/2)"
SIGNAL_2 = "sin(2*t)^2*exp(-t/2); 0.5*sin(t)^3*exp(-t/3)"
N_RANDOM = 48

WCF_RESID_TOL = 1e-10
EQUATION_RESID_TOL = 1e-9
REFERENCE_TOL = 1e-10
EPS = float(np.finfo(float).eps)

# (n_f, n_inf, nu) the generators build: the chain has one algebraic
# constraint of index 3; the k=15 Stokes grid has 2k(k-1) velocities and k^2
# pressures, so n_f = 420 - 225 and n_inf = 2 * 225 at index 2.
MSD_TRUTH = (1198, 3, 3)
RANDOM_TRUTH = (40, 20, 3)
ILLUSTRATIVE_TRUTH = (2, 2, 2)
STOKES_TRUTH = (195, 450, 2)

FLOW = ("hsv", "reduce", "simulate", "bound", "verify")
# A run measures for --seconds and takes at least these many samples: two
# msd600 passes (~20 s each) give a median less exposed to one slow pass.
MIN_PASSES = {"msd600": 2, "small_batch": 1}
MIN_CLI_FLOWS = 3
INPROCESS_FLOWS = 3
SETUP_REPEATS = {"msd600": 15, "small_batch": 15, "cli_stokes15": 3}
PROBE_REPEATS = 3
CLI_TIMEOUT_S = 150


class OperationLog:
    """Counts operations and keeps the reason of every failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def _digits(ratio: float) -> float:
    """-log10 of a relative error, capped at machine precision."""
    return float(-np.log10(max(ratio, EPS)))


def _grid() -> np.ndarray:
    count = int(round(HORIZON / STEP))
    return np.linspace(0.0, count * STEP, count + 1)


# ---------------------------------------------------------------------------
# in-process pipeline
# ---------------------------------------------------------------------------


@dataclass
class Case:
    label: str
    system: object
    truth: tuple[int, int, int]
    signal: object
    grid: np.ndarray
    reference: bool = False


def illustrative_case() -> Case:
    return Case("illustrative", qobt.gen_illustrative(), ILLUSTRATIVE_TRUTH,
                qobt.parse_signal(SIGNAL_1), _grid(), reference=True)


def build_cases(workload: str, seed: int) -> list[Case]:
    """The workload's systems; only small_batch depends on the seed."""
    grid = _grid()
    if workload == "msd600":
        return [Case("msd600", qobt.gen_msd(600), MSD_TRUTH, qobt.parse_signal(SIGNAL_1), grid)]
    cases = [illustrative_case()]
    sig2 = qobt.parse_signal(SIGNAL_2)
    for s in np.random.default_rng(seed).integers(0, 2**31 - 1, N_RANDOM):
        system, _ = qobt.gen_random_wcf(*RANDOM_TRUTH, int(s), m=2, p=2, with_C=True)
        cases.append(Case(f"random_wcf[{int(s)}]", system, RANDOM_TRUTH, sig2, grid))
    return cases


def simulate_kwargs() -> dict:
    """Exact stepping while ``simulate`` still takes a method; never the rk4 default."""
    return {"method": "expm"} if "method" in inspect.signature(qobt.simulate).parameters else {}


@dataclass
class Outcome:
    case: Case
    reduce_s: float = 0.0
    certify_s: float = 0.0
    wcf: object = None
    grams: object = None
    rom: object = None
    y_max: float = 0.0
    err: object = None
    report: object = None
    error: str | None = None


@contextmanager
def gramian_halves_traced(tracer):
    """Give the two public halves of ``compute_gramians`` their own spans.

    ``compute_gramians`` looks both halves up in its module when called, so
    wrapping the module attributes splits its time without changing the
    call the untraced run makes.  The originals are restored on exit.
    """
    mod = qobt.gramians
    saved = {name: getattr(mod, name, None)
             for name in ("controllability_gramians", "observability_gramians")}

    def wrap(span_name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return traced

    try:
        for name, fn in saved.items():
            if fn is not None:
                setattr(mod, name, wrap("gramians." + name.split("_")[0], fn))
        yield
    finally:
        for name, fn in saved.items():
            if fn is not None:
                setattr(mod, name, fn)


def run_pass(cases: list[Case], tracer, sim_kw: dict) -> list[Outcome]:
    """One pass: every case reduced, then certified by simulation and the bound."""
    outcomes = []
    with tracer.span("bench.pass"):
        for case in cases:
            o = Outcome(case)
            outcomes.append(o)
            try:
                t0 = perf_counter()
                with tracer.span("spectral.separate"):
                    o.wcf = qobt.separate(case.system)
                with tracer.span("gramians.compute"):
                    o.grams = qobt.compute_gramians(case.system, o.wcf)
                with tracer.span("reduce.balance"):
                    o.rom = qobt.balance_and_truncate(case.system, o.wcf, o.grams,
                                                      tol_sigma_rel=TOL_SIGMA_REL)
                t1 = perf_counter()
                with tracer.span("simulate.full"):
                    y = qobt.simulate(case.system, o.wcf, case.signal, case.grid, **sim_kw)
                with tracer.span("simulate.rom"):
                    yh = qobt.simulate(o.rom.system, o.rom.to_decomposition(), case.signal,
                                       case.grid, **sim_kw)
                with tracer.span("simulate.output_error"):
                    o.err = qobt.output_error(y, yh)
                with tracer.span("bound.error_bound"):
                    o.report = qobt.error_bound(case.system, o.wcf, o.rom, case.signal,
                                                horizon=HORIZON, grams=o.grams)
                t2 = perf_counter()
            except Exception:  # one failed system must not stop the run
                o.error = traceback.format_exc(limit=3)
                continue
            o.reduce_s, o.certify_s = t1 - t0, t2 - t1
            o.y_max = float(np.abs(y.y).max())
    return outcomes


def check_outcome(o: Outcome) -> tuple[list[str], dict]:
    """Correctness gate of one system, and its accuracy record."""
    if o.error is not None:
        return [f"raised {o.error.strip().splitlines()[-1]}"], {"label": o.case.label,
                                                                "error": o.error}
    problems = []
    w, g, rom, rep = o.wcf, o.grams, o.rom, o.report
    resid_wcf = max(w.resid_E, w.resid_A)
    if not resid_wcf <= WCF_RESID_TOL:
        problems.append(f"reconstruction residual {resid_wcf:.3e}")
    if (w.n_f, w.n_inf, w.nu) != o.case.truth:
        problems.append(f"(n_f, n_inf, nu) = {(w.n_f, w.n_inf, w.nu)}, expected {o.case.truth}")
    eq = equation_residuals(o.case.system, w, g)
    bad = {k: v for k, v in eq.items() if not v <= EQUATION_RESID_TOL}
    if bad:
        problems.append(f"equation residuals {bad}")
    if not o.err.linf <= rep.bound_total:
        problems.append(f"err.linf {o.err.linf:.3e} > bound {rep.bound_total:.3e}")
    if o.case.reference:
        ref = qobt.bench.illustrative_reference_gramians()
        blocks = {"P1": g.P_p[:2, :2], "P2": g.P_i[2:, 2:], "Q11": g.Q_pp[:2, :2],
                  "Q21": g.Q_ip[:2, :2], "Q12": g.Q_pi[2:, 2:], "Q22": g.Q_ii[2:, 2:]}
        for name, block in blocks.items():
            dev = float(np.abs(block - ref[name]).max())
            if not dev <= REFERENCE_TOL:
                problems.append(f"reference Gramian {name} off by {dev:.3e}")
    sigma = rom.sigma
    record = {
        "label": o.case.label, "n": o.case.system.n,
        "n_f": w.n_f, "n_inf": w.n_inf, "nu": w.nu, "r_p": rom.r_p, "r_i": rom.r_i,
        "sigma_rel": (sigma[:20] / sigma[0]).tolist() if sigma.size and sigma[0] > 0 else [],
        "err_linf": o.err.linf, "y_max": o.y_max, "bound_total": rep.bound_total,
        "bound_terms": {
            "proper_proper": rep.bound_pp, "improper_proper": rep.bound_ip,
            "linear": rep.bound_linear,
            "outputs": [{"T_pp": t.T_pp, "T_ip": t.T_ip} for t in rep.per_output],
        },
        "cond_W": w.cond_W, "cond_T": w.cond_T,
        "resid_E": w.resid_E, "resid_A": w.resid_A,
        "equation_resid_max": max(eq.values()),
        "warnings": list(w.warnings) + list(rom.warnings),
        "redecoupled": any("re-decoupled" in x for x in rom.warnings),
        "rom_err_digits": _digits(o.err.linf / o.y_max if o.y_max > 0 else o.err.linf),
        "resid_digits": _digits(max(resid_wcf, max(eq.values()))),
    }
    return problems, record


def run_passes(cases, seconds, min_passes, tracer, null_tracer, sim_kw, log):
    """Passes until ``seconds`` have gone; a traced run alternates untraced and traced.

    A traced run takes one untraced and one traced pass at least.  Returns
    the pipeline time of each untraced and each traced pass, and the
    outcomes and records of the last pass.  Checks run between passes,
    outside every timed span.
    """
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    if tracer.enabled:
        min_passes = 2
    i = 0
    while i < min_passes or perf_counter() < deadline:
        on = tracer.enabled and i % 2 == 1
        if on:
            with gramian_halves_traced(tracer):
                outcomes = run_pass(cases, tracer, sim_kw)
        else:
            outcomes = run_pass(cases, null_tracer, sim_kw)
        (traced if on else untraced).append(
            (sum(o.reduce_s for o in outcomes), sum(o.certify_s for o in outcomes)))
        records = []
        for o in outcomes:
            problems, record = check_outcome(o)
            log.record(o.case.label, problems)
            records.append(record)
        i += 1
    return untraced, traced, outcomes, records


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


class Cli:
    """Runs ``python -m qobt.cli`` from the checkout's sources, one process at a time."""

    def __init__(self, src: Path):
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")

    def run(self, args: list[str], cwd: Path, module: bool = True):
        cmd = [sys.executable, "-m", "qobt.cli", *args] if module else [sys.executable, *args]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None, perf_counter() - t0
        return proc, perf_counter() - t0

    def method_args(self, cwd: Path) -> list[str]:
        """``--method expm`` while ``qobt simulate`` still offers it; never rk4."""
        proc, _ = self.run(["simulate", "--help"], cwd)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("qobt simulate --help failed")
        return ["--method", "expm"] if "--method" in proc.stdout and "expm" in proc.stdout else []


def flow_args(manifest: str, signal: str, method: list[str]) -> dict[str, list[str]]:
    rom = "rom/system.manifest"
    span = ["--signal", signal, "--horizon", f"{HORIZON:g}"]
    return {
        "hsv": ["hsv", "--manifest", manifest, "--out", "hsv.csv"],
        "reduce": ["reduce", "--manifest", manifest, "--tol", f"{TOL_SIGMA_REL:g}", "--out", "rom"],
        "simulate": ["simulate", "--manifest", manifest, "--rom", rom, *span,
                     "--step", f"{STEP:g}", *method, "--out", "traj.csv"],
        "bound": ["bound", "--manifest", manifest, "--rom", rom, *span, "--out", "bound.txt"],
        "verify": ["verify", "--manifest", manifest],
    }


@dataclass
class Flow:
    times: dict[str, float] = field(default_factory=dict)
    procs: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.times.values())


def run_flow(cli: Cli, args: dict, flow_dir: Path, tracer) -> Flow:
    flow_dir.mkdir(parents=True)
    flow = Flow()
    with tracer.span("bench.flow"):
        for sub in FLOW:
            with tracer.span(f"cli.{sub}"):
                flow.procs[sub], flow.times[sub] = cli.run(args[sub], flow_dir)
    return flow


_VERIFY_LINE = re.compile(r"^(ok |FAIL)\s+(.+?)\s+(\S+) \(tol \S+\)$")
_DIMENSIONS = re.compile(r"n_f=(\d+), n_inf=(\d+), nu=(\d+)")


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {k.strip(): v.strip() for k, v in pairs}


def flow_outputs(flow: Flow, flow_dir: Path) -> dict[str, tuple[str, bytes]]:
    """Every output of a flow by name, with the subcommand that wrote it."""
    out = {}
    for name, sub in (("hsv.csv", "hsv"), ("traj.csv", "simulate"), ("bound.txt", "bound")):
        path = flow_dir / name
        out[name] = (sub, path.read_bytes() if path.is_file() else b"")
    rom = flow_dir / "rom"
    for path in sorted(rom.iterdir()) if rom.is_dir() else ():
        out[f"rom/{path.name}"] = ("reduce", path.read_bytes())
    proc = flow.procs.get("verify")
    out["verify stdout"] = ("verify", proc.stdout.encode() if proc else b"")
    return out


def check_flow(flow: Flow, flow_dir: Path, truth,
               reference: bool) -> tuple[dict[str, list[str]], dict]:
    """Problems per subcommand, and the accuracy record, of one CLI flow."""
    problems: dict[str, list[str]] = {sub: [] for sub in FLOW}
    for sub, proc in flow.procs.items():
        if proc is None:
            problems[sub].append(f"timed out after {CLI_TIMEOUT_S} s")
        elif proc.returncode != 0:
            problems[sub].append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    record: dict = {"label": flow_dir.name}
    try:
        record.update(_flow_accuracy(flow, flow_dir, truth, reference, problems))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems["verify"].append(f"unreadable output: {exc!r}")
    return problems, record


def compare_outputs(first: dict, outputs: dict, problems: dict[str, list[str]]) -> None:
    """Blame each output that is not byte-identical to the run's first flow on its writer."""
    for name in sorted(set(first) | set(outputs)):
        if first.get(name) != outputs.get(name):
            sub = (outputs.get(name) or first[name])[0]
            problems[sub].append(f"{name} differs from the run's first flow")


def _flow_accuracy(flow, flow_dir, truth, reference, problems) -> dict:
    verify = flow.procs["verify"].stdout if flow.procs.get("verify") else ""
    if "all checks passed" not in verify:
        problems["verify"].append("verify did not print 'all checks passed'")
    values = {}
    for line in verify.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            values[m.group(2)] = float(m.group(3))
    dims = _DIMENSIONS.search(verify)
    dims = tuple(int(x) for x in dims.groups()) if dims else None
    if dims != truth:
        problems["verify"].append(f"(n_f, n_inf, nu) = {dims}, expected {truth}")
    resid_wcf = max(values["reconstruction residual E"], values["reconstruction residual A"])
    if not resid_wcf <= WCF_RESID_TOL:
        problems["verify"].append(f"reconstruction residual {resid_wcf:.3e}")
    eq = {k: v for k, v in values.items() if k.startswith("gramian ")}
    if not eq or not max(eq.values()) <= EQUATION_RESID_TOL:
        problems["verify"].append(f"equation residuals {eq}")
    if reference:
        refs = {k: v for k, v in values.items() if k.startswith("reference ")}
        if len(refs) != 6 or not max(refs.values()) <= REFERENCE_TOL:
            problems["verify"].append(f"reference Gramians {refs}")

    data = np.loadtxt(flow_dir / "traj.csv", delimiter=",", skiprows=2, ndmin=2)
    p = (data.shape[1] - 2) // 2
    err_linf = float(data[:, -1].max())
    y_max = float(np.abs(data[:, 1 : 1 + p]).max())
    report = _key_values((flow_dir / "bound.txt").read_text())
    bound_total = float(report["bound.total"])
    if not err_linf <= bound_total:
        problems["bound"].append(f"err.linf {err_linf:.3e} > bound {bound_total:.3e}")
    rom = _key_values((flow_dir / "rom" / "system.manifest").read_text())
    sigma = [float(line.split(",")[2]) for line in (flow_dir / "hsv.csv").read_text().splitlines()
             if line.startswith("sigma,")]
    reduce_stderr = flow.procs["reduce"].stderr if flow.procs.get("reduce") else ""
    return {
        "n_f": dims[0] if dims else None, "n_inf": dims[1] if dims else None,
        "nu": dims[2] if dims else None,
        "r_p": int(rom["x.r_p"]), "r_i": int(rom["x.r_i"]),
        "sigma_rel": [s / sigma[0] for s in sigma[:20]] if sigma and sigma[0] > 0 else [],
        "err_linf": err_linf, "y_max": y_max, "bound_total": bound_total,
        "bound_terms": {k: v for k, v in report.items() if k.startswith(("bound.", "output"))},
        "cond_W": None, "cond_T": None,
        "resid_E": values["reconstruction residual E"],
        "resid_A": values["reconstruction residual A"],
        "equation_resid_max": max(eq.values()),
        "warnings": [line[len("warning: "):] for line in reduce_stderr.splitlines()
                     if line.startswith("warning: ")],
        "rom_err_digits": _digits(err_linf / y_max if y_max > 0 else err_linf),
        "resid_digits": _digits(max(resid_wcf, max(eq.values()))),
    }


def run_flows(cli, args, work: Path, truth, reference: bool, tracer, null_tracer, log,
              seconds: float, minimum: int, alternate: bool):
    """CLI flows until ``seconds`` have gone and at least ``minimum`` ran.

    Each flow is checked right after it ends.  With ``alternate`` a traced
    run interleaves untraced and traced flows, for the overhead; otherwise
    every flow is traced when tracing is on.  Returns the untraced flows,
    the traced flows and one record per flow.
    """
    untraced, traced, records = [], [], []
    first = None
    deadline = perf_counter() + seconds
    i = 0
    while i < minimum or perf_counter() < deadline:
        on = tracer.enabled and (i % 2 == 1 or not alternate)
        flow_dir = work / f"flow-{i}"
        flow = run_flow(cli, args, flow_dir, tracer if on else null_tracer)
        problems, record = check_flow(flow, flow_dir, truth, reference)
        outputs = flow_outputs(flow, flow_dir)
        if first is None:
            first = outputs
        else:
            compare_outputs(first, outputs, problems)
        for sub in FLOW:
            log.record(f"{flow_dir.name}/{sub}", problems[sub])
        record["exit_nonzero"] = sum(p is None or p.returncode != 0 for p in flow.procs.values())
        (traced if on else untraced).append(flow)
        records.append(record)
        i += 1
    return untraced, traced, records


# ---------------------------------------------------------------------------
# probes of the traced run
# ---------------------------------------------------------------------------


def model_probe(pairs, work: Path, tracer) -> int:
    """Save and load each (system, reduced model) pair; returns the bytes one probe writes."""
    written = 0
    for r in range(PROBE_REPEATS):
        base = work / f"model-{r}"
        with tracer.span("bench.model_probe"):
            for i, (system, rom) in enumerate(pairs):
                with tracer.span("model.save"):
                    man = qobt.save_system(system, base / f"system-{i}")
                    rom_man = qobt.save_reduced(rom, base / f"rom-{i}")
                with tracer.span("model.load"):
                    qobt.load_system(man.path)
                    qobt.load_reduced(rom_man.path)
        written = sum(f.stat().st_size for f in base.rglob("*") if f.is_file())
    return written


def startup_probe(cli: Cli, work: Path, tracer, log) -> None:
    for r in range(PROBE_REPEATS):
        with tracer.span("bench.startup_probe"), tracer.span("cli.startup"):
            proc, _ = cli.run(["-c", "import qobt"], work, module=False)
        ok = proc is not None and proc.returncode == 0
        log.record(f"startup-{r}", [] if ok else ["python -c 'import qobt' failed"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What one run measured: samples per end-to-end metric, and the traced extras."""

    samples: dict[str, list[float]]
    systems: list[dict]
    overhead: tuple[list[float], list[float]] = ((), ())   # untraced, traced unit times
    counts: dict[str, float] = field(default_factory=dict)


def _pass_counts(records: list[dict], samples_per_pass: int) -> dict[str, float]:
    ok = [r for r in records if "error" not in r]
    return {
        "spectral.resid_max": max((max(r["resid_E"], r["resid_A"]) for r in ok), default=0.0),
        "spectral.cond_max": max((max(r["cond_W"], r["cond_T"]) for r in ok), default=0.0),
        "gramians.resid_max": max((r["equation_resid_max"] for r in ok), default=0.0),
        "reduce.r_p": sum(r["r_p"] for r in ok),
        "reduce.r_i": sum(r["r_i"] for r in ok),
        "reduce.redecoupled": sum(r["redecoupled"] for r in ok),
        "simulate.samples": samples_per_pass,
        "bound.unsound": sum(not r["err_linf"] <= r["bound_total"] for r in ok),
    }


def run_inprocess(workload: str, seed: int, seconds: float, tracer, null_tracer,
                  work: Path, cli: Cli, log: OperationLog) -> Run:
    """msd600 or small_batch: pipeline passes, then the CLI flow on the 4x4 system."""
    setup = []
    for r in range(SETUP_REPEATS[workload]):
        with tracer.span("bench.setup"):
            t0 = perf_counter()
            with tracer.span("bench.generate"):
                cases = build_cases(workload, seed)
                # the CLI flow runs on the 4x4 system, written as `qobt generate` does
                man = qobt.save_system(qobt.gen_illustrative(), work / f"setup-{r}",
                                       tags={"generator": "illustrative"})
            setup.append(perf_counter() - t0)

    # first calls load lazy modules; pay that on the 4x4 system, before timing
    run_pass([illustrative_case()], null_tracer, simulate_kwargs())
    untraced, traced, outcomes, records = run_passes(
        cases, seconds, MIN_PASSES[workload], tracer, null_tracer, simulate_kwargs(), log)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    args = flow_args(str(man.path), SIGNAL_1, cli.method_args(work))
    untraced_flows, traced_flows, flow_records = run_flows(
        cli, args, work / "flows", ILLUSTRATIVE_TRUTH, True, tracer, null_tracer, log,
        seconds=0.0, minimum=INPROCESS_FLOWS, alternate=False)
    flows = untraced_flows + traced_flows
    ok = [r for r in records if "error" not in r]
    run = Run(
        samples={
            "setup_s": setup,
            "reduce_s": [u[0] for u in untraced],
            "certify_s": [u[1] for u in untraced],
            "pipeline_s": [sum(u) for u in untraced],
            "cli_flow_s": [f.total for f in flows],
            "peak_rss_mb": [peak_rss_mb],
            "rom_err_digits": [r["rom_err_digits"] for r in ok],
            "resid_digits": [r["resid_digits"] for r in ok],
        },
        systems=records + flow_records[:1],
    )
    if tracer.enabled:
        run.overhead = ([sum(u) for u in untraced], [sum(u) for u in traced])
        run.counts = _pass_counts(records, 2 * sum(c.grid.size for c in cases))
        pairs = [(o.case.system, o.rom) for o in outcomes if o.rom is not None]
        run.counts["model.bytes_written"] = model_probe(pairs, work, tracer)
        run.counts["cli.exit_nonzero"] = sum(r["exit_nonzero"] for r in flow_records)
        startup_probe(cli, work, tracer, log)
    return run


def run_cli(seconds: float, tracer, null_tracer, work: Path, cli: Cli,
            log: OperationLog) -> Run:
    """cli_stokes15.  No input depends on the seed: the Stokes system is fixed."""
    setup, first = [], None
    for r in range(SETUP_REPEATS["cli_stokes15"]):
        with tracer.span("bench.setup"), tracer.span("bench.generate"):
            proc, seconds_taken = cli.run(
                ["generate", "--which", "stokes", "--k", "15", "--out", f"setup-{r}"], work)
        setup.append(seconds_taken)
        files = {f.name: f.read_bytes() for f in sorted((work / f"setup-{r}").glob("*"))}
        problems = [] if proc is not None and proc.returncode == 0 else ["generate failed"]
        if first is not None and files != first:
            problems.append("generated files differ from the first set-up")
        first = first or files
        log.record(f"setup-{r}/generate", problems)
    manifest = work / "setup-0" / "system.manifest"

    args = flow_args(str(manifest), SIGNAL_1, cli.method_args(work))
    untraced, traced, records = run_flows(
        cli, args, work / "flows", STOKES_TRUTH, False, tracer, null_tracer, log,
        seconds=seconds, minimum=MIN_CLI_FLOWS, alternate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ok = [r for r in records if "rom_err_digits" in r]
    run = Run(
        samples={
            "setup_s": setup,
            "reduce_s": [f.times["reduce"] for f in untraced],
            "certify_s": [f.times["simulate"] + f.times["bound"] for f in untraced],
            "pipeline_s": [f.times["reduce"] + f.times["simulate"] + f.times["bound"]
                           for f in untraced],
            "cli_flow_s": [f.total for f in untraced],
            "peak_rss_mb": [peak_rss_mb],
            "rom_err_digits": [r["rom_err_digits"] for r in ok],
            "resid_digits": [r["resid_digits"] for r in ok],
        },
        systems=records[:1],
    )
    if tracer.enabled:
        run.overhead = ([f.total for f in untraced], [f.total for f in traced])
        # what each subcommand does inside its process, once, in this process
        system, _ = qobt.load_system(manifest)
        case = Case("stokes15", system, STOKES_TRUTH, qobt.parse_signal(SIGNAL_1), _grid())
        with gramian_halves_traced(tracer):
            outcomes = run_pass([case], tracer, simulate_kwargs())
        problems, record = check_outcome(outcomes[0])
        log.record("stokes15 in-process probe", problems)
        run.systems.append(record)
        run.counts = _pass_counts([record], 2 * case.grid.size)
        pairs = [(system, outcomes[0].rom)] if outcomes[0].rom is not None else []
        run.counts["model.bytes_written"] = model_probe(pairs, work, tracer)
        run.counts["cli.exit_nonzero"] = sum(r["exit_nonzero"] for r in records)
        startup_probe(cli, work, tracer, log)
    return run
