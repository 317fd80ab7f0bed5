"""quorumlens benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Set-up generates the workload's instances from the seed, writes
them with ``netio.save_network`` and checks that they load back, then runs
one untimed warm-up pass over the command list. Timed passes follow, each
command starting when the previous one returned, until ``--seconds`` have
passed, at least MIN_PASSES passes ran and at least MIN_SAMPLES command
latencies were taken. Every output is then judged by the correctness gate.

Times are scaled to a reference machine speed. The host's speed drifts by
tens of percent over seconds to minutes, so the same code reads very
differently from run to run. A fixed pure-Python calibration loop runs
before each pass and again whenever CAL_EVERY_S has passed since the last
one; the commands in between are scaled by CAL_REF_S over the mean of the
calibrations on either side. A change to quorumlens moves the scaled times;
a change in the host's speed moves the loop as well and cancels out. Raw
times and every calibration are in the provenance.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports
per-layer metrics from spans recorded around calls into each module.
Results, provenance and spans also go to ``.bench_build/perfbench/``.
"""

import os
import sys

# Single-threaded, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QUORUMLENS_THREADS", None)

import argparse
import collections
import contextlib
import dataclasses
import io
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
MIN_SAMPLES = 100
MIN_PASSES = 3
SETUP_REPEATS = 3
CAL_ITERS = 20_000
CAL_REF_S = 0.005  # the calibration loop's usual time where the benchmark was defined
CAL_EVERY_S = 0.25

# Span names whose calls per command are reported as "<name>_per_cmd".
LAYERS = (
    "quorum.qi",
    "quorum.minimal",
    "quorum.slice_add",
    "influence.matrix",
    "influence.graph",
    "influence.limit",
    "netio.load",
    "network.validate",
    "network.fork",
    "bounds.safety",
)


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _calibration_loop() -> int:
    """Fixed pure-Python work of the kind the library does: integer
    arithmetic, bit masks, dict loads and stores."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = table.get(i & 1023, 0) + 1
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now: the least of three runs."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


@dataclasses.dataclass
class Pass:
    results: list  # (exit code or None if it raised, stdout, raw seconds) per command
    scaled: list  # each command's seconds at the reference speed
    calibrations: list

    @property
    def raw_s(self) -> float:
        return sum(t for _, _, t in self.results)

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled)


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, cli, quorum):
        self.cli, self.quorum = cli, quorum

    def execute(self, cmd):
        """Run one command; returns (exit code or None if it raised, stdout, seconds)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if cmd.argv is None:
                    code = self._slice_addition(cmd)
                else:
                    code = self.cli.run(cmd.argv)
        except Exception:  # a crash is a failed command, not a benchmark error
            return None, traceback.format_exc(), time.perf_counter() - start
        return code, out.getvalue(), time.perf_counter() - start

    def _slice_addition(self, cmd) -> int:
        """The incremental check, which has no CLI subcommand. It runs on the
        generated base: the written file loses the base's trust set for the
        added slice (see ``workloads.round_trip``)."""
        net = cmd.inst.net
        node, members = cmd.inst.addition
        report = self.quorum.check_slice_addition(net, node, members, max_nodes=len(net.nodes))
        order = {x: k for k, x in enumerate(net.nodes)}
        witness = None
        if report.witness is not None:
            witness = [sorted(side, key=order.get) for side in report.witness]
        doc = {"holds": report.holds, "witness": witness, "quora_examined": report.quora_examined}
        print(json.dumps(doc, sort_keys=True))
        return 0 if report.holds else 1

    def run_pass(self, cmds, tracer=None) -> Pass:
        results, scaled, segment = [], [], []
        calibrations = [calibrate()]
        since = time.perf_counter()
        for k, cmd in enumerate(cmds):
            if tracer is None:
                results.append(self.execute(cmd))
            else:
                tracer.cmd = cmd.id
                span = tracer.open(tracing.COMMAND)
                results.append(self.execute(cmd))
                tracer.close(span)
            segment.append(results[-1][2])
            if k == len(cmds) - 1 or time.perf_counter() - since >= CAL_EVERY_S:
                calibrations.append(calibrate())
                factor = 2 * CAL_REF_S / (calibrations[-2] + calibrations[-1])
                scaled += [t * factor for t in segment]
                segment = []
                since = time.perf_counter()
        return Pass(results, scaled, calibrations)


def layer_metrics(summary, results) -> dict:
    spans, counters = summary["spans"], summary["counters"]

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    m = {
        "quorum.qi_s": self_s("quorum.qi"),
        "quorum.qi_calls": calls("quorum.qi"),
        "quorum.examined": counters.get("quorum.examined", 0),
        "quorum.minimal_s": self_s("quorum.minimal"),
        "quorum.minimal_calls": calls("quorum.minimal"),
        "quorum.slice_add_s": self_s("quorum.slice_add"),
        "influence.matrix_s": self_s("influence.matrix"),
        "influence.matrix_calls": calls("influence.matrix"),
        "influence.pivot_masks": counters.get("influence.pivot_masks", 0),
        "influence.graph_s": self_s("influence.graph"),
        "influence.graph_calls": calls("influence.graph"),
        "influence.limit_s": self_s("influence.limit"),
        "influence.squarings": counters.get("influence.squarings", 0),
        "netio.load_s": self_s("netio.load"),
        "netio.load_calls": calls("netio.load"),
        "network.validate_s": self_s("network.validate"),
        "network.fork_s": self_s("network.fork"),
        "network.fork_calls": calls("network.fork"),
        "bounds.safety_s": self_s("bounds.safety"),
        "bounds.calls": calls("bounds.safety"),
        "cli.self_s": self_s(tracing.COMMAND),
        "cli.report_bytes": sum(len(text.encode()) for _, text, _ in results),
        "trace.cmd_s": sum(t for _, _, t in results),
    }
    for name in LAYERS:
        used = len(spans[name]["cmds"]) if name in spans else 0
        m[name + "_per_cmd"] = calls(name) / used if used else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quorumlens" / "__init__.py").is_file():
        return _fail(f"no quorumlens sources under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    setup_cal = [calibrate()]
    started = time.perf_counter()
    import quorumlens
    import quorumlens.cli
    import quorumlens.quorum

    import_s = time.perf_counter() - started
    setup_cal.append(calibrate())
    package = Path(quorumlens.__file__).resolve().parent
    if package != (SRC / "quorumlens").resolve():
        return _fail(f"quorumlens resolved to {package}, not this checkout", 2)

    import gate as gate_mod
    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runner = Runner(quorumlens.cli, quorumlens.quorum)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        # -- set-up: generate and write the instances, several times ------
        if tracer:
            tracer.install()
            setup_mark = tracer.mark()
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            insts = workloads.generate(args.workload, args.seed)
            workloads.save(insts, work / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)
            setup_cal.append(calibrate())
        if tracer:
            setup_summary = tracer.summary(setup_mark)
            tracer.remove()
        problems, round_trip_notes = workloads.round_trip(insts)
        if problems:
            return _fail("set-up failure: " + "; ".join(problems), 3)
        cmds = workloads.commands(args.workload, insts)
        warm = runner.run_pass(cmds)
        reference = warm.results
        setup_scale = CAL_REF_S / statistics.median(setup_cal)
        setup_s = (import_s + statistics.median(setup_times)) * setup_scale + warm.scaled_s

        # -- timed passes ---------------------------------------------------
        mismatched = [0] * len(cmds)
        untraced, traced, summaries = [], [], []

        def compare(results):
            for k, ((code, text, _), (ref_code, ref_text, _)) in enumerate(zip(results, reference)):
                if code != ref_code or code is None or (
                    gate_mod.masked(text, cmds[k].json) != gate_mod.masked(ref_text, cmds[k].json)
                ):
                    mismatched[k] += 1

        loop_start = time.perf_counter()
        while True:
            untraced.append(runner.run_pass(cmds))
            compare(untraced[-1].results)
            if tracer:
                tracer.install()
                mark = tracer.mark()
                traced.append(runner.run_pass(cmds, tracer))
                tracer.remove()
                summaries.append(layer_metrics(tracer.summary(mark), traced[-1].results))
                compare(traced[-1].results)
            done = len(untraced) >= (2 if tracer else MIN_PASSES) and time.perf_counter() - loop_start >= args.seconds
            if done and (tracer or len(untraced) * len(cmds) >= MIN_SAMPLES):
                break
        latencies = [t for p in untraced for t in p.scaled]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # -- correctness gate (untimed) -------------------------------------
        gate = gate_mod.Gate()
        judged = []
        verdicts = collections.Counter()
        for cmd, (code, text, _) in zip(cmds, reference):
            judged.append(judge(gate, runner, quorumlens.cli, cmd, code, text))
            verdicts[_verdict(cmd, code, text)] += 1
        passes = len(untraced) + len(traced)
        attempted = passes * len(cmds)
        failed = sum(passes if judged[k] else mismatched[k] for k in range(len(cmds)))
        gate_ok = selftest.run(work / "selftest")
        failures = {cmds[k].id: judged[k] for k in range(len(cmds)) if judged[k]}
        failures.update(
            {cmds[k].id: [f"output changed in {mismatched[k]} passes"] for k in range(len(cmds)) if mismatched[k] and not judged[k]}
        )

        # -- metrics ----------------------------------------------------------
        if tracer:
            metrics = {
                name: statistics.median(s[name] for s in summaries) for name in summaries[0]
            }
            metrics["instances.gen_s"] = _span_self(setup_summary, "instances.gen") / SETUP_REPEATS
            metrics["instances.sat_s"] = _span_self(setup_summary, "instances.sat") / SETUP_REPEATS
            metrics["trace.overhead_s"] = statistics.median(p.scaled_s for p in traced) - statistics.median(
                p.scaled_s for p in untraced
            )
        else:
            ordered = sorted(latencies)
            metrics = {
                "wall_s": statistics.median(p.scaled_s for p in untraced),
                "cmd_ms_p50": statistics.median(ordered) * 1000,
                "cmd_ms_p90": ordered[math.ceil(0.9 * len(ordered)) - 1] * 1000,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "quorumlens": str(package),
            "commands_per_pass": len(cmds),
            "passes": len(untraced),
            "traced_passes": len(traced),
            "samples": len(latencies),
            "verdicts": dict(sorted(verdicts.items())),
            "samples_above_p90": len(latencies) - math.ceil(0.9 * len(latencies)),
            "calibration_ref_s": CAL_REF_S,
            "pass_scaled_s": [p.scaled_s for p in untraced],
            "pass_raw_s": [p.raw_s for p in untraced],
            "pass_calibrations_s": [p.calibrations for p in untraced],
            "setup_calibrations_s": setup_cal,
            "setup_generate_raw_s": setup_times,
            "setup_import_raw_s": import_s,
            "setup_warmup_raw_s": warm.raw_s,
            "setup_warmup_scaled_s": warm.scaled_s,
            "fail_ratio": failed / attempted,
            "gate_selftest": gate_ok,
            "round_trip_notes": round_trip_notes,
            "failures": failures,
            "command_ms": {
                c.id: statistics.median(p.scaled[k] for p in untraced) * 1000 for k, c in enumerate(cmds)
            },
        }
        result = {
            "correct": failed == 0 and gate_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        OUT.mkdir(parents=True, exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        stem.with_suffix(".json").write_text(json.dumps({"provenance": provenance, **result}, indent=1))
        if tracer:
            Path(f"{stem}-spans.json").write_text(
                json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "cmd"], "spans": tracer.spans})
            )
        print("provenance " + json.dumps(provenance, sort_keys=True, default=str))
        print(json.dumps(result))
        return 0
    finally:
        if tracer:
            tracer.remove()
        shutil.rmtree(work, ignore_errors=True)


def _span_self(summary, name: str) -> float:
    return summary["spans"][name]["self_s"] if name in summary["spans"] else 0.0


def _verdict(cmd, code, text) -> str:
    try:
        if cmd.argv is None:
            return "holds" if json.loads(text)["holds"] else "violated"
        if cmd.json:
            return json.loads(text)["verdict"]
    except (ValueError, KeyError, TypeError):
        return "unreadable"
    return text.split("\n", 1)[0].removeprefix("verdict: ") if code is not None else "raised"


def judge(gate, runner, cli, cmd, code, text) -> list[str]:
    """Problems with one reference output; human renderings are compared
    with the rendering of the same command's JSON report."""
    if code is None:
        return [f"raised: {text.strip().splitlines()[-1]}"]
    if cmd.json:
        json_code, json_text = code, text
    else:
        twin = dataclasses.replace(cmd, argv=cmd.argv + ["--json"], json=True)
        json_code, json_text, _ = runner.execute(twin)
        if json_code is None:
            return [f"raised: {json_text.strip().splitlines()[-1]}"]
    try:
        doc = json.loads(json_text)
    except ValueError:
        return ["the report is not JSON"]
    problems = gate.judge(cmd, code, doc)
    if not cmd.json and (json_code != code or text.rstrip("\n") != cli.render_human(doc)):
        problems.append("human rendering differs from the JSON report")
    return problems


if __name__ == "__main__":
    sys.exit(main())
