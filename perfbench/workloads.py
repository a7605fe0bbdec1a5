"""The three workloads, their measuring loop and their correctness checks.

Each workload writes its inputs from the seed, is set up, warmed up, then
runs whole rounds of the same operations until the run length is spent.
Correctness checks run after the timed region. See README.md for what each
metric counts.
"""

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from . import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# Fresh-process set-ups per untraced run, before the warm-up and after the
# timed region, so that the median spans the run's changes in host speed.
SETUP_BEFORE, SETUP_AFTER = 3, 4

CHANNELS, TIME_STEPS = 22, 1000
TRAIN_PER_CLASS = 4  # 16 trials: one batch of 16 per epoch, 32 after S&R
TRAIN_BATCH = 16
HELDOUT_PER_CLASS = 16  # 64 trials: one eval batch of 64
EVAL_BATCH = 64
DECODES_PER_ROUND = 16
MINI_CHUNK = 48  # least scalars per gradient-check round

EPS32 = float(np.finfo(np.float32).eps)
LOGIT_TOL = 256 * EPS32  # relative to max(1, max |logit|)
TOPK_MARGIN = 1e-5  # relative top-k gap below which float32 may keep other entries
REFERENCE_TRIALS = 3
DIRECTIONAL_TOL = 1e-6
# Inputs the architecture makes structurally zero in model-mini: BN shifts
# cancelled by the next training-mode BN, and the dense main branch's
# sparsity-mixing scalars.
STRUCTURAL_ZEROS = {f"branch{i}.bn_temporal.beta" for i in range(1, 5)} | {
    "branch1.attention.alpha",
    "branch1.attention.beta",
}


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return np.array([ru.ru_utime, ru.ru_stime, ru.ru_minflt], dtype=np.float64)


class Window:
    """What one measured stretch of whole rounds did."""

    def __init__(self):
        self.rounds = 0
        self.units = 0  # steps, eval batches or loss evaluations
        self.items = 0  # trials trained, trials decoded or loss evaluations
        self.busy_s = 0.0  # time in the calls that throughput counts
        self.samples = []  # latency samples, seconds
        self.rusage = np.zeros(3)  # user s, sys s, minor faults over the unit work
        self.seconds = 0.0


def measure(workload, seconds):
    win = Window()
    start = time.perf_counter()
    while win.rounds == 0 or time.perf_counter() - start < seconds:
        workload.round(win)
        win.rounds += 1
    win.seconds = time.perf_counter() - start
    return win


class Workload:
    """Defaults shared by the workloads."""

    exclude_under = None  # span name whose nested spans the per-layer figures leave out

    def instrument(self, tracer):
        """Wrap the workload's own calls in spans (tracer=None unwraps)."""

    def traced_extras(self):
        """Once-per-run calls to trace beside the rounds."""

    def attempted(self, win):
        return win.units

    def end_to_end(self, win):
        return {
            "throughput": win.items / win.busy_s,
            "latency_ms": 1e3 * statistics.median(win.samples),
        }


class PaperTrain(Workload):
    """train_run on paper-shaped data: default ModelConfig, float32, S&R on."""

    exclude_under = "metrics.evaluate"  # the per-epoch eval is its own metric

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.data_path = os.path.join(work, "train.eegd")
        self._steps = []
        self._step_start = None

    def prepare(self):
        self.x, self.y = inputs.make_trials(self.seed, "train", TRAIN_PER_CLASS, CHANNELS, TIME_STEPS)
        inputs.write_eegd(self.data_path, self.x, self.y)
        return [self.data_path]

    def load(self):
        from csanet import augment, optim, train
        from csanet.config import RunConfig, SplitSpec, TrainConfig

        self.train = train
        self.run_cfg = RunConfig(
            data_path=self.data_path,
            split=SplitSpec(strategy="none"),
            train=TrainConfig(epochs=1, batch_size=TRAIN_BATCH),
            seed=self.seed,
            out_dir=os.path.join(self.work, "run"),
        )

        # Step clock: a step runs from S&R augmentation to the end of the
        # Adam update. Both names are looked up at call time, so a tracer
        # installed later is still called through.
        def step_start(*args, **kwargs):
            self._step_start = (time.perf_counter(), _rusage())
            return augment.sr_augment(*args, **kwargs)

        def step_end(*args, **kwargs):
            out = optim.adam_step(*args, **kwargs)
            t0, ru0 = self._step_start
            self._steps.append((time.perf_counter() - t0, _rusage() - ru0))
            return out

        train.sr_augment = step_start
        train.adam_step = step_end

    def warm_up(self):
        # The first two steps of a process fault in their working set.
        self.run_cfg.train.epochs = 2
        self.train.train_run(self.run_cfg)
        self.run_cfg.train.epochs = 1
        self._steps.clear()

    def round(self, win):
        start = time.perf_counter()
        self.result = self.train.train_run(self.run_cfg)
        win.busy_s += time.perf_counter() - start
        for seconds, ru in self._steps:
            win.samples.append(seconds)
            win.rusage += ru
        win.units += len(self._steps)
        win.items += len(self._steps) * self.result.effective_batch
        self._steps.clear()

    def check(self):
        from csanet.checkpoint import load_checkpoint

        failures = []
        res = self.result
        with open(res.log_path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh if line[:1].isdigit()]
        if len(rows) != res.epochs_run or not all(math.isfinite(float(r[1])) for r in rows):
            failures.append(f"train log has non-finite or missing losses: {rows}")
        _, reloaded = load_checkpoint(res.checkpoint_path)
        x = self.x[:, None]
        if not np.array_equal(reloaded.predict(x), res.model.predict(x)):
            failures.append("reloaded checkpoint predicts differently from the trained model")
        failures += directional_gradient_check(self.seed)
        return failures


def directional_gradient_check(seed):
    """float64 paper-shaped model, B=2, S&R off, dropout replayed: backward's
    grad . d must match the central difference of the loss along d.

    The top-k selection is piecewise constant in the scores, so a step that
    moves a score across a row's selection threshold makes the difference
    quotient meaningless. The masks are recorded, and the step shrinks until
    the loss at both ends kept every mask of the unperturbed point. A pair
    of trials with a near tie closer than the smallest step is replaced by
    the next pair.
    """
    from csanet import attention, ops
    from csanet.autodiff import Tensor, precision
    from csanet.config import ModelConfig
    from csanet.model import CsanetModel

    trials, labels = inputs.make_trials(seed, "gradcheck", 1, CHANNELS, TIME_STEPS)
    with precision("float64"):
        model = CsanetModel(ModelConfig(), rng=inputs.rng_for(seed, "gradcheck-init"))
    params = list(model.parameters())
    direction = inputs.rng_for(seed, "gradcheck-direction")
    d = [direction.standard_normal(p.data.shape) for p in params]
    origin = [p.data for p in params]

    masks = []
    topk_mask = attention.topk_mask

    def recording_topk_mask(scores, keep):
        masks.append(topk_mask(scores, keep))
        return masks[-1]

    def loss(x, y):
        masks.clear()
        with precision("float64"):
            logits = model(x, training=True, rng=inputs.rng_for(seed, "gradcheck-dropout"))
            return ops.cross_entropy(logits, y), list(masks)

    attention.topk_mask = recording_topk_mask
    try:
        for pair in (slice(0, 2), slice(2, 4)):
            x, y = Tensor(trials[pair, None].astype(np.float64)), labels[pair]
            value, base_masks = loss(x, y)
            model.zero_grad()
            value.backward()
            analytic = sum(float((p.grad * di).sum()) for p, di in zip(params, d) if p.grad is not None)
            for eps in (1e-7, 1e-8, 1e-9, 1e-10):
                ends = []
                for sign in (1.0, -1.0):
                    for p, o, di in zip(params, origin, d):
                        p.data = o + sign * eps * di
                    ends.append(loss(x, y))
                for p, o in zip(params, origin):
                    p.data = o
                if all(all(np.array_equal(a, b) for a, b in zip(base_masks, m)) for _, m in ends):
                    numeric = (float(ends[0][0].data) - float(ends[1][0].data)) / (2.0 * eps)
                    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
                    if err > DIRECTIONAL_TOL:
                        return [f"directional derivative {analytic!r} vs central difference {numeric!r} (rel {err:.2e})"]
                    return []
        return ["every step of the directional check moved a top-k selection"]
    finally:
        attention.topk_mask = topk_mask


class PaperEval(Workload):
    """load_checkpoint, then evaluate at batch 64 and B=1 decoding."""

    exclude_under = "bench.decode"  # per-layer figures describe the eval batches

    def __init__(self, seed, work):
        self.seed = seed
        self.data_path = os.path.join(work, "heldout.eegd")
        self.checkpoint_path = os.path.join(work, "model.csan")
        self.next_decode = 0

    def prepare(self):
        self.x, self.y = inputs.make_trials(self.seed, "heldout", HELDOUT_PER_CLASS, CHANNELS, TIME_STEPS)
        inputs.write_eegd(self.data_path, self.x, self.y)
        inputs.make_eval_checkpoint(self.seed, self.checkpoint_path)
        return [self.data_path, self.checkpoint_path]

    def load(self):
        from csanet import checkpoint, data, metrics

        self.metrics = metrics
        self.test = data.read_eegd(self.data_path)
        self.cfg, self.model = checkpoint.load_checkpoint(self.checkpoint_path)
        self.decode = self.model.predict

    def warm_up(self):
        self.metrics.evaluate(self.model, self.test, self.cfg, batch_size=EVAL_BATCH)
        for i in range(4):
            self.decode(self.x[i : i + 1, None])

    def instrument(self, tracer):
        self.decode = tracer.call(self.model.predict, "bench.decode") if tracer else self.model.predict

    def traced_extras(self):
        from csanet import checkpoint, data

        data.read_eegd(self.data_path)
        checkpoint.load_checkpoint(self.checkpoint_path)

    def round(self, win):
        ru = _rusage()
        start = time.perf_counter()
        self.report = self.metrics.evaluate(self.model, self.test, self.cfg, batch_size=EVAL_BATCH)
        win.busy_s += time.perf_counter() - start
        win.rusage += _rusage() - ru
        win.units += -(-len(self.test) // EVAL_BATCH)
        win.items += len(self.test)
        for _ in range(DECODES_PER_ROUND):
            i = self.next_decode % len(self.y)
            self.next_decode += 1
            start = time.perf_counter()
            self.decode(self.x[i : i + 1, None])
            win.samples.append(time.perf_counter() - start)

    def attempted(self, win):
        return win.units + len(win.samples)

    def check(self):
        from csanet.autodiff import Tensor, no_grad

        from . import reference

        failures = []
        x = self.x[:, None]
        with no_grad():
            batch = self.model(Tensor(x), training=False).data
            single = np.concatenate([self.model(Tensor(x[i : i + 1]), training=False).data for i in range(len(x))])

        acc = float(np.sum(np.argmax(batch, axis=1) == self.y)) / len(self.y)
        if self.report.acc != acc:
            failures.append(f"evaluate reported accuracy {self.report.acc!r}, labels give {acc!r}")

        params = {name: p.data for name, p in self.model.named_parameters()}
        params.update(self.model.named_buffers())
        references = {}

        def ref(i):
            if i not in references:
                references[i] = reference.forward(x[i : i + 1], params, self.cfg)
            return references[i]

        def tol(logits):
            return LOGIT_TOL * max(1.0, float(np.abs(logits).max()))

        for i in range(len(x)):
            # A trial whose top-k selection nearly ties may keep other
            # entries at another batch size; only those may differ.
            if np.abs(single[i] - batch[i]).max() > tol(batch[i]) and ref(i)[1] >= TOPK_MARGIN:
                failures.append(f"trial {i}: B=1 logits {single[i]} differ from its row {batch[i]} in the batch of 64")

        checked = 0
        for i in range(len(x)):
            logits, gap = ref(i)
            if gap < TOPK_MARGIN:
                continue
            err = np.abs(logits[0] - batch[i]).max()
            if err > tol(logits) or np.argmax(logits[0]) != np.argmax(batch[i]):
                failures.append(f"trial {i}: logits {batch[i]} differ from the float64 reference {logits[0]} by {err:.2e}")
            checked += 1
            if checked == REFERENCE_TRIALS:
                break
        if checked < REFERENCE_TRIALS:
            failures.append(f"only {checked} trials have an unambiguous top-k selection")
        return failures


class GradCheck(Workload):
    """csanet's model-mini finite-difference check, a chunk of parameters per round."""

    def __init__(self, seed, work):
        self.seed = seed
        self.reports = []

    def prepare(self):
        return []

    def load(self):
        from csanet import ops
        from csanet.gradcheck import grad_check

        self.grad_check = grad_check
        self.model, x, y = inputs.mini_check_inputs()
        self.evals = 0

        def loss(*_):
            self.evals += 1
            return ops.cross_entropy(self.model(x, training=True), y)

        self.raw_loss = self.loss = loss
        params = list(self.model.parameters())
        self.chunks = [[]]
        for p in params:
            if sum(q.data.size for q in self.chunks[-1]) >= MINI_CHUNK:
                self.chunks.append([])
            self.chunks[-1].append(p)
        self.next_chunk = self.seed % len(self.chunks)

    def warm_up(self):
        for _ in range(5):
            self.loss().backward()
        self.model.zero_grad()

    def instrument(self, tracer):
        self.loss = tracer.call(self.raw_loss, "gradcheck.loss_eval") if tracer else self.raw_loss

    def round(self, win):
        chunk = self.chunks[self.next_chunk % len(self.chunks)]
        self.next_chunk += 1
        evals = self.evals
        ru = _rusage()
        start = time.perf_counter()
        report = self.grad_check(self.loss, chunk)
        seconds = time.perf_counter() - start
        win.rusage += _rusage() - ru
        evals = self.evals - evals
        report.labels = [p.name for p in chunk]
        self.reports.append(report)
        win.busy_s += seconds
        win.samples.append(seconds / evals)
        win.units += evals
        win.items += evals

    def check(self):
        failures = []
        for report in self.reports:
            if not report.passed(1e-3):
                worst = max(zip(report.per_input, report.names()))
                failures.append(f"gradient check failed: {worst[1]} at {worst[0]:.2e}")
            unexpected = set(report.structurally_zero_names()) - STRUCTURAL_ZEROS
            if unexpected:
                failures.append(f"unexpected structurally zero inputs: {sorted(unexpected)}")
        return failures


WORKLOADS = {"paper_train": PaperTrain, "paper_eval": PaperEval, "gradcheck": GradCheck}


def setup_times(name, args, repeats):
    """Seconds of each of `repeats` fresh-process set-ups (see setup_probe.py)."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, *args]
    times = []
    for _ in range(repeats):
        out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def run(name, seed, seconds, traced):
    """One benchmark run; returns (result dict, failure messages)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[name](seed, work)
        probe_args = workload.prepare()
        setups = [] if traced else setup_times(name, probe_args, SETUP_BEFORE)
        workload.load()
        workload.warm_up()
        if not traced:
            win = measure(workload, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups += setup_times(name, probe_args, SETUP_AFTER)
            failures = workload.check()
            metrics = dict(workload.end_to_end(win), setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)
            attempted = workload.attempted(win)
        else:
            from . import trace

            plain = measure(workload, seconds / 2.0)
            tracer = trace.Tracer()
            tracer.install()
            workload.instrument(tracer)
            workload.traced_extras()
            spans = measure(workload, seconds / 2.0)
            workload.instrument(None)
            tracer.uninstall()
            metrics = trace.layer_metrics(tracer.summary(workload.exclude_under), spans, plain)
            tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.npz"))
            failures = workload.check()
            attempted = workload.attempted(plain) + workload.attempted(spans)
        return {"correct": not failures, "attempted": attempted, "failed": 0, "metrics": metrics}, failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
