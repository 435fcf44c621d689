"""Outside-in tracing of a veiltrain session.

The benchmark records spans around calls into the public functions and
methods of each veiltrain layer, without touching the program's source. A
span is (name, start, end, parent, value), kept in memory per thread; the
role that owns the spans is the thread's name in thread mode ("party0",
"party1", "main") or the process role in process mode. Self time is a span's
duration minus the durations of its direct children.

Modules import functions by name (``from .kernels import secure_sigmoid``),
so a function is wrapped in every veiltrain module that holds a reference to
it, under the name the call site gives it: ``training.l2_normalize`` and
``noise.l2_normalize`` are the same function but separate spans.

``FirstRound`` is the only hook installed in untraced runs: it stamps the
start of party 0's first party-to-party round and then removes itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import numbers
import sys
import threading
import time

import numpy as np

# perf_counter is CLOCK_MONOTONIC on Linux, so stamps from the role
# processes of one session compare with the supervisor's.
clock = time.perf_counter


TRACED_MODULES = ("dealer", "engine", "session", "transport", "ingest", "kernels",
                  "training", "noise", "shareio", "harness", "partyproc", "cli")


def _module(name):
    return importlib.import_module(f"veiltrain.{name}")


def _veiltrain_modules():
    return [m for k, m in sorted(sys.modules.items())
            if k.startswith("veiltrain.") and m is not None]


def _public_methods(cls, prefix=""):
    """The plain public methods of cls, inherited ones included."""
    return [a for a in dir(cls) if a.startswith(prefix) and not a.startswith("_")
            and inspect.isfunction(inspect.getattr_static(cls, a))]


class _ThreadState:
    __slots__ = ("role", "spans", "stack", "paths", "suppress")

    def __init__(self, role):
        self.role = role
        self.spans = []      # [name, t0, t1, parent, value]
        self.stack = []
        self.paths = {}      # phase path -> [rounds, bytes]
        self.suppress = 0


class _SpanContext:
    """A span around a context manager (used for protocol phases)."""

    __slots__ = ("tracer", "name", "inner", "rec", "st")

    def __init__(self, tracer, name, inner):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.st = self.tracer._state()
        self.rec = self.tracer._begin(self.st, self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer._end(self.st, self.rec)


class Tracer:
    """Installs span-recording wrappers and collects the spans they record."""

    def __init__(self, role: str | None = None):
        self.role = role
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            name = threading.current_thread().name
            if name == "MainThread":
                name = self.role or "main"
            st = _ThreadState(name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    @staticmethod
    def _begin(st, name):
        rec = [name, clock(), 0.0, st.stack[-1] if st.stack else -1, 0]
        st.spans.append(rec)
        st.stack.append(len(st.spans) - 1)
        return rec

    @staticmethod
    def _end(st, rec):
        st.stack.pop()
        rec[2] = clock()

    def harvest(self) -> dict:
        """Spans and phase paths recorded since the last harvest, by role.

        Call between sessions, when no traced call is in progress."""
        with self._lock:
            states, self._states = self._states, []
        self._local = threading.local()
        out = {}
        for st in states:
            dst = out.setdefault(st.role, {"spans": [], "paths": {}})
            offset = len(dst["spans"])
            dst["spans"].extend([n, a, b, p + offset if p >= 0 else -1, v]
                                for n, a, b, p, v in st.spans)
            for path, (r, nb) in st.paths.items():
                agg = dst["paths"].setdefault(path, [0, 0])
                agg[0] += r
                agg[1] += nb
        return out

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, value=None, suppress_inside=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st.suppress:
                return fn(*args, **kwargs)
            rec = tracer._begin(st, name)
            st.suppress += suppress_inside
            try:
                out = fn(*args, **kwargs)
            finally:
                st.suppress -= suppress_inside
                tracer._end(st, rec)
            if value is not None:
                rec[4] = value(args, out)
            return out

        return wrapper

    def _exchange_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def exchange(rt, payload):
            st = tracer._state()
            if st.suppress:
                return fn(rt, payload)
            ch = rt.channel
            before = ch.bytes_sent + ch.bytes_received
            rec = tracer._begin(st, "session.exchange")
            try:
                out = fn(rt, payload)
            finally:
                tracer._end(st, rec)
            nbytes = ch.bytes_sent + ch.bytes_received - before
            rec[4] = nbytes
            path = "/".join(rt.transcript.phase_stack[1:]) or "top"
            agg = st.paths.get(path)
            if agg is None:
                st.paths[path] = [1, nbytes]
            else:
                agg[0] += 1
                agg[1] += nbytes
            return out

        return exchange

    def _phase_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def phase(rt, name):
            inner = fn(rt, name)
            if tracer._state().suppress:
                return inner
            return _SpanContext(tracer, "phase." + name, inner)

        return phase

    def _patch(self, owner, attr, new):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module: str, attr: str, name: str, sites=None, **kw):
        """Wrap a module-level function at every module global bound to it.

        ``sites`` gives the reference held by another module its own span
        name, as in ``{"noise": "noise.normalize"}``."""
        sites = sites or {}
        fn = getattr(_module(module), attr)
        for mod in _veiltrain_modules():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    short = mod.__name__.split(".", 1)[1]
                    self._patch(mod, key, self._wrap(sites.get(short, name), fn, **kw))

    def _patch_method(self, cls, attr, name, **kw):
        self._patch(cls, attr, self._wrap(name, getattr(cls, attr), **kw))

    def install(self):
        """Wrap every traced layer boundary. Undo with ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in TRACED_MODULES:
            _module(name)
        dealer, engine, session = _module("dealer"), _module("engine"), _module("session")
        transport, partyproc = _module("transport"), _module("partyproc")

        def size(_args, out):
            return int(np.size(out))

        def count(args, _out):
            n = args[-1]
            return int(n) if isinstance(n, numbers.Integral) else 0

        def items(_args, out):
            return int(sum(out.values()))

        # setup: ingest, dry-run provisioning (nothing inside it is traced)
        self._patch_function("ingest", "ingest_partitions", "ingest")
        self._patch_function("engine", "estimate_counts", "engine.dry_run",
                             suppress_inside=True)
        self._patch_function("dealer", "with_slack", "dealer.provision", value=items)
        for attr in ("write_share_file", "read_share_file",
                     "write_weights_file", "read_weights_file"):
            self._patch_function("shareio", attr, "shareio.io")
        for attr, name in (("provision_from_dealer", "partyproc.provision"),
                           ("serve_dealer", "partyproc.dealer"),
                           ("connect_peer", "partyproc.connect")):
            self._patch_function("partyproc", attr, name)

        # dealer material: every generator and every take_* method of the
        # per-party cursors, so a new material kind is timed as dealer time
        for attr in _public_methods(dealer.MaterialSource):
            self._patch_method(dealer.MaterialSource, attr, "dealer.gen")
        for cls in (dealer.MaterialCursor, partyproc.WireMaterial):
            for attr in _public_methods(cls, "take_"):
                self._patch_method(cls, attr, "dealer." + attr, value=count)

        # every public op of the secure engine, the local linear ones too;
        # ``phase`` only opens a context, which the session's phase spans time
        for attr in _public_methods(engine.MpcEngine):
            if attr != "phase":
                self._patch_method(engine.MpcEngine, attr, "engine." + attr, value=size)

        # session rounds and protocol phases, transport frames
        self._patch(session.PartyRuntime, "exchange",
                    self._exchange_wrapper(session.PartyRuntime.exchange))
        self._patch(session.PartyRuntime, "phase",
                    self._phase_wrapper(session.PartyRuntime.phase))
        for cls in (transport.QueueChannel, transport.SocketChannel):
            self._patch_method(cls, "send_bytes", "transport.send")
            self._patch_method(cls, "recv_bytes", "transport.recv")

        # protocol layers
        for attr, name in (("secure_sigmoid", "kernels.sigmoid"),
                           ("secure_div", "kernels.div"),
                           ("secure_sqrt", "kernels.sqrt"),
                           ("secure_ln", "kernels.ln"),
                           ("secure_sin_cos", "kernels.sin_cos"),
                           ("joint_uniform", "kernels.uniform")):
            self._patch_function("kernels", attr, name)
        self._patch_function("training", "l2_normalize", "training.normalize",
                             sites={"noise": "noise.normalize"})
        self._patch_function("training", "forward", "training.forward")
        self._patch_function("training", "backward", "training.backward")
        self._patch_function("noise", "gaussian_vector", "noise.gaussian")
        self._patch_function("noise", "gamma_magnitude", "noise.gamma")
        self._patch_function("noise", "perturb_weights", "noise.perturb")

    def uninstall(self):
        while self._patches:
            owner, attr, had_own, old = self._patches.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


class FirstRound:
    """One-shot stamp of when party 0 enters its first party-to-party round.

    Wraps ``PartyRuntime.exchange`` until party 0's first call, then puts the
    original method back, so the session runs unwrapped from there on."""

    def __init__(self):
        self.stamp = None
        self._lock = threading.Lock()

    def install(self):
        runtime = _module("session").PartyRuntime
        original = runtime.__dict__["exchange"]
        probe = self

        def exchange(rt, payload):
            if rt.party_id == 0:
                with probe._lock:
                    if probe.stamp is None:
                        probe.stamp = clock()
                        runtime.exchange = original
            return original(rt, payload)

        self.stamp = None
        runtime.exchange = exchange
        self._restore = (runtime, original)

    def uninstall(self):
        runtime, original = self._restore
        runtime.exchange = original


_EMPTY = {"spans": [], "paths": {}}


class _RoleView:
    """Per-name totals over one role's spans: calls, inclusive and self
    seconds, recorded values, and the rounds and bytes of the exchanges
    nested under each span."""

    def __init__(self, data):
        spans = data["spans"]
        self.paths = data["paths"]
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        rounds = [0] * n
        nbytes = [0] * n
        self.exchange_ms = []
        for s in spans:
            if s[0] == "session.exchange":
                self.exchange_ms.append(1e3 * (s[2] - s[1]))
                p = s[3]
                while p >= 0:
                    rounds[p] += 1
                    nbytes[p] += s[4]
                    p = spans[p][3]
        self.agg = {}
        for i, s in enumerate(spans):
            a = self.agg.setdefault(s[0], [0, 0.0, 0.0, 0, 0, 0])
            a[0] += 1
            a[1] += dur[i]
            a[2] += dur[i] - child[i]
            a[3] += s[4]
            a[4] += rounds[i]
            a[5] += nbytes[i]

    def _get(self, name, k):
        return self.agg.get(name, (0, 0.0, 0.0, 0, 0, 0))[k]

    def calls(self, name):
        return self._get(name, 0)

    def total(self, name):
        return self._get(name, 1)

    def self_s(self, name):
        return self._get(name, 2)

    def value(self, name):
        return self._get(name, 3)

    def rounds(self, name):
        return self._get(name, 4)

    def mb(self, name):
        return self._get(name, 5) / 1e6

    def self_where(self, pred):
        return sum(a[2] for name, a in self.agg.items() if pred(name))


ENGINE_OPS = ("mul", "trunc", "bits", "open", "joint_uniform")
KERNELS = ("sigmoid", "div", "sqrt", "ln", "sin_cos", "uniform")
TRAINING = ("normalize", "forward", "backward", "epoch_setup")
NOISE = ("gaussian", "gamma", "perturb")


def _is_dealer(name):
    return name.startswith("dealer.") and name != "dealer.provision"


def _is_engine_op(name):
    return name.startswith("engine.") and name != "engine.dry_run"


def layer_metrics(harvested: dict) -> dict:
    """Per-layer metrics of one traced session, from party 0's point of view.

    Setup spans come from the supervising thread or process ("main") and,
    in process mode, from party 0's own set-up; dealer generation adds the
    dealer role's spans when there is one. Also returns "accounted_s", the
    engine-op self time plus exchange time plus dealer time of party 0."""
    main = _RoleView(harvested.get("main", _EMPTY))
    p0 = _RoleView(harvested.get("party0", _EMPTY))
    dealer = _RoleView(harvested.get("dealer", _EMPTY))
    out = {
        "ingest.s": main.total("ingest"),
        "engine.dry_run_s": main.total("engine.dry_run") + p0.total("engine.dry_run"),
        "dealer.gen_s": p0.self_where(_is_dealer) + dealer.self_where(_is_dealer),
        "dealer.triples": p0.value("dealer.take_triples"),
        "dealer.trunc_pairs": p0.value("dealer.take_trunc"),
        "dealer.bits": p0.value("dealer.take_bits"),
        "dealer.local_bits": p0.value("dealer.take_local_bits"),
    }
    consumed = out["dealer.triples"] + out["dealer.trunc_pairs"] + out["dealer.bits"]
    provisioned = main.value("dealer.provision") + p0.value("dealer.provision")
    out["dealer.provisioned_ratio"] = provisioned / consumed if consumed else 0.0
    for op in ENGINE_OPS:
        out[f"engine.{op}.calls"] = p0.calls("engine." + op)
        out[f"engine.{op}.elems"] = p0.value("engine." + op)
        out[f"engine.{op}.self_s"] = p0.self_s("engine." + op)
    out["engine.local_s"] = p0.self_where(_is_engine_op)
    out["session.exchange_s"] = p0.total("session.exchange")
    ms = p0.exchange_ms or [0.0]
    out["session.round_ms.p50"] = float(np.percentile(ms, 50))
    out["session.round_ms.p99"] = float(np.percentile(ms, 99))
    for path, (rounds, nbytes) in sorted(p0.paths.items()):
        key = path.replace("/", ".")
        out[f"session.{key}.rounds"] = rounds
        out[f"session.{key}.mb"] = nbytes / 1e6
    out["transport.frames"] = p0.calls("transport.send") + p0.calls("transport.recv")
    out["transport.send_s"] = p0.total("transport.send")
    out["transport.recv_wait_s"] = p0.total("transport.recv")
    for k in KERNELS:
        out[f"kernels.{k}.s"] = p0.total("kernels." + k)
        out[f"kernels.{k}.rounds"] = p0.rounds("kernels." + k)
    for layer, names in (("training", TRAINING), ("noise", NOISE)):
        for k in names:
            span = "phase.epoch_setup" if k == "epoch_setup" else f"{layer}.{k}"
            out[f"{layer}.{k}.s"] = p0.total(span)
            out[f"{layer}.{k}.rounds"] = p0.rounds(span)
            out[f"{layer}.{k}.mb"] = p0.mb(span)
    out["partyproc.provision_s"] = p0.total("partyproc.provision")
    out["partyproc.dealer_s"] = dealer.total("partyproc.dealer")
    out["partyproc.connect_s"] = p0.total("partyproc.connect")
    out["shareio.io_s"] = main.total("shareio.io") + p0.total("shareio.io")
    out["accounted_s"] = (out["engine.local_s"] + out["session.exchange_s"]
                          + p0.self_where(_is_dealer))
    return out
