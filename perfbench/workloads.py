"""The benchmark's workloads: inputs from a workload seed, one secure
session per call, and the correctness gate each session must pass.

Protocol and ring settings are the repository DEFAULTS (40 epochs, alpha
0.1, lambda 1, momentum 0.9, epsilon 1, 64-bit ring with 20 fractional
bits, protocol seed 1). Only the data comes from the workload seed: a run
draws ``CASES`` datasets from it and its sessions cycle through them.

Every session's result is checked against a clear-text mirror computed
before timing starts (the ``PlainEngine`` twin of the protocol, which the
joint computation reproduces bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from veiltrain import cleartext, datasets, dealer, engine, harness, ingest, noise
from veiltrain.dealer import MaterialSource
from veiltrain.fixedpoint import decode, encode
from veiltrain.shareio import DEFAULTS, public_section, ring_from_config

CFG = dict(DEFAULTS)
CASES = 16
TEST_ROWS = 1000
OWNERS = 2


class GateFailure(Exception):
    """A session's output failed the benchmark's correctness gate."""


class UnknownMaterial(Exception):
    """The dry run asked for a material kind the dealer has no size for."""


def material_item_bytes(kind: str, ring) -> int:
    """Bytes one party receives per item of a material kind.

    A party's half of an item is the dealer's split-stream words for it
    (``dealer._SPLIT_WORDS``), each one ring element on the wire."""
    words = dealer._SPLIT_WORDS.get(kind)
    if words is None:
        raise UnknownMaterial(f"material kind {kind!r} has no per-item size in "
                              "veiltrain.dealer._SPLIT_WORDS")
    return words * np.dtype(ring.udtype).itemsize


@dataclass
class Case:
    """One dataset of a run and the outputs a correct session produces."""

    parts: list
    X_test: np.ndarray
    t_test: np.ndarray
    w_public: np.ndarray | None     # noise-only workloads perturb these
    mirror_w: np.ndarray = None     # pre-noise weights (ring elements)
    mirror_noisy: np.ndarray = None
    accuracy: float = 0.0


@dataclass
class Workload:
    name: str
    n: int
    m: int
    draws: int
    kind: str            # "train" (full pipeline) or "noise" (perturb only)
    executor: str        # "thread" or "process"
    why: str

    @property
    def ring(self):
        return ring_from_config(CFG)

    @property
    def dp(self):
        return noise.DpParams(epsilon=CFG["epsilon"], lambda_reg=CFG["lambda_reg"],
                              n=self.n, d=self.m)

    # -- inputs ----------------------------------------------------------

    def cases(self, seed: int) -> list:
        """CASES datasets drawn from the workload seed, with their mirrors."""
        out = []
        for k in range(CASES):
            data_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            X, t = datasets.synth_data(self.n + TEST_ROWS, self.m, seed=data_seed,
                                       separability=CFG["separability"])
            Xtr, ttr = X[:self.n], t[:self.n]
            parts = datasets.partition(Xtr, ttr, datasets.make_plan(
                "horizontal", OWNERS, self.n, self.m))
            w_public = None
            if self.kind == "noise":
                tc = harness.training_config(CFG)
                w_public = cleartext.train_lr_clear(Xtr, ttr, tc, seed=CFG["seed"]).weights
            case = Case(parts, X[self.n:], t[self.n:], w_public)
            self._mirror(case)
            out.append(case)
        return out

    def _mirror(self, case: Case):
        ring = self.ring
        eng = engine.PlainEngine(MaterialSource(CFG["seed"], ring), ring)
        if self.kind == "train":
            (X0, t0), (X1, t1) = ingest.ingest_partitions(case.parts, "horizontal", ring,
                                                          CFG["seed"])
            with np.errstate(over="ignore"):
                X, t = X0 + X1, t0 + t1
            out = harness.party_pipeline(eng, X, t, harness.training_config(CFG),
                                         self.dp, self.draws)
            case.mirror_w = out["w_share"]
            noisy = out["noisy"]
        else:
            case.mirror_w = encode(case.w_public, ring)
            noisy = self._perturb(eng, case.mirror_w)
        case.mirror_noisy = decode(noisy, ring)
        case.accuracy = accuracy(case.mirror_noisy, case.X_test, case.t_test)

    def _perturb(self, eng, w_raw):
        out = noise.perturb_weights(eng, eng.from_public(w_raw), self.dp, batch=(self.draws,))
        return eng.open(out)

    def dealer_bytes(self) -> int:
        """Material provisioned to one party, from the exact dry run plus slack."""
        if self.kind == "train":
            counts = harness.pipeline_counts(self.n, self.m, CFG, self.draws)
        else:
            counts = self._noise_counts()
        ring = self.ring
        return sum(material_item_bytes(key[0], ring) * v for key, v in counts.items())

    def _noise_counts(self):
        ring = self.ring
        w_raw = np.zeros(self.m, dtype=ring.udtype)
        counts = engine.estimate_counts(lambda eng: self._perturb(eng, w_raw), 0, ring)
        return dealer.with_slack(counts, CFG["provision_slack"])

    # -- one session -----------------------------------------------------

    def session(self, case: Case, workdir: str) -> dict:
        """Run one secure session; returns pre-noise weights (ring elements),
        opened noisy models, and party 0's round and byte counts."""
        if self.kind == "noise":
            return self._noise_session(case)
        if self.executor == "thread":
            return harness.run_mpc_threaded(case.parts, "horizontal", CFG, CFG["seed"],
                                            self.draws)
        return harness.run_mpc_process(case.parts, "horizontal", CFG, CFG["seed"],
                                       self.draws, workdir)

    def _noise_session(self, case: Case) -> dict:
        """noise.perturb_weights on publicly encoded weights over the queue
        transport, provisioned the way the harness provisions a session."""
        ring = self.ring
        w_raw = encode(case.w_public, ring)
        counts = self._noise_counts()
        results, engines = engine.run_two_party(
            lambda eng: self._perturb(eng, w_raw), session_seed=CFG["seed"],
            counts=counts, cfg=ring, session_id=CFG["session_id"],
            handshake_public=public_section(CFG))
        tr = engines[0].rt.transcript
        return {"w_raw": w_raw, "noisy_models": decode(results[0], ring),
                "rounds": tr.n_rounds, "bytes": tr.bytes_sent + tr.bytes_received}

    # -- the gate --------------------------------------------------------

    def check(self, case: Case, res: dict) -> float:
        """Raise GateFailure unless the session reproduced the mirror;
        returns the session's noise-law error."""
        if not np.array_equal(res["w_raw"], case.mirror_w):
            raise GateFailure("pre-noise weights differ from the clear-text mirror")
        want = case.mirror_noisy
        if self.executor == "process":
            # noisy.party0.csv carries 10 significant digits
            want = np.vectorize(lambda v: float(f"{v:.10g}"))(want)
        if res["noisy_models"] is None or not np.array_equal(res["noisy_models"], want):
            raise GateFailure("opened noisy models differ from the clear-text mirror")
        err = noise_law_err(res["noisy_models"], decode(res["w_raw"], self.ring), self.dp)
        if err > noise_law_bound(self.dp.d, self.draws):
            raise GateFailure(f"noise law error {err:.4f} beyond "
                              f"{noise_law_bound(self.dp.d, self.draws):.4f}")
        return err


def accuracy(models, X_test, t_test) -> float:
    """Mean held-out accuracy of a batch of models, scored as
    ``datasets.evaluate`` scores one model."""
    Xn = cleartext.normalize_rows(np.asarray(X_test, dtype=np.float64))
    predictions = cleartext.sigmoid(Xn @ np.asarray(models, dtype=np.float64).T) >= 0.5
    return float(np.mean(predictions == (np.asarray(t_test)[:, None] > 0.5)))


def noise_law_err(noisy, w, dp) -> float:
    """|mean ||eta|| / (d c) - 1|: the Gamma(d, c) magnitude has mean d c."""
    eta = np.asarray(noisy) - np.asarray(w)[None, :]
    return abs(float(np.mean(np.linalg.norm(eta, axis=1))) / (dp.d * dp.scale) - 1.0)


def noise_law_bound(d: int, draws: int) -> float:
    """Four standard errors of the mean of draws Gamma(d, 1) / d values."""
    return 4.0 / np.sqrt(d * draws)


WORKLOADS = {
    w.name: w for w in (
        Workload("noise-wide", 2000, 50, 1000, "noise", "thread",
                 "joint noise sampling alone at a 1000-draw batch: ln, sqrt, sin/cos, div "
                 "and uniforms; training changes predict no change here"),
        Workload("deploy-s", 300, 12, 100, "train", "process",
                 "round-bound: 300x12 inputs, 100 draws, as dealer and party processes over "
                 "loopback TCP (5319 rounds, 57.4 MB); the only workload that runs partyproc, "
                 "sockets, share files and provisioning"),
    )
}
