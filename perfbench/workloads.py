"""The four workloads: their input catalogues, what one job calls, and how it
checks what it gets back.

A workload is a list of cases.  One round runs every case once, in an order
the workload seed shuffles, and the seed also picks each job's variant (a
simplex drop-row, an RIP subset size, an abelian group, a frame from a fixed
random pool).  Variants of one case cost about the same, so each case's
median job time, and the mix, are the same under every seed.

Exact outputs are checked byte for byte against sha256 digests recorded from
the reference build (expected.json); float-path reports are checked on their
verdicts, their stated tolerance and recorded values within TOL.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import etfkit as E
from etfkit import fixtures
from etfkit import metrics as etf_metrics

from harness import Checker, Job, report_bytes

TOL = 1e-9


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[Job, Checker, object], None]
    variants: tuple


def _certify(job: Job, check: Checker, frame, key: str | None):
    """certify_etf plus its checks; exact reports must match their digest."""
    cert = job.call(E.certify_etf, frame)
    job.note(path="exact" if cert.exact else "float",
             **({"macs": frame.n * frame.n * frame.m} if cert.exact else {}))
    check.require(cert.passed, f"{key}: ETF certificate failed")
    check.require(cert.tol == TOL, f"{key}: certificate states tol {cert.tol}")
    if cert.exact:
        welch = job.call(etf_metrics.welch_bound_exact, frame.m, frame.n)
        check.require(cert.coherence_exact == welch,
                      f"{key}: coherence {cert.coherence_exact} != Welch bound {welch}")
        if key is not None:
            check.digest(f"{key}/certify_etf", report_bytes(cert))
    return cert


# -- flat_sign_certify ----------------------------------------------------------

FLAT_LADDER = (  # name, design, parameter, jobs per round; from 28x64 to 276x576
    ("aff22", "affine", 2, 2), ("rr8", "round-robin", 8, 3), ("aff23", "affine", 3, 1),
    ("rr16", "round-robin", 16, 2), ("rr24", "round-robin", 24, 1),
)
LINEARITY_MAX_M = 120


def _flat_case(name: str, design_kind: str, param: int) -> Case:
    big_r = 2 ** (param + 1) - 1 if design_kind == "affine" else param - 1

    def run(job: Job, check: Checker, drop: int) -> None:
        if design_kind == "affine":
            design = job.call(E.affine_design, 2, param)
        else:
            design = job.call(E.round_robin_design, param)
        check.require(job.call(E.validate, design).ok, f"{name}: design fails validation")
        check.digest(f"flat/{name}/design", job.call(design.to_json).encode())
        simplex = job.call(E.drop_row_simplex, job.call(E.hadamard, big_r + 1), drop)
        basis = job.call(E.hadamard, design.s)
        flat = job.call(E.kirkman_etf, design, simplex, basis)
        m, n = flat.m, flat.n
        job.note(entries=m * n)
        sparse = job.call(E.steiner_etf, design, simplex)
        key = f"flat/{name}/drop={drop}"

        _certify(job, check, flat, key)
        match = job.call(E.gram_equal, flat, sparse)
        job.note(macs=2 * n * n * m)
        check.require(match.passed and match.exact, f"{key}: Steiner and Kirkman Grams differ")
        check.digest(f"{key}/gram_equal", report_bytes(match))
        check.digest(f"{key}/frame_json", job.call(E.frame_to_json, flat).encode())

        code = job.call(E.frame_to_code, flat)
        text = job.call(code.to_text)
        check.digest(f"{key}/code_text", text.encode())
        parsed = job.call(E.parse_code, text)
        back = job.call(E.code_to_frame, parsed)
        check.require(np.array_equal(back.exact_ints, flat.exact_ints),
                      f"{key}: code -> frame round trip changed the signs")
        grbe = job.call(E.certify_grbe, parsed)
        job.note(pair_bits=parsed.count ** 2 * m // 2)
        check.require(grbe.bound_value == grbe.count and grbe.agrees and grbe.etf_passed,
                      f"{key}: Grey-Rankin equality not certified")
        check.digest(f"{key}/certify_grbe", report_bytes(grbe))
        if m <= LINEARITY_MAX_M:
            check.digest(f"{key}/is_linear", report_bytes(job.call(E.is_linear, parsed)))

    return Case(name, run, tuple(range(big_r + 1)))


def flat_sign_certify(workdir: Path) -> list[Case]:
    """Each round mixes the two large rungs with several lighter jobs, so the
    latency sample spreads over the ladder."""
    return [_flat_case(name, kind, param)
            for name, kind, param, count in FLAT_LADDER for _ in range(count)]


# -- subset_search ----------------------------------------------------------------

RANDOM_POOL = 4  # frames per random shape; the seed picks one per job


def _random_frame_json(m: int, n: int, pool_seed: int) -> str:
    a = np.random.default_rng(pool_seed).standard_normal((m, n))
    a /= np.linalg.norm(a, axis=0)
    doc = {"m": m, "n": n, "scale": None,
           "entries": [[[float(x), 0.0] for x in row] for row in a],
           "provenance": {"construction": "random", "seed": pool_seed}}
    return json.dumps(doc, sort_keys=True)


def _subset_inputs() -> dict[str, str]:
    """Frame documents the subset jobs parse: the design frames with symmetry
    (fig1 and fig2 are also the parents of the Naimark complements) and the
    random pools."""
    def dft_steiner(design, order):
        return E.frame_to_json(E.steiner_etf(design, E.drop_row_simplex(E.dft(order), 0)))

    texts = {
        "fig1": E.frame_to_json(fixtures.fig1()),
        "fig2": E.frame_to_json(fixtures.fig2()),
        "aff31-dft": dft_steiner(E.affine_design(3, 1), 5),
        "rr6-dft": dft_steiner(E.round_robin_design(6), 6),
    }
    for m, n, base in ((5, 24, 100), (4, 30, 200)):
        for i in range(RANDOM_POOL):
            texts[f"rand{m}x{n}-{i}"] = _random_frame_json(m, n, base + i)
    return texts


def _subset_case(name: str, texts: dict, sources: tuple, sizes: tuple,
                 naimark: bool = False) -> Case:
    """spark, rip_delta at the seed's L and steiner_rip_verdict on one frame
    document, or on its Naimark complement."""
    def run(job: Job, check: Checker, variant) -> None:
        source, size = variant
        frame = job.call(E.parse_frame, texts[source])
        if naimark:
            frame = job.call(E.naimark_complement, frame)
        key = f"subset/{source}{'/naimark' if naimark else ''}"
        big_r = frame.provenance.get("r")

        sp = job.call(E.spark, frame)
        check.value(f"{key}/spark", sp.spark)
        if big_r:
            check.require(sp.spark == big_r + 1, f"{key}: spark {sp.spark} != R+1 = {big_r + 1}")
        witness = list(sp.witness or ())
        check.require(len(witness) == sp.spark
                      and np.linalg.matrix_rank(frame.entries[:, witness], tol=1e-6) < sp.spark,
                      f"{key}: spark witness {sp.witness} is not a dependent set")

        rip = job.call(E.rip_delta, frame, size)
        job.note(subsets=rip.subsets)
        check.require(rip.subsets == comb(frame.n, size), f"{key}: RIP enumerated {rip.subsets}")
        check.require(rip.delta == max(abs(1 - rip.min_eig), abs(rip.max_eig - 1)),
                      f"{key}: RIP delta disagrees with its eigenvalue range")
        check.value(f"{key}/rip{size}", rip.delta, TOL)

        verdict = job.call(E.steiner_rip_verdict, frame, 3 if frame.n > 16 else None)
        check.require(verdict.applicable == bool(big_r), f"{key}: Steiner RIP applicability")
        if big_r:
            check.require(verdict.consistent, f"{key}: Steiner RIP verdict inconsistent")
            welch = job.call(E.welch_bound, frame.m, frame.n)
            check.require(all(abs(d - (s - 1) * welch) <= TOL for s, d in verdict.per_l),
                          f"{key}: delta_L != (L-1) mu on a Steiner frame")

    variants = tuple((s, size) for s in sources for size in sizes)
    return Case(name, run, variants)


def subset_search(workdir: Path) -> list[Case]:
    texts = _subset_inputs()
    small = (2, 3)
    parents = ("fig1", "fig2")
    pool = lambda shape: tuple(f"{shape}-{i}" for i in range(RANDOM_POOL))  # noqa: E731
    return [
        # design frames with symmetry
        _subset_case("fig1", texts, ("fig1",), small),
        _subset_case("fig2", texts, ("fig2",), small),
        _subset_case("aff31-dft", texts, ("aff31-dft",), small),
        _subset_case("rr6-dft", texts, ("rr6-dft",), small),
        # no design structure: Naimark complements and random frames
        _subset_case("naimark-a", texts, parents, small, naimark=True),
        _subset_case("naimark-b", texts, parents, small, naimark=True),
        _subset_case("rand5x24-a", texts, pool("rand5x24"), small),
        _subset_case("rand5x24-b", texts, pool("rand5x24"), small),
        _subset_case("rand4x30", texts, pool("rand4x30"), small),
    ]


# -- harmonic_fields ------------------------------------------------------------

# One case per row: q, j, q = p^d, and the abelian groups of order R + 1 the
# seed picks from.  Over GF(2^k) an elementary abelian group makes the whole
# character table +-1 and the job takes the exact path; any other group takes
# the complex float path.  For q = 2 the two paths are separate cases, so
# both run every round and the seed does not shift the mix.
HARMONIC_LADDER = (
    (2, 1, 2, 1, ((2, 2),)),
    (2, 1, 2, 1, ((4,),)),
    (3, 1, 3, 1, ((5,),)),
    (2, 2, 2, 1, ((2, 2, 2),)),
    (2, 2, 2, 1, ((8,), (2, 4))),
    (4, 1, 2, 2, ((6,), (2, 3))),
    (5, 1, 5, 1, ((7,),)),
    (7, 1, 7, 1, ((9,), (3, 3))),
    (8, 1, 2, 3, ((10,), (2, 5))),
    (9, 1, 3, 2, ((11,),)),
    (3, 2, 3, 1, ((14,), (2, 7))),
    (2, 3, 2, 1, ((2, 2, 2, 2),)),
    (2, 3, 2, 1, ((16,), (4, 4), (2, 8), (2, 2, 4))),
    (4, 2, 2, 2, ((22,), (2, 11))),  # 336 x 1408, the ladder top
)
NAIMARK_MAX_N = 256


def _harmonic_case(q: int, j: int, p: int, d: int, groups: tuple) -> Case:
    def run(job: Job, check: Checker, factors: tuple) -> None:
        key = f"harmonic/q{q}j{j}/{'x'.join(map(str, factors))}"
        field = job.call(E.make_field, p, d * (j + 1))
        hyper = job.call(E.hyperplane_kernel, field, q)
        check.require(len(hyper) == q ** j, f"{key}: trace-zero hyperplane has {len(hyper)}")
        group = job.call(E.AbelianGroup, factors)
        dset = job.call(E.mcfarland_set, q, j, group)
        check.digest(f"{key}/mcfarland_set",
                     json.dumps([dset.lam, list(dset.elements)]).encode())

        table = job.call(E.character_table, dset.group)
        frame = job.call(E.harmonic_etf, dset.group, dset)
        rows = list(dset.elements)
        want = table.entries[:, rows].T / np.sqrt(len(rows))
        check.require(float(np.abs(frame.entries - want).max()) <= TOL,
                      f"{key}: frame is not the characters restricted to the difference set")
        exact = table.signs is not None
        check.require(exact == (p == 2 and set(factors) == {2}), f"{key}: arithmetic path")
        cert = _certify(job, check, frame, key if exact else None)
        check.require(cert.exact == exact, f"{key}: certificate path")
        if exact:
            check.digest(f"{key}/frame_json", job.call(E.frame_to_json, frame).encode())
        if frame.n <= NAIMARK_MAX_N:
            comp = job.call(E.naimark_complement, frame)
            _certify(job, check, comp, None)

        _, _, match = job.call(E.mcfarland_as_kirkman, q, j, group)
        check.require(match.entrywise_match and match.gram_match and match.tol == TOL,
                      f"{key}: McFarland and Kirkman constructions disagree")

    name = f"q{q}j{j}" + (f"-{'x'.join(map(str, groups[0]))}" if len(groups) == 1 else "")
    return Case(name, run, groups)


def harmonic_fields(workdir: Path) -> list[Case]:
    return [_harmonic_case(*row) for row in HARMONIC_LADDER]


# -- cli_pipeline ---------------------------------------------------------------

CLI_TIMEOUT_S = 120


class Cli:
    """Runs `python -m etfkit.cli` with src on the path, one process at a time."""

    def __init__(self, src: Path, workdir: Path):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.workdir = workdir

    def run(self, job: Job, check: Checker, key: str, args: list[str], stdin: bytes = b"",
            status: int = 0) -> bytes:
        def proc():
            return subprocess.run([sys.executable, "-m", "etfkit.cli", *args], input=stdin,
                                  capture_output=True, cwd=self.workdir, env=self.env,
                                  timeout=CLI_TIMEOUT_S)

        out = job.call_as(f"cli.{args[0]}", proc)
        job.note(bytes_in=len(stdin), bytes_out=len(out.stdout))
        check.require(out.returncode == status,
                      f"{key}: exit {out.returncode}, wanted {status}: "
                      f"{out.stderr.decode(errors='replace').strip()[-300:]}")
        return out.stdout


def _pipeline_case(cli: Cli, v: int) -> Case:
    def run(job: Job, check: Checker, drop: int) -> None:
        key = f"cli/pipe-rr{v}/drop={drop}"
        design = cli.run(job, check, key, ["design", "round-robin", "--v", str(v)])
        check.digest(f"{key}/design", design)
        frame = cli.run(job, check, key, ["frame", "kirkman", "-", "--simplex", "hadamard",
                                          "--drop-row", str(drop), "--basis", "hadamard"],
                        design)
        check.digest(f"{key}/frame", frame)
        check.digest(f"{key}/code", cli.run(job, check, key, ["code", "from-frame", "-"], frame))

    return Case(f"pipe-rr{v}", run, tuple(range(v)))


def _cli_case(name: str, variants: tuple, command) -> Case:
    def run(job: Job, check: Checker, variant) -> None:
        command(job, check, f"cli/{name}", variant)

    return Case(name, run, variants)


def cli_pipeline(workdir: Path) -> list[Case]:
    src = Path(__file__).resolve().parent.parent / "src"
    cli = Cli(src, workdir)
    flat16 = E.kirkman_etf(E.round_robin_design(16), E.drop_row_simplex(E.hadamard(16), 0),
                           E.hadamard(8))
    (workdir / "rr16.code").write_text(E.frame_to_code(flat16).to_text())
    (workdir / "fig2.json").write_text(E.frame_to_json(fixtures.fig2()) + "\n")

    def digest_of(args):
        def command(job, check, key, _):
            check.digest(key, cli.run(job, check, key, args))
        return command

    def spark(job, check, key, _):
        doc = json.loads(cli.run(job, check, key, ["analyze", "spark", "fig2.json"]))
        check.require(doc["spark"] == 4 and len(doc["witness"]) == 4, f"{key}: spark {doc}")

    def rip(job, check, key, size):
        doc = json.loads(cli.run(job, check, key, ["analyze", "rip", "fig2.json", "--L", str(size)],
                                 status=0 if size <= 3 else 1))
        check.require(doc["subsets"] == comb(16, size)
                      and abs(doc["delta"] - (size - 1) / 3) <= TOL, f"{key}: RIP report {doc}")

    def harmonic(job, check, key, _):
        doc = json.loads(cli.run(job, check, key, ["frame", "harmonic", "--q", "3", "--j", "1"]))
        entries = np.array(doc["entries"], dtype=float)
        modulus = np.hypot(entries[..., 0], entries[..., 1]) * np.sqrt(12)
        check.require((doc["m"], doc["n"]) == (12, 45) and entries.shape == (12, 45, 2)
                      and float(np.abs(modulus - 1).max()) <= TOL, f"{key}: not a flat 12x45 frame")

    def mcfarland(job, check, key, _):
        doc = json.loads(cli.run(job, check, key,
                                 ["frame", "mcfarland-vs-kirkman", "--q", "3", "--j", "1"]))
        check.require(doc["passed"] is True and doc["tol"] == TOL, f"{key}: {doc}")

    # two rr4 pipelines per round weight the three-process jobs as heavily as
    # the single-process ones in jobs_per_s
    return [
        _pipeline_case(cli, 4),
        _pipeline_case(cli, 4),
        _pipeline_case(cli, 16),
        _cli_case("code-check", (None,), digest_of(["code", "check", "rr16.code"])),
        _cli_case("verify", (None,), digest_of(["verify", "fig2.json"])),
        _cli_case("spark", (None,), spark),
        _cli_case("rip", (2, 3, 4, 5), rip),
        _cli_case("harmonic", (None,), harmonic),
        _cli_case("mcfarland-vs-kirkman", (None,), mcfarland),
        _cli_case("bound-welch", (None,), digest_of(["bound", "welch", "--m", "6", "--n", "16"])),
    ]


WORKLOADS = {
    "flat_sign_certify": flat_sign_certify,
    "subset_search": subset_search,
    "harmonic_fields": harmonic_fields,
    "cli_pipeline": cli_pipeline,
}
