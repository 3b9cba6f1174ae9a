"""The four seeded workloads of the szego-lab benchmark and the checks on their ops.

An op is one call in a closed loop with one client.  Each workload cycles over
a few inputs made from the seed; the program sees only those symbols and argv.
Rotating a log-weight, l_k -> l_k e^{ik phi}, leaves every D_n, |alpha_n| and
moment grid unchanged, so one unrotated reference checks every phase.

* limit-suite: ``verify.strong_szego_report(s, n_max=400)`` over the five
  ``default_suite`` weights, the paper's headline experiment; about 84% of it
  is ``toeplitz.assemble`` + ``log_det_direct`` (401 factorizations, O(N^4)).
* deep-recursion: ``verify.gi_bound_check(s, level=8, n_max=1600)`` for the
  Bernstein-Szego weight a=0.97 and a cosine with l_1 = 4.5; a long recursion
  that never calls the per-degree Cholesky, with O(N^2) states held and an
  820,224-point moment grid for l_1 = 4.5 under the absolute stop rule.
  Larger amplitudes are out: l_1 >= 5.5 fails the G bound and l_1 = 10 raises
  ``QuadratureError``, so such an op fails at once and times nothing.
* gas-mc: ``coulomb.mc_Dn(s, n=8, samples=400_000, workers=2)`` on the cosine
  and two-band weights; the third, independent route, on both cores.
* cli-mix: the seven README commands, one ``szego-lab`` process at a time;
  users of the shell pay interpreter start-up and ``import szego_lab`` per call.

``szego_fn`` is on no user-facing command path, so no workload measures it.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys

TWO_PI = 2.0 * math.pi


def rotated(s, phi: float):
    """The symbol with l_k -> l_k e^{ik phi}; D_n and every |alpha_n| are unchanged."""
    from szego_lab import LaurentSymbol

    return LaurentSymbol(
        tuple(complex(c) * cmath.exp(1j * k * phi) for k, c in enumerate(s.coeffs))
    )


def bessel_i(k: int, x: float, terms: int = 40) -> float:
    """I_k(x) by its power series Σ_m (x/2)^{2m+k} / (m! (m+k)!)."""
    return sum(
        (x / 2.0) ** (2 * m + k) / (math.factorial(m) * math.factorial(m + k))
        for m in range(terms)
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Inputs drawn from the seed at construction; szego_lab is imported by build().

    Subclasses set ``name`` and implement build, op, references and check.
    ``check`` returns None for a good output and a message otherwise.
    """

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.labels: list[str] = []

    @property
    def cycle(self) -> int:
        return len(self.labels)

    def label(self, i: int) -> str:
        return self.labels[i % self.cycle]

    def build(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def references(self) -> None:
        """Oracle values for the checks; not part of set-up time."""

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def sampling(self, i: int, out) -> tuple[float, float]:
        """(value, std_err) of op i's estimate; std_err 0 for an exact route."""
        return 1.0, 0.0


class LimitSuite(Workload):
    name = "limit-suite"
    N_MAX = 400
    D1_TOL = 1e-10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.phis = [self.rng.uniform(0.0, TWO_PI) for _ in range(5)]

    def build(self) -> None:
        from szego_lab import verify

        self.verify = verify
        suite = verify.default_suite()
        self.labels = [label for label, _ in suite]
        self.symbols = [rotated(s, phi) for (_, s), phi in zip(suite, self.phis)]

    def op(self, i: int):
        k = i % self.cycle
        return self.verify.strong_szego_report(
            self.symbols[k], n_max=self.N_MAX, symbol_id=self.labels[k]
        )

    def references(self) -> None:
        self.reference = {
            label: [r.log_dn for r in self.verify.strong_szego_report(s, self.N_MAX).rows]
            for label, s in self.verify.default_suite()
        }
        # c_k = I_k(1) for w = e^{cos θ}, so D_1 = I_0(1)² - I_1(1)²
        self.cosine_d1 = bessel_i(0, 1.0) ** 2 - bessel_i(1, 1.0) ** 2

    def check(self, i: int, out) -> str | None:
        label = self.label(i)
        want = self.reference[label]
        got = [r.log_dn for r in out.rows]
        if len(got) != len(want):
            return f"{label}: {len(got)} rows, expected {len(want)}"
        for n, (a, b) in enumerate(zip(got, want)):
            if not self.verify.routes_agree(a, b):
                return f"{label}: log D_{n} {a!r} vs unrotated {b!r}"
        if label == "cosine" and abs(math.exp(got[1]) - self.cosine_d1) > self.D1_TOL:
            return f"cosine: D_1 {math.exp(got[1])!r} vs I_0(1)^2 - I_1(1)^2 {self.cosine_d1!r}"
        return None

    def digest(self, out) -> str:
        return _digest(repr([(r.log_dn, r.g_n) for r in out.rows]))


class DeepRecursion(Workload):
    name = "deep-recursion"
    LEVEL = 8
    N_MAX = 1600
    LOG_G_TOL = 1e-8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.phis = [self.rng.uniform(0.0, TWO_PI) for _ in range(2)]
        self.labels = ["bs-0.97", "cosine-4.5"]

    def build(self) -> None:
        from szego_lab import make_symbol, verify

        self.verify = verify
        self.plain = [verify.bs_log_weight(0.97), make_symbol({1: 4.5, -1: 4.5})]
        self.symbols = [rotated(s, phi) for s, phi in zip(self.plain, self.phis)]

    def op(self, i: int):
        return self.verify.gi_bound_check(
            self.symbols[i % self.cycle], level=self.LEVEL, n_max=self.N_MAX
        )

    def references(self) -> None:
        self.reference = [
            [r.log_g_full for r in self.verify.gi_bound_check(s, self.LEVEL, self.N_MAX).rows]
            for s in self.plain
        ]

    def check(self, i: int, out) -> str | None:
        want = self.reference[i % self.cycle]
        got = [r.log_g_full for r in out.rows]
        if len(got) != len(want):
            return f"{self.label(i)}: {len(got)} rows, expected {len(want)}"
        worst = max(abs(a - b) for a, b in zip(got, want))
        if worst > self.LOG_G_TOL:
            return f"{self.label(i)}: log G_n moved {worst:.3g} under rotation"
        return None

    def digest(self, out) -> str:
        return _digest(repr([(r.log_g_full, r.log_g_bs, r.log_g_gi) for r in out.rows]))


class GasMC(Workload):
    name = "gas-mc"
    N = 8
    SAMPLES = 400_000
    WORKERS = 2
    Z_MAX = 5.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.phis = [self.rng.uniform(0.0, TWO_PI) for _ in range(2)]
        self.seed_base = self.rng.randrange(2**31)
        self.labels = ["cosine", "two-band"]

    def build(self) -> None:
        from szego_lab import coulomb, verify

        self.coulomb = coulomb
        suite = dict(verify.default_suite())
        self.plain = [suite[label] for label in self.labels]
        self.symbols = [rotated(s, phi) for s, phi in zip(self.plain, self.phis)]

    def op(self, i: int, workers: int = WORKERS):
        return self.coulomb.mc_Dn(
            self.symbols[i % self.cycle],
            self.N,
            samples=self.SAMPLES,
            seed=self.seed_base + i,
            workers=workers,
        )

    def references(self) -> None:
        from szego_lab import moments, toeplitz

        self.reference = [
            math.exp(toeplitz.log_det_direct(toeplitz.assemble(moments(s, self.N), self.N)))
            for s in self.plain
        ]

    def check(self, i: int, out) -> str | None:
        want = self.reference[i % self.cycle]
        if not abs(out.value - want) <= self.Z_MAX * out.std_err:
            return (
                f"{self.label(i)}: D_{self.N} {out.value!r} +- {out.std_err!r} "
                f"vs Cholesky {want!r}"
            )
        return None

    def digest(self, out) -> str:
        return _digest(repr((out.value, out.std_err)))

    def sampling(self, i: int, out) -> tuple[float, float]:
        return out.value, out.std_err


class CliMix(Workload):
    """The README commands through ``python -m szego_lab.cli``.

    ``in_process`` runs the same argv through ``cli.main`` in this process
    instead, which is how the traced run sees inside the command.
    """

    name = "cli-mix"
    COMMAND_TIMEOUT_S = 60

    def __init__(self, seed: int):
        super().__init__(seed)
        phi = self.rng.uniform(0.0, TWO_PI)
        coeff = f"1={0.5 * math.cos(phi)!r},{0.5 * math.sin(phi)!r}"
        seed_flag = str(self.rng.randrange(1_000_000))
        self.argvs = [
            ["moments", "--coeff", coeff, "--nmax", "8"],
            ["verify", "--coeff", coeff, "--nmax", "40"],
            ["coulomb", "--coeff", coeff, "--n", "2", "--exact"],
            ["coulomb", "--coeff", coeff, "--n", "3", "--samples", "100000",
             "--seed", seed_flag, "--workers", "4"],
            ["cd-check", "--coeff", coeff, "--nmax", "20", "--seed", seed_flag],
            ["bs-check", "--coeff", coeff, "--nmax", "5"],
            ["fh-check", "--coeff", coeff, "--nmax", "3"],
        ]
        self.labels = [
            "moments", "verify", "coulomb-exact", "coulomb-mc", "cd-check", "bs-check", "fh-check"
        ]
        self.first: dict[int, bytes] = {}
        self.in_process = False

    def build(self) -> None:
        pass

    def op(self, i: int):
        argv = self.argvs[i % self.cycle]
        if self.in_process:
            from szego_lab import cli

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue().encode()
        done = subprocess.run(
            [sys.executable, "-m", "szego_lab.cli", *argv],
            capture_output=True,
            timeout=self.COMMAND_TIMEOUT_S,
            check=False,
        )
        return done.returncode, done.stdout

    def check(self, i: int, out) -> str | None:
        code, stdout = out
        label = self.label(i)
        if code != 0:
            return f"{label}: exit code {code}"
        for line in stdout.decode().splitlines():
            if line.startswith("# check ") and line.split()[3] != "PASS":
                return f"{label}: {line}"
        first = self.first.setdefault(i % self.cycle, stdout)
        if stdout != first:
            return f"{label}: output differs from the first run of the same argv"
        return None

    def digest(self, out) -> str:
        code, stdout = out
        return _digest(f"{code}\n") + _digest(stdout.decode())

    def sampling(self, i: int, out) -> tuple[float, float]:
        code, stdout = out
        if code == 0 and self.argvs[i % self.cycle][0] == "coulomb":
            payload = json.loads(stdout)
            return payload["value"], payload["std_err"]
        return 1.0, 0.0


WORKLOADS = {w.name: w for w in (LimitSuite, DeepRecursion, GasMC, CliMix)}


# --------------------------------------------------------------------------
# layers traced in a --trace 1 run
# --------------------------------------------------------------------------


def _grid_points(result, *args, **kwargs) -> dict:
    return {"symbol.grid_points": result.quadrature_points}


def _states(result, *args, **kwargs) -> dict:
    coeffs = sum(len(st.phi.coeffs) + len(st.phi_star) for st in result)
    # complex128 coefficients of Φ_n and Φ_n*, from their lengths
    return {"opuc.states_held": len(result), "opuc.coeff_bytes_computed": 16 * coeffs}


def _cholesky(result, t, *args, **kwargs) -> dict:
    size = t.shape[0]
    return {"toeplitz.log_det_direct.calls": 1, "toeplitz.cholesky_flops": size**3 / 3.0}


def _circle_grid(result, *args, **kwargs) -> dict:
    return {"quadrature.grid_points": result[1]}


def _mc_samples(result, *args, **kwargs) -> dict:
    return {"coulomb.mc.samples": result.samples}


def _kernel_calls(result, *args, **kwargs) -> dict:
    return {"cdkernel.kernel_sum.calls": 1}


def layer_targets() -> list:
    """(module, attribute, span name, counter) for each layer boundary.

    The attribute is the one the caller looks up: ``moments`` is imported by
    name into ``verify`` and ``cli``, so it is replaced there; ``toeplitz``
    functions are called as ``toeplitz.<name>``, so they are replaced on the
    module itself, which also catches ``opuc.run_to``'s call of ``trajectory``.
    """
    from szego_lab import cdkernel, cli, coulomb, opuc, quadrature, toeplitz, verify

    return [
        (verify, "strong_szego_report", "verify.strong_szego_report", None),
        (verify, "gi_bound_check", "verify.gi_bound_check", None),
        (verify, "moments", "symbol.moments", _grid_points),
        (cli, "moments", "symbol.moments", _grid_points),
        (verify, "moments_from_function", "symbol.moments_from_function", _grid_points),
        (opuc, "trajectory", "opuc.trajectory", _states),
        (toeplitz, "assemble", "toeplitz.assemble", None),
        (toeplitz, "log_det_direct", "toeplitz.log_det_direct", _cholesky),
        (toeplitz, "log_det_product", "toeplitz.log_det_product", None),
        (toeplitz, "ledger", "toeplitz.ledger", None),
        (quadrature, "adaptive_circle_mean", "quadrature.adaptive_circle_mean", _circle_grid),
        (coulomb, "mc_Dn", "coulomb.mc_Dn", _mc_samples),
        (coulomb, "eval_log_weight", "coulomb.eval_log_weight", None),
        (coulomb, "exact_Dn", "coulomb.exact_Dn", None),
        (cdkernel, "kernel_sum", "cdkernel.kernel_sum", _kernel_calls),
        (cli, "main", "cli.main", None),
        (cli, "json_text", "textio.json_text", None),
        (verify, "json_text", "textio.json_text", None),
    ]
