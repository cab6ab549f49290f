"""Outside-in tracing of gaussmap's layers for the traced benchmark worker.

Each traced function is replaced by a wrapper that counts calls and adds up
self time: its own wall time minus the time spent in wrapped callees.  The
wrapper goes into every loaded ``gaussmap`` module whose namespace holds the
same object, because ``rho``, ``gaussian`` and ``linalg`` bind names with
``from .x import f`` and patching only the home module would miss those
callers.  Methods are patched on their class.  A traced name that no longer
exists is recorded as absent, so the benchmark survives refactors that
remove it.

Nothing here imports gaussmap; the worker imports it first.
"""

from __future__ import annotations

import sys
import time

# (layer metric name, home module, attribute or Class.method)
TRACED = (
    ("linalg.rref", "gaussmap.linalg", "rref"),
    ("linalg.dot", "gaussmap.linalg", "dot"),
    ("gaussian.kernel_via_equations", "gaussmap.gaussian", "kernel_via_equations"),
    (
        "gaussian.kernel_via_polynomial_oracle",
        "gaussmap.gaussian",
        "kernel_via_polynomial_oracle",
    ),
    ("gaussian.oracle_residuals", "gaussmap.gaussian", "oracle_residuals"),
    ("series.mul", "gaussmap.series", "TruncatedSeries.__mul__"),
    ("series.compose_poly", "gaussmap.series", "TruncatedSeries.compose_poly"),
    ("series.inverse", "gaussmap.series", "TruncatedSeries.inverse"),
    ("curve.canonical_derivatives", "gaussmap.curve", "canonical_derivatives"),
    ("rho.derivative_sum", "gaussmap.rho", "derivative_sum"),
    ("rho.threshold_info", "gaussmap.rho", "threshold_info"),
    ("rho.rho_pair", "gaussmap.rho", "rho_pair"),
    ("rho.asymptotic_classify", "gaussmap.rho", "asymptotic_classify"),
    ("rho.witness_functional", "gaussmap.rho", "witness_functional"),
    ("rho.witness_hyperplane", "gaussmap.rho", "witness_hyperplane"),
    ("rho.diagonal_functional", "gaussmap.rho", "diagonal_functional"),
    ("rho.rho_reduction_vector", "gaussmap.rho", "rho_reduction_vector"),
    ("reports.render", "gaussmap.reports", "VerificationReport.to_json_bytes"),
)

# lru_caches whose hit ratio is reported, read with cache_info() after a run.
CACHED = (
    ("rho.derivative_sum", "gaussmap.rho", "derivative_sum"),
    ("rho.diagonal_functional", "gaussmap.rho", "diagonal_functional"),
)

_JETS = "curve.canonical_derivatives"


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, object), or None when the name no longer exists."""
    owner = sys.modules.get(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    obj = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(
        owner, parts[-1], None
    )
    if obj is None:
        return None
    return owner, parts[-1], obj


def _gaussmap_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "gaussmap" or name.startswith("gaussmap."))
    ]


def decimal_digits(n: int) -> int:
    """Exact number of decimal digits of |n|, without int-to-str limits."""
    n = abs(n)
    if n < 10:
        return 1
    d = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    while n >= 10**d:
        d += 1
    while n < 10 ** (d - 1):
        d -= 1
    return d


def cache_counts() -> dict:
    """{name: {"hits", "misses"}} per reported cache; None where it is gone."""
    out = {}
    for name, module_name, qualname in CACHED:
        found = _resolve(module_name, qualname)
        obj = None if found is None else found[2]
        obj = getattr(obj, "bench_original", obj)
        info = getattr(obj, "cache_info", None)
        if info is None:
            out[name] = None
            continue
        stats = info()
        out[name] = {"hits": stats.hits, "misses": stats.misses}
    return out


class Tracer:
    """Wrappers installed into the loaded gaussmap modules, and their stats."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.absent: list[str] = []
        self.replaced: dict[str, int] = {}  # name -> bindings patched
        self._child = [0.0]
        self._jet_orders: dict[int, tuple] = {}  # id(curve) -> (curve, order)

    def install(self, traced=TRACED) -> None:
        modules = _gaussmap_modules()
        for name, module_name, qualname in traced:
            found = _resolve(module_name, qualname)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self.replaced[name] = 1
                continue
            count = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        count += 1
            self.replaced[name] = count

    def _wrap(self, name: str, original):
        stats = self.stats.setdefault(name, [0, 0.0])
        child = self._child
        clock = time.perf_counter
        jets = self._jet_orders if name == _JETS else None

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                stats[0] += 1
                stats[1] += elapsed - inner
                child[-1] += elapsed
                if jets is not None and len(args) == 2:
                    curve, order = args
                    seen = jets.get(id(curve))
                    if seen is None or seen[1] < order:
                        jets[id(curve)] = (curve, order)

        wrapper.bench_original = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def max_operand_digits(self) -> int:
        """Largest numerator or denominator in the jet tables handed out.

        Every table returned for a curve is a prefix of the one at the
        largest order requested for it, so only that one is scanned; this
        runs after the timed call.
        """
        found = _resolve("gaussmap.curve", "canonical_derivatives")
        if found is None:
            return 0
        build = getattr(found[2], "bench_original", found[2])
        best = 0
        for curve, order in self._jet_orders.values():
            for row in build(curve, order):
                for value in row:
                    best = max(
                        best,
                        decimal_digits(value.numerator),
                        decimal_digits(value.denominator),
                    )
        return best

    def report(self) -> dict:
        return {
            "layers": {name: list(s) for name, s in self.stats.items()},
            "absent": list(self.absent),
            "replaced": dict(self.replaced),
            "max_operand_digits": self.max_operand_digits(),
        }
