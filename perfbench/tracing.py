"""Spans and counts at rank1kit's module boundaries, installed from outside.

`install` replaces each probed function or method with a wrapper at
every binding site in the loaded rank1kit modules (a module that did
`from .sl2traces import classify` holds its own binding, which is
replaced too), and `uninstall` puts the originals back. Nothing under
src/ changes.

Spans are aggregated in memory per (name, parent name): calls, total
time and the time covered by child spans, so self time is total minus
child. Each of the benchmark's operations is a span too, named by its
kind, so the outermost layer spans have it as their parent. The
aggregate is written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self._stack = []   # open spans: [name, child seconds]
        self.agg = {}      # (name, parent) -> [calls, total s, child s]
        self.counts = {}   # extra counters by metric name
        self._tries = {}   # generators key -> prefix trie, most recent last
        self._installed = []

    # -- spans

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(*args) runs before the clock starts and
        returns False to pass the call through unrecorded."""
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None and count(*args) is False:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, metric, n):
        self.counts[metric] = self.counts.get(metric, 0) + n

    # -- counters run by the probes

    def _count_evaluate(self, rep, word, *rest):
        self.add("sl2traces.evaluate.letters", len(word))
        key = b"".join(g.mat.tobytes() for g in rep.generators)
        trie = self._tries.pop(key, None)
        if trie is None:
            trie = {}
            if len(self._tries) >= 16:
                del self._tries[next(iter(self._tries))]
        self._tries[key] = trie
        node, repeats = trie, 0
        for letter in word:
            child = node.get(letter)
            if child is None:
                child = node[letter] = {}
            else:
                repeats += 1
            node = child
        self.add("sl2traces.evaluate.prefix_repeats", repeats)

    def _count_batched(self, kind, x, *rest):
        if np.ndim(x) < 2:
            return False
        self.add("algebra.batched.elements", int(np.prod(np.shape(x)[:-1])))

    # -- installation

    def probes(self):
        """(span name, owner, attribute, counter) for every probed callable."""
        from rank1kit import algebra, ballmodel, cli, isometry, nilboundary, sl2traces, spectrum

        return [
            ("algebra.mul", algebra.AlgebraElement, "__mul__", None),
            ("algebra.inv", algebra.AlgebraElement, "inv", None),
            ("algebra.batched", algebra, "mul_coeffs", self._count_batched),
            ("algebra.batched", algebra, "inv_coeffs", self._count_batched),
            ("nilboundary.nmul", nilboundary, "nmul", None),
            ("nilboundary.dist", nilboundary, "dist", None),
            ("nilboundary.crossratio_nil", nilboundary, "crossratio_nil", None),
            ("ballmodel.stereo", ballmodel, "stereo", None),
            ("ballmodel.stereo_inv", ballmodel, "stereo_inv", None),
            ("ballmodel.chordal", ballmodel, "chordal", None),
            ("ballmodel.crossratio_ball", ballmodel, "crossratio_ball", None),
            ("isometry.act_nil", isometry, "act_nil", None),
            ("isometry.act_ball", isometry, "act_ball", None),
            ("isometry.matmul", isometry.GroupMatrix, "__matmul__", None),
            ("isometry.translation_length", isometry, "translation_length", None),
            ("sl2traces.evaluate", sl2traces.SL2Rep, "evaluate", self._count_evaluate),
            ("sl2traces.classify", sl2traces, "classify", None),
            ("spectrum.oracle", spectrum.LengthOracle, "length", None),
            ("spectrum.lemma1_sequence", spectrum, "lemma1_sequence", None),
            ("spectrum.lemma1_matrix_sequence", spectrum, "lemma1_matrix_sequence", None),
            ("spectrum.crossratio_of_pair", spectrum, "crossratio_of_pair", None),
            ("spectrum.reconstruct_report", spectrum, "reconstruct_report", None),
            ("cli.run", cli, "run", None),
        ]

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "rank1kit" or n.startswith("rank1kit.")) and m is not None]
        for name, owner, attr, count in self.probes():
            original = owner.__dict__[attr]
            wrapped = self.span(name, original, count)
            # the owner first, then every module-level binding of the same object
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)
                        self._installed.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._installed):
            setattr(site, key, original)
        self._installed.clear()

    # -- results

    def per_layer(self):
        """Per-layer metrics by name: calls and self seconds per span name,
        plus the extra counters."""
        calls, self_s = {}, {}
        for (name, _parent), (n, total, child) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + (total - child)
        out = {}
        for name in calls:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        letters = self.counts.get("sl2traces.evaluate.letters", 0)
        repeats = self.counts.get("sl2traces.evaluate.prefix_repeats", 0)
        out["sl2traces.evaluate.letters"] = letters
        out["sl2traces.evaluate.prefix_share"] = repeats / letters if letters else 0.0
        out["algebra.batched.elements"] = self.counts.get("algebra.batched.elements", 0)
        return out

    def write(self, path):
        rows = [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": t - ch}
                for (n, p), (c, t, ch) in sorted(self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh, indent=1)
