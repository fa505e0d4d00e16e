"""The four benchmark workloads.

A workload turns a seeded `random.Random` into distinct jobs (`make`), runs
one job through the public z2nsuper API (`run`, the timed part), renders the
output canonically (`render`) and checks it (`check`, which returns a list
of problems).  Rendering and checking happen outside the timed region.

Each workload cycles through a fixed list of instance classes, so every
batch has the same mix of shapes and only the seeded details differ.
"""

from __future__ import annotations

import os
import random
import re
from fractions import Fraction

from z2nsuper import cli, findim, formats, morphisms

import gen
import oracle


class Job:
    def __init__(self, index, cls, text, data):
        self.index = index    # position in the batch; -1 for the warm-up job
        self.cls = cls        # the instance class, for reports
        self.text = text      # canonical input text; the inputs digest covers it
        self.data = data      # whatever `run` and `check` need


class Workload:
    name = ""
    classes = ()       # one stratification cycle of instance classes
    job_s = 1.0        # mean job time at the defining commit; sizes the batch
    trace_jobs = 1     # jobs in a traced run

    def __init__(self, workdir):
        self.workdir = workdir

    def batch_size(self, seconds):
        cycle = len(self.classes)
        return cycle * max(1, round(seconds / (self.job_s * cycle)))

    def make_batch(self, seed, count):
        """(warm-up job, [jobs]) for a seed; the warm-up is not in the batch."""
        rng = random.Random("%s:%d" % (self.name, seed))
        warm = self.make(rng, -1, self.classes[0], -1)
        seen = {warm.text}
        jobs = []
        draws = 0
        while len(jobs) < count:
            draws += 1
            if draws > 100 * count:
                raise RuntimeError("%s: could not draw %d distinct jobs" % (self.name, count))
            i = len(jobs)
            job = self.make(rng, i, self.classes[i % len(self.classes)], i // len(self.classes))
            if job.text not in seen:
                seen.add(job.text)
                jobs.append(job)
        return warm, jobs

    def make(self, rng, index, cls, slot):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def render(self, job, out):
        raise NotImplementedError

    def check(self, job, out):
        raise NotImplementedError


# -- split_verify ----------------------------------------------------------

_RATIONAL = re.compile(r"(?<![\w\[,^/])(\d+)(?=[*/ )])")


def corrupt_iso(result_text):
    """Change one rational coefficient in the first iso block.

    Bumps the first integer literal of a coefficient; when the block has
    none, doubles the linear coefficient of its first formal variable.
    """
    lines = result_text.split("\n")
    start = next(i for i, ln in enumerate(lines) if ln.startswith("iso "))
    end = lines.index("end", start)
    for i in range(start + 1, end):
        name, _, rhs = lines[i].partition(" = ")
        m = _RATIONAL.search(rhs)
        if m:
            rhs = rhs[:m.start()] + str(int(m.group(1)) + 1) + rhs[m.end():]
            lines[i] = "%s = %s" % (name, rhs)
            return "\n".join(lines)
    for i in range(start + 1, end):
        name, _, rhs = lines[i].partition(" = ")
        if name != "x" and rhs.startswith(name):
            lines[i] = "%s = 2 * %s" % (name, rhs)
            return "\n".join(lines)
    raise ValueError("no coefficient to corrupt in the iso block")


class SplitVerify(Workload):
    name = "split_verify"
    # (charts, K): two charts at K = 3 and 4, and three charts at K = 3
    classes = ((2, 3), (2, 4), (2, 3), (2, 4), (3, 3))
    job_s = 0.85
    trace_jobs = 5

    def path(self, name):
        return os.path.join(self.workdir, name)

    def make(self, rng, index, cls, slot):
        nchart, order = cls
        atlas = gen.rand_atlas(rng, nchart, order, slot)
        text = formats.print_atlas(atlas) + "\n"
        path = self.path("atlas-%d.txt" % index)
        with open(path, "w") as fh:
            fh.write(text)
        rc = cli.main(["atlas-check", "--atlas", path, "-o", self.path("check.txt")])
        if rc != 0:
            raise RuntimeError("generated atlas %d fails atlas-check" % index)
        return Job(index, "%dcharts-K%d" % cls, text, path)

    def run(self, job):
        result, report = self.path("result.txt"), self.path("verify.txt")
        rc_split = cli.main(["split", "--atlas", job.data, "-o", result])
        rc_verify = cli.main(["verify", "--atlas", job.data, "--result", result, "-o", report])
        return rc_split, rc_verify

    def render(self, job, out):
        texts = []
        for name in ("result.txt", "verify.txt"):
            with open(self.path(name)) as fh:
                texts.append(fh.read())
        return "exit %d %d\n%s--\n%s" % (out[0], out[1], texts[0], texts[1])

    def check(self, job, out):
        problems = []
        if out != (0, 0):
            problems.append("exit codes %s, expected (0, 0)" % (out,))
        with open(self.path("result.txt")) as fh:
            result = fh.read()
        body = result.split("\nreport\n", 1)[-1].split("\n")
        for ln in body:
            if ln and ln != "end" and not ln.startswith("pass "):
                problems.append("split report: %s" % ln)
        with open(self.path("verify.txt")) as fh:
            for ln in fh.read().splitlines():
                if not ln.startswith("[pass] "):
                    problems.append("verify report: %s" % ln)
        if job.index == 0:
            problems += self.negative_control(job, result)
        return problems

    def negative_control(self, job, result):
        bad = self.path("corrupt.txt")
        with open(bad, "w") as fh:
            fh.write(corrupt_iso(result))
        rc = cli.main(["verify", "--atlas", job.data, "--result", bad,
                       "-o", self.path("corrupt-verify.txt")])
        return [] if rc == 1 else ["negative control: verify exit %d on a corrupted iso" % rc]


# -- invert_roundtrip ------------------------------------------------------


class InvertRoundtrip(Workload):
    name = "invert_roundtrip"
    # (signature index, K).  Sorted by cost the classes are (1, 6) < (1, 7) <
    # (0, 6); (1, 7) fills the middle half of the batch, so the median job
    # falls inside one class instead of on the edge between two.
    classes = ((1, 6), (1, 7), (0, 6), (1, 7))
    job_s = 0.5
    trace_jobs = 4

    def make(self, rng, index, cls, slot):
        si, order = cls
        m = gen.rand_invertible(rng, gen.INVERT_SIGS[si], order, slot)
        return Job(index, "sig%d-K%d" % cls, formats.print_morphism(m) + "\n", m)

    def run(self, job):
        return morphisms.invert(job.data)

    def render(self, job, out):
        return formats.print_morphism(out) + "\n"

    def check(self, job, out):
        m = job.data
        ident = morphisms.Morphism.identity(m.source, m.order)
        problems = []
        if morphisms.compose(m, out) != ident:
            problems.append("compose(m, inv) is not the identity")
        if morphisms.compose(out, m) != ident:
            problems.append("compose(inv, m) is not the identity")
        return problems


# -- template_jacobian -----------------------------------------------------


class TemplateJacobian(Workload):
    name = "template_jacobian"
    # (degrees of the six variables, K)
    classes = (
        (("00", "01", "01", "10", "10", "11"), 3),
        (("00", "00", "01", "01", "10", "11"), 3),
        (("00", "01", "01", "01", "10", "11"), 3),
        (("00", "00", "01", "10", "10", "11"), 3),
        (("00", "01", "10", "10", "10", "11"), 3),
        (("00", "01", "01", "10", "11", "11"), 3),
        (("00", "01", "01", "10", "10", "11"), 4),
    )
    job_s = 0.53
    trace_jobs = 7

    def make(self, rng, index, cls, slot):
        degrees, order = cls
        sig = gen.rand_template_signature(rng, degrees)
        point = {bn: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3, 5)))
                 for bn in sig.base_names}
        text = "K %d\n%s\npoint %s\n" % (order, formats.print_signature(sig),
                                         " ".join("%s=%s" % kv for kv in sorted(point.items())))
        return Job(index, "%s-K%d" % ("".join(degrees), order), text,
                   (sig, order, point, rng.getrandbits(32)))

    def run(self, job):
        sig, order, _, _ = job.data
        _, a = morphisms.transformation_template(sig, order, "a")
        _, b = morphisms.transformation_template(sig, order, "b")
        composed = morphisms.compose(b, a)
        jac = morphisms.jacobian(composed)
        return a, b, composed, jac, jac.check_blocks()

    def render(self, job, out):
        _, _, composed, jac, blocks = out
        lines = [formats.print_morphism(composed), "blocks %s" % ("pass" if blocks else "fail")]
        for tv in jac.rows:
            for sv in jac.cols:
                lines.append("d %s / d %s = %s" % (tv, sv, formats.print_series(jac.entry(tv, sv))))
        return "\n".join(lines) + "\n"

    def check(self, job, out):
        sig, order, point, real_seed = job.data
        a, b, composed, jac, blocks = out
        problems = [] if blocks else ["Jacobian block law fails"]
        symbols = set()
        for m in (a, b):
            for img in m.images.values():
                for c in img.terms.values():
                    symbols |= c.opaque_names()
        reals = gen.realization(random.Random(real_seed), symbols, len(sig.base_names))
        bad = oracle.composition_mismatches(composed, a, b, reals, point)
        if bad:
            problems.append("composition differs from the naive oracle at %d terms, first %s"
                            % (len(bad), bad[0]))
        return problems


# -- findim_search ---------------------------------------------------------


def _feasible_classes():
    out = []
    for name, A in gen.base_algebras().items():
        for n in (2, 3, 4):
            if (2 ** n) ** (A.dim - 1) <= findim.DEFAULT_BUDGET:
                out.append((name, n))
    return tuple(out)


class FindimSearch(Workload):
    name = "findim_search"
    classes = _feasible_classes()
    job_s = 0.024
    trace_jobs = len(classes)

    def __init__(self, workdir):
        super().__init__(workdir)
        self.base = gen.base_algebras()
        self._expected = {}

    def make(self, rng, index, cls, slot):
        name, n = cls
        A, perm = gen.relabel(rng, self.base[name])
        algebra = formats.print_algebra(A)
        return Job(index, "%s-n%d" % cls, "n %d\n%s\n" % (n, algebra), (name, n, perm, algebra))

    def run(self, job):
        _, n, _, text = job.data
        A = formats.parse_algebra(text)
        return A, findim.search_degree_assignments(A, n)

    def render(self, job, out):
        A, found = out
        lines = [" ".join("%s:%s" % (lb, asg[lb]) for lb in A.labels) for asg in found]
        return "\n".join(lines + ["count %d" % len(found)]) + "\n"

    def expected(self, name, n):
        """The unrelabeled algebra's assignments as degree tuples in basis order."""
        if (name, n) not in self._expected:
            A = self.base[name]
            self._expected[(name, n)] = [
                tuple(str(asg[lb]) for lb in A.labels)
                for asg in findim.search_degree_assignments(A, n)
            ]
        return self._expected[(name, n)]

    def check(self, job, out):
        name, n, perm, _ = job.data
        A, found = out
        got = {tuple(str(asg[lb]) for lb in A.labels) for asg in found}
        want = {tuple(old[perm[s]] for s in range(A.dim)) for old in self.expected(name, n)}
        problems = []
        if got != want:
            problems.append("assignments differ from the relabeled base algebra's")
        for asg in found:
            if not findim.check_graded_commutative(A, asg)[0]:
                problems.append("assignment does not re-certify: %s" % asg)
        if name == "H" and n == 3:
            base_labels = self.base["H"].labels
            hit = {base_labels[perm[s]]: s for s in range(A.dim)}
            target = {"i": "011", "j": "101", "k": "110"}
            if not any(all(str(asg["b%d" % hit[q]]) == d for q, d in target.items())
                       for asg in found):
                problems.append("quaternions over Z2^3 miss i->011, j->101, k->110")
        return problems


WORKLOADS = {w.name: w for w in (SplitVerify, InvertRoundtrip, TemplateJacobian, FindimSearch)}
