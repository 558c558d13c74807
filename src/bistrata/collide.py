"""Combinatorics of linear singularities: Newton diagrams and collisions.

A Newton diagram is the descending staircase of lattice vertices bounding
the exponent support of a local defining series from below.  The vertex
coordinates are (a, b) = (exponent of x1, exponent of x2).  Diagrams whose
face slopes all have magnitude in [1/2, 2] are the linear types: their
strata with fixed point and tangent lines are linear subspaces of the curve
system.

Colliding two ordinary multiple points of multiplicities p+1 >= q+1 along a
line produces a single linear singularity whose diagram has vertices
(p+1, 0), (q+1, p-q), (0, p+q+2); the excess intersection supported on the
merged locus carries multiplicity q+1.  These results are encoded here as
data.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import Value


class NewtonDiagram(Value):
    """Staircase of lattice vertices, ascending in a, strictly descending in b."""

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: tuple[tuple[int, int], ...]):
        vs = vertices
        if not vs:
            raise ValueError("a diagram needs at least one vertex")
        for a, b in vs:
            if a < 0 or b < 0:
                raise ValueError(f"vertex ({a}, {b}) leaves the positive quadrant")
        for (a1, b1), (a2, b2) in zip(vs, vs[1:]):
            if not (a1 < a2 and b1 > b2):
                raise ValueError(f"vertices must descend strictly: {vs}")
        # staircase convexity: slopes strictly increase (decrease in magnitude),
        # compared by cross-multiplying over the positive widths
        for (a1, b1), (a2, b2), (a3, b3) in zip(vs, vs[1:], vs[2:]):
            if not (b2 - b1) * (a3 - a2) < (b3 - b2) * (a2 - a1):
                from fractions import Fraction  # loaded on demand: only this message uses it
                slopes = [Fraction(b2 - b1, a2 - a1) for (a1, b1), (a2, b2) in zip(vs, vs[1:])]
                raise ValueError(f"non-convex vertex chain: slopes {slopes}")
        self._assign(vertices=vertices)

    @classmethod
    def from_points(cls, points: Iterable[tuple[int, int]]) -> "NewtonDiagram":
        """Lower-left convex hull of a point set; dominated and collinear points drop out."""
        pts = sorted(set((int(a), int(b)) for a, b in points))
        if not pts:
            raise ValueError("no points given")
        # Pareto filter: a point with some (a', b') <= (a, b) is interior
        chain: list[tuple[int, int]] = []
        for a, b in pts:
            if not chain or b < chain[-1][1]:
                chain.append((a, b))
        hull: list[tuple[int, int]] = []
        for pt in chain:
            while len(hull) >= 2:
                (a1, b1), (a2, b2) = hull[-2], hull[-1]
                a3, b3 = pt
                # drop the middle point when it is on or above the chord
                if (b2 - b1) * (a3 - a1) >= (b3 - b1) * (a2 - a1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        return cls(tuple(hull))

    @property
    def multiplicity(self) -> int:
        return min(a + b for a, b in self.vertices)

    def faces(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return list(zip(self.vertices, self.vertices[1:]))

    def is_commode(self) -> bool:
        """True when the staircase touches both coordinate axes."""
        return self.vertices[0][0] == 0 and self.vertices[-1][1] == 0

    def kill_points(self) -> list[tuple[int, int]]:
        """Lattice points strictly under the staircase with a+b >= multiplicity.

        These are exactly the monomials that must be erased, beyond the bare
        multiplicity conditions, for a curve germ to acquire this diagram.
        Over each abscissa, b is under the face above it below the
        ceiling of the face's height, taken in integers.
        """
        if not self.is_commode():
            raise ValueError(f"diagram {self.vertices} does not touch both axes")
        m = self.multiplicity
        out = []
        for (a1, b1), (a2, b2) in self.faces():  # the last vertex has b = 0
            da, db = a2 - a1, b2 - b1
            for a in range(a1, a2):
                top = -((-b1 * da - db * (a - a1)) // da)  # ceil(b1 + db*(a-a1)/da)
                out += [(a, b) for b in range(max(0, m - a), top)]
        return out

    def mirrored(self) -> "NewtonDiagram":
        """The same staircase with the two coordinates swapped."""
        return NewtonDiagram(tuple((b, a) for a, b in reversed(self.vertices)))


class SingularitySpec(Value):
    """A supported singularity type.

    kind is one of "omp", "cusp", "kbranch", "diagram":
      omp(m)        ordinary point of multiplicity m >= 2, pairwise
                    non-tangent smooth branches;
      cusp(p)       one branch with local form x1^p + x2^(p+1) in
                    line-adapted coordinates (tangent {x1 = 0}, diagram
                    (0, p+1), (p, 0)), multiplicity p >= 2; also
                    spelled kbranch:p or as its diagram (see canonical);
      kbranch(p_i)  pairwise non-tangent branches with tangent cone
                    l_1^(p_1) .. l_k^(p_k), generic next jet;
      diagram(nd)   the linear type of a Newton diagram, traced along the
                    tangent line on its vertical axis; a diagram with
                    tangent lines on both axes is refused (see canonical).
    """

    __slots__ = _fields = ("kind", "mults", "diagram")

    def __init__(self, kind: str, mults: tuple[int, ...] = (),
                 diagram: NewtonDiagram | None = None):
        self._assign(kind=kind, mults=mults, diagram=diagram)

    # every degree-memo lookup hashes and compares its types: read the
    # fields directly, not through the generic _values()
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind == other.kind and self.mults == other.mults
                and self.diagram == other.diagram)

    def __hash__(self) -> int:
        return hash((self.kind, self.mults, self.diagram))

    @classmethod
    def omp(cls, m: int) -> "SingularitySpec":
        if m < 2:
            raise ValueError("an ordinary multiple point needs multiplicity >= 2")
        return cls("omp", (m,))

    @classmethod
    def cusp(cls, p: int) -> "SingularitySpec":
        if p < 2:
            raise ValueError("a cusp needs multiplicity >= 2")
        return cls("cusp", (p,))

    @classmethod
    def kbranch(cls, *mults: int) -> "SingularitySpec":
        if not mults or any(m < 1 for m in mults):
            raise ValueError("branch multiplicities must be positive")
        if sum(mults) < 2:
            raise ValueError("a marked-branch type needs total multiplicity >= 2")
        return cls("kbranch", tuple(mults))

    @classmethod
    def from_diagram(cls, nd: NewtonDiagram) -> "SingularitySpec":
        return cls("diagram", (), nd)

    @property
    def determinacy_order(self) -> int:
        """Jet order that already fixes the topological type."""
        if self.kind == "omp":
            return self.mults[0]
        if self.kind == "cusp":
            return self.mults[0] + 1
        if self.kind == "kbranch":
            p = sum(self.mults)
            # all multiplicities 1 is an ordinary point; otherwise the
            # generic (p+1)-jet participates
            return p if all(m == 1 for m in self.mults) else p + 1
        if self.kind == "diagram":
            assert self.diagram is not None
            return max(a + b for a, b in self.diagram.vertices)
        raise ValueError(f"unsupported kind {self.kind!r}")

    def canonical(self) -> "SingularitySpec":
        """The normal form of the type: one spelling per type.

        The diagram route traces the tangent line {x1 = 0} on the vertical
        axis.  The lowest jet (the vertices on a + b = m) is divisible by
        x1^alpha and x2^beta, alpha the least a and beta the least b there,
        so alpha > 0 makes {x1 = 0} a tangent and beta > 0 makes {x2 = 0}
        one.  beta > 0 alone is mirrored.  alpha = beta = 0 is a homogeneous
        diagram, an ordinary point without a distinguished tangent, and
        becomes omp:m.  alpha > 0 and beta > 0 put tangents on both axes;
        the route traces only one of them, so no generator follows the
        other: ValueError.  A diagram that is then (0, p+1), (p, 0) with
        p >= 2 is the cusp and becomes cusp:p; with p = 1 it is a smooth
        point and stays a diagram, which no route builds.

        The branches of a marked-branch type are unordered, so a kbranch
        type lists its multiplicities in descending order: kbranch:1,2 and
        kbranch:2,1 are one type with one stratum.  A single branch,
        kbranch:p, is the cusp and becomes cusp:p.  Other kinds are
        returned unchanged.
        """
        if self.kind == "kbranch":
            if len(self.mults) == 1:
                return SingularitySpec.cusp(self.mults[0])
            mults = tuple(sorted(self.mults, reverse=True))
            return self if mults == self.mults else SingularitySpec("kbranch", mults)
        if self.kind != "diagram":
            return self
        nd = self.diagram
        m = nd.multiplicity
        jet = [(a, b) for a, b in nd.vertices if a + b == m]
        alpha, beta = jet[0][0], jet[-1][1]
        if alpha and beta:
            raise ValueError(
                f"diagram {nd.vertices} has tangent lines on both axes (multiplicities "
                f"{alpha} and {beta}); the diagram route traces only one of them")
        if not alpha and not beta:
            return SingularitySpec.omp(m)
        if beta:
            nd = nd.mirrored()
        if m >= 2 and nd.vertices == ((0, m + 1), (m, 0)):
            return SingularitySpec.cusp(m)
        return self if nd is self.diagram else SingularitySpec.from_diagram(nd)

    def describe(self) -> str:
        if self.kind == "omp":
            return f"omp:{self.mults[0]}"
        if self.kind == "cusp":
            return f"cusp:{self.mults[0]}"
        if self.kind == "kbranch":
            return "kbranch:" + ",".join(str(m) for m in self.mults)
        return "diagram:" + ",".join(f"{a},{b}" for a, b in self.diagram.vertices)


def cusp_diagram(p: int) -> NewtonDiagram:
    """Diagram of the cusp of multiplicity p in canonical orientation."""
    return NewtonDiagram(((0, p + 1), (p, 0)))


def collide_omp(p: int, q: int) -> NewtonDiagram:
    """Diagram of the generic collision of ordinary points of multiplicities p+1 >= q+1.

    The merged singularity is p-q pairwise non-tangent smooth branches
    together with q+1 branches of pairwise contact order two; its diagram
    has vertices (p+1, 0), (q+1, p-q), (0, p+q+2).  For p = q the middle
    vertex is absorbed by the staircase.
    """
    if not p >= q >= 1:
        raise ValueError(f"need p >= q >= 1, got ({p}, {q})")
    return NewtonDiagram.from_points([(p + 1, 0), (q + 1, p - q), (0, p + q + 2)])


def residual_multiplicity(p: int, q: int) -> int:
    """Multiplicity of the excess piece over the merged locus: q + 1."""
    if not p >= q >= 1:
        raise ValueError(f"need p >= q >= 1, got ({p}, {q})")
    return q + 1


def is_linear(nd: NewtonDiagram) -> bool:
    """True when every face slope magnitude lies in [1/2, 2]."""
    # faces run rightwards and down: the magnitude is (b1-b2)/(a2-a1)
    return all(a2 - a1 <= 2 * (b1 - b2) and b1 - b2 <= 2 * (a2 - a1)
               for (a1, b1), (a2, b2) in nd.faces())
