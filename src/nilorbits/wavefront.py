"""Wavefront-set formulas on top of the duality layer.

The wavefront set of an irreducible Weyl-group character is the Achar dual of
its dual-side Springer support with trivial marking; for an Iwahori-spherical
representation with real infinitesimal character the canonical unramified
wavefront set is the same formula evaluated at the orbit of its involution
dual, and the algebraic wavefront set is the underlying partition.
"""

from __future__ import annotations

from . import duality as du
from . import partitions as pt
from . import springer as sp
from . import symbols as sy
from .duality import MarkedOrbit
from .partitions import Partition, PartitionError


@pt._record
class WavefrontResult:
    """Canonical unramified wavefront set plus its algebraic shadow (the
    underlying orbit partition)."""

    canonical_unramified: MarkedOrbit
    algebraic: Partition

    def __post_init__(self):
        if self.algebraic != self.canonical_unramified.orbit:
            raise PartitionError(
                "the algebraic wavefront set must be the orbit of the "
                "canonical unramified one")

    def __str__(self) -> str:
        return str(self.canonical_unramified)


def wf_of_wrep(rep: sp.WeylIrrep) -> MarkedOrbit:
    """Wavefront set of an irreducible character: Achar dual of the
    dual-side Springer support, trivially marked.  The support is constant
    on a similarity class of s-symbols, so it is read once per class, from
    the entries of the character's minimal dual-side s-symbol."""
    entries = sy._s_entries(rep.first, rep.second,
                            pt._DUAL_LETTERS[rep.letter])  # letter checked
    return _wf_of_class(rep.letter, entries, rep.kappa)


@pt._memo
def _wf_of_class(letter: str, entries: tuple[int, ...],
                 kappa: int) -> MarkedOrbit:
    # ``springer_support``'s step after the rows has checked the orbit's
    # type, so the orbit goes to the Achar dual without ``d_A_triv``'s
    # second check
    support = sp._support_of_entries(entries, pt.dual_letter(letter), kappa)
    return du._d_A_of_orbit(letter, pt.bare(support))[0]


def wf_iwahori_real(az_dual_orbit, letter: str) -> WavefrontResult:
    """Wavefront set of an Iwahori-spherical representation with real
    infinitesimal character, given the nilpotent orbit of its involution
    dual's parameter (computing that dual is out of scope here)."""
    marked = du.d_A_triv(az_dual_orbit, letter)
    return WavefrontResult(marked, marked.orbit)


def wf_lower_bound_holds(h_orbit, candidate: MarkedOrbit,
                         letter: str) -> bool:
    """Whether the candidate wavefront set dominates the bound coming from
    an infinitesimal character of the form q^(h/2)."""
    bound = du.d_A_triv(h_orbit, letter)
    if candidate.letter != letter:
        raise PartitionError(f"candidate has type {candidate.letter}, "
                             f"expected {letter}")
    return du.le_A(bound, candidate)
