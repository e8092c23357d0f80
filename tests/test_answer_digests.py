"""The digests of ``answer_digests.py``, pinned: a change that moves any
answer, witness or error message of the groups fails here."""

import pytest

import answer_digests
from nilorbits import faithful as fa
from nilorbits import partitions as pt

PINNED = {
    "fibres":
        "26a7166f18a01eedbb4c7edb1e5d5d06a82a8697163289369dc9ae19f66c1166",
    "reports-twist":
        "4627e7632be801552f4d2338c2b887ad3fb1ead5ce6390b70a3cf8a0d73b30e3",
    "reports-no-twist":
        "a326346708ad5e8c072f1c14d83e603f900216c906a316c85c9d4b39d2175fe9",
    "families":
        "d448872f9920cd7471e1d507477016b099707841535499237757aa931fc96751",
    "classes":
        "1ac481b114f5463daa98d97d5f3b2f838a09ddb9facdc54afdf50452f53813a8",
    "restrictions":
        "5478ff30bac4a600ebee51899f7f0f6f79ee53257c0b48de712be9932b170351",
    "duality":
        "e0358660e3e0d7973853628bfdd7d814001bfc7e6589997f690afa9f30bded30",
    "order":
        "5b9788eff9c6c5676cc63f488074a1ab36f8dbff9ed5c6e5fa1f49e9f7a3b72e",
}

# every ``verify_faithful`` report of B, C and D at rank 16, with the sign
# twist, rendered as the ``reports-twist`` group renders its reports
RANK_16_REPORTS = \
    "b20f03913da9bf45c73b90e31adbbf2342541bef3af1112aa90302093b0da944"


def test_every_group_is_pinned():
    assert set(answer_digests.GROUPS) == set(PINNED)


@pytest.mark.slow
@pytest.mark.parametrize("group", sorted(PINNED))
def test_answer_digest(group):
    lines = answer_digests.GROUPS[group]()
    assert answer_digests.digest(lines) == PINNED[group]


@pytest.mark.slow
def test_rank_16_reports_digest():
    lines = (answer_digests._render(fa.verify_faithful, lam, letter, True)
             for letter in pt.LETTERS
             for lam in pt.enumerate_orbits(pt.dual_letter(letter), 16, 16))
    assert answer_digests.digest(lines) == RANK_16_REPORTS
