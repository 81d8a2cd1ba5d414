"""Invert the spectral constant over a class roster with the library.

    python3 bench/invert.py CLASS BOUND C

prints the JSON list of every member of CLASS (orders <= BOUND) whose c
equals the rational C, as orbheat.classify.c_preimage finds them.
"""

import json
import sys
from fractions import Fraction

from orbheat.classify import ClassKind, OrbifoldClass, c_preimage
from orbheat.signature import signature_to_json


def preimage(kind: str, bound: int, target: str) -> list:
    members = c_preimage(OrbifoldClass(ClassKind(kind), bound), Fraction(target))
    return [signature_to_json(s) for s in members]


if __name__ == "__main__":
    json.dump(preimage(sys.argv[1], int(sys.argv[2]), sys.argv[3]), sys.stdout)
