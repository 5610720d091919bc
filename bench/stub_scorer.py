"""Deterministic semantic scorer speaking the qcpg-kit scorer line protocol.

Each stdin line is ``s1<TAB>s2``; each stdout line is a raw score in
[-2, 2]: 4 * (Jaccard similarity of the lowercased word sets - 0.5).
Standard library only, so a spawn costs interpreter start-up alone.
"""

import sys


def raw_score(s1, s2):
    a, b = set(s1.lower().split()), set(s2.lower().split())
    union = a | b
    jaccard = len(a & b) / len(union) if union else 1.0
    return 4.0 * (jaccard - 0.5)


def main():
    out = []
    for line in sys.stdin.read().split("\n")[:-1]:
        s1, _, s2 = line.partition("\t")
        out.append(f"{raw_score(s1, s2):.6f}")
    sys.stdout.write("".join(text + "\n" for text in out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
