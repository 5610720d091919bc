"""Scorer-protocol stub that counts its process starts.

    python stub_counting_scorer.py COUNT_FILE [--nan-on WORD] [--exit-on WORD]

Each start appends one line to COUNT_FILE. Every input line
(``s1<TAB>s2``) is answered with 4 * (Jaccard similarity of the
lowercased word sets - 0.5), as the benchmark's stub scorer does. With
``--nan-on WORD`` a line whose two sentences both hold WORD among their
words is answered ``nan``; with ``--exit-on WORD`` a batch holding a
sentence with WORD among its words makes the process exit with status 1.
"""

import sys


def option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def raw_score(s1, s2):
    a, b = set(s1.lower().split()), set(s2.lower().split())
    union = a | b
    jaccard = len(a & b) / len(union) if union else 1.0
    return 4.0 * (jaccard - 0.5)


def main(argv):
    with open(argv[0], "a", encoding="utf-8") as fh:
        fh.write("start\n")
    nan_on, exit_on = option(argv, "--nan-on"), option(argv, "--exit-on")
    out = []
    for line in sys.stdin.read().split("\n")[:-1]:
        s1, _, s2 = line.partition("\t")
        w1, w2 = s1.split(" "), s2.split(" ")
        if exit_on is not None and (exit_on in w1 or exit_on in w2):
            sys.stderr.write(f"refusing {line!r}\n")
            return 1
        out.append("nan" if nan_on is not None and nan_on in w1 and nan_on in w2 else f"{raw_score(s1, s2):.6f}")
    sys.stdout.write("".join(text + "\n" for text in out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
