"""Generator-protocol stub that counts its process starts.

    python stub_counting_generator.py COUNT_FILE [--empty-on TOKENS] [--exit-on WORD]

Each start appends one line to COUNT_FILE. Every input line (three
control tokens, then a sentence) is answered with its sentence. With
``--empty-on TOKENS`` a line holding every comma-separated token among
its words (control tokens such as ``<lex_95>``, sentence words) is
answered with an empty line; with ``--exit-on WORD`` a batch holding a
sentence with WORD among its words makes the process exit with status 1.
"""

import sys


def option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def main(argv):
    with open(argv[0], "a", encoding="utf-8") as fh:
        fh.write("start\n")
    empty_on, exit_on = option(argv, "--empty-on"), option(argv, "--exit-on")
    empty_on = set(empty_on.split(",")) if empty_on is not None else None
    out = []
    for line in sys.stdin.read().split("\n")[:-1]:
        words = line.split(" ")
        sentence = " ".join(words[3:])
        if exit_on is not None and exit_on in words[3:]:
            sys.stderr.write(f"refusing {sentence!r}\n")
            return 1
        out.append("" if empty_on is not None and empty_on <= set(words) else sentence)
    sys.stdout.write("".join(text + "\n" for text in out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
