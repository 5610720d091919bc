"""Echo generator speaking the qcpg-kit generator line protocol.

Each stdin line is three control tokens followed by a sentence; the
sentence is written back unchanged, one line per input, so every output
is its own source and resolves to the source's tree. With
``--fail-on WORD`` a sentence containing WORD comes back as an empty
line, which the kit rejects as a failed generation; the harness
self-check uses this to prove failures are counted.

Standard library only, so a spawn costs interpreter start-up alone.
"""

import sys


def main(argv):
    fail_on = argv[argv.index("--fail-on") + 1] if "--fail-on" in argv else None
    out = []
    for line in sys.stdin.read().split("\n")[:-1]:
        sentence = line.split(" ", 3)[3] if line.count(" ") >= 3 else ""
        out.append("" if fail_on and fail_on in sentence.split() else sentence)
    sys.stdout.write("".join(text + "\n" for text in out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
