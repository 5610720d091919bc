"""Generator-protocol stub that answers with cluster members and with strangers.

    python stub_member_generator.py CLUSTERS_JSONL

Each input line is three control tokens, then a sentence. When the
sentence's first letter code plus its lex level over 5 is even, and the
first cluster of CLUSTERS_JSONL holding the sentence has another member,
the line is answered with one of those members, picked by the syn level.
Every other line is answered with a sentence that no cluster holds.
"""

import json
import re
import sys

STRANGER = "a sentence that no cluster holds"


def main(argv):
    members = {}
    with open(argv[0], encoding="utf-8") as fh:
        for line in fh:
            sentences = json.loads(line)["sentences"]
            for s in sentences:
                members.setdefault(s, [t for t in sentences if t != s])
    out = []
    for line in sys.stdin.read().split("\n")[:-1]:
        syn, lex, sentence = re.fullmatch(r"<sem_\d+> <syn_(\d+)> <lex_(\d+)> (.*)", line).groups()
        others = members.get(sentence, [])
        if others and (ord(sentence[0]) + int(lex) // 5) % 2 == 0:
            out.append(others[int(syn) // 5 % len(others)])
        else:
            out.append(STRANGER)
    sys.stdout.write("".join(text + "\n" for text in out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
