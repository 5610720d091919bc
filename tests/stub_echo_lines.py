"""Line-protocol stub: echo every stdin line back unchanged, as raw bytes.

    python stub_echo_lines.py [--crlf]

Input is split on b"\\n" only, so any other line-break character inside a
line (U+2028, U+0085, form feed, ...) is echoed as part of it. With
``--crlf`` every output line ends in b"\\r\\n" instead of b"\\n".
"""

import sys

end = b"\r\n" if "--crlf" in sys.argv[1:] else b"\n"
lines = sys.stdin.buffer.read().split(b"\n")
if lines[-1] == b"":
    lines.pop()
sys.stdout.buffer.write(b"".join(line + end for line in lines))
