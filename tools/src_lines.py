"""Count code, doc and blank lines of the Python sources under a directory.

    python3 tools/src_lines.py [DIR]        # DIR defaults to src/

Each physical line gets one class, decided from the tokenize stream:

* code: the line holds part of any code token;
* doc: the line is not code, and holds non-whitespace text of a comment or
  of a docstring (a string literal that is a statement on its own);
* blank: every other line, empty lines inside docstrings included.

Prints one line, "code C doc D blank B total T".
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tokens):
    """Indices of STRING tokens that make up a whole statement."""
    sig = [k for k, t in enumerate(tokens)
           if t.type not in (tokenize.NL, tokenize.COMMENT)]
    out = set()
    for at, k in enumerate(sig):
        if tokens[k].type != tokenize.STRING:
            continue
        starts = at == 0 or tokens[sig[at - 1]].type in _LAYOUT
        ends = (at + 1 == len(sig) or tokens[sig[at + 1]].type
                in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if starts and ends:
            out.add(k)
    return out


def classify(source):
    """(code, doc, blank) line counts of one Python source text."""
    lines = source.splitlines()
    kind = [None] * len(lines)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    docs = _docstrings(tokens)
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        doc = tok.type == tokenize.COMMENT or k in docs
        text = tok.string.splitlines() or [""]
        for row, part in zip(range(tok.start[0], tok.end[0] + 1), text):
            i = row - 1
            if not doc:
                kind[i] = "code"
            elif kind[i] is None and part.strip():
                kind[i] = "doc"
    code = kind.count("code")
    doc = kind.count("doc")
    return code, doc, len(lines) - code - doc


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    totals = [0, 0, 0]
    for path in sorted(root.rglob("*.py")):
        for t, n in enumerate(classify(path.read_text(encoding="utf-8"))):
            totals[t] += n
    code, doc, blank = totals
    print(f"code {code} doc {doc} blank {blank} "
          f"total {code + doc + blank}")


if __name__ == "__main__":
    main(sys.argv)
