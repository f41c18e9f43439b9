"""Token inventory with fixed reserved ids.

Id 0 is the blank, id 1 the start symbol fed to the prediction network,
id 2 the unknown-token bucket. User tokens follow in the order given.
"""

from contextlib import contextmanager

BLANK = 0
SOS = 1
UNK = 2
RESERVED = ("<blank>", "<sos>", "<unk>")


@contextmanager
def open_text(path):
    """``open(path)`` for reading UTF-8 text: a byte that is not UTF-8, met
    in the ``with`` body, raises ``ValueError`` that starts with the path."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e})") from None


class Vocab:
    def __init__(self, tokens):
        tokens = list(tokens)
        if tuple(tokens[:3]) != RESERVED:
            raise ValueError(f"vocab must start with {RESERVED}, got {tokens[:3]}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocab contains duplicate tokens")
        self.tokens = tokens
        self._index = {tok: i for i, tok in enumerate(tokens)}

    @classmethod
    def build(cls, user_tokens):
        """Vocab from user tokens only; reserved entries are prepended."""
        return cls(list(RESERVED) + [t for t in user_tokens if t not in RESERVED])

    @classmethod
    def load(cls, path):
        with open_text(path) as f:
            tokens = [line.strip() for line in f if line.strip()]
        try:
            return cls(tokens)
        except ValueError as e:  # a repeated token or no reserved prefix
            raise ValueError(f"{path}: {e}") from None

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @property
    def size(self):
        return len(self.tokens)

    @property
    def user_tokens(self):
        return self.tokens[3:]

    def id(self, token):
        return self._index.get(token, UNK)

    def ids(self, tokens):
        return [self._index.get(t, UNK) for t in tokens]

    def string(self, ids):
        return [self.tokens[i] for i in ids]
