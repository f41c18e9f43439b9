"""Character-level n-gram language model with absolute-discounting backoff.

Probabilities are fully interpolated at training time: every stored
(context, token) entry already folds in the discounted mass passed down from
shorter contexts, so the scoring hit path never consults a shorter context.
A miss multiplies the context's leftover weight and recurses one order down.

Sentence handling: contexts are padded with <s>, every sentence contributes
a terminating </s> event. Unknown tokens map to <unk> (which receives
smoothed unigram mass despite a zero count).
"""

import math
from collections import Counter

import numpy as np

from .vocab import open_text

BOS = "<s>"
EOS = "</s>"
UNK_TOK = "<unk>"
MAGIC = "SATLM1"


class NgramModel:
    def __init__(self, order, discount, vocab, probs, backoffs):
        self.order = order
        self.discount = discount
        self.vocab = vocab  # sorted event tokens, includes </s> and <unk>
        self._vocab_set = set(vocab)
        self.probs = probs        # (context tuple, token) -> probability
        self.backoffs = backoffs  # context tuple -> leftover weight
        self._rows = {}           # (context, tokens) -> score_row's read-only row

    def _map(self, token):
        return token if token in self._vocab_set else UNK_TOK

    def prob(self, context, token) -> float:
        """P(token | context) with backoff; context longer than order-1 is
        truncated to its tail."""
        ctx = tuple(context)[max(0, len(context) - (self.order - 1)):]
        return _lookup(self.probs, _backoff_chain(self.backoffs, ctx), self._map(token))

    def score(self, context, token) -> float:
        """log P(token | context)."""
        return math.log(self.prob(context, token))

    def score_row(self, context, tokens) -> np.ndarray:
        """log P(token | context) for each of ``tokens``, as one read-only
        array: the bits of ``[score(context, t) for t in tokens]``, with the
        context truncated and its backoff chain built once for all the
        tokens.

        The model keeps each row it builds, keyed by the truncated context
        and the tokens, and returns it again for the same pair; a model
        never changes once built, so a row is built once per model, however
        many searches ask for it. The rows kept are at most one per context
        of ``order - 1`` tokens and token list asked for.
        """
        ctx = tuple(context)[max(0, len(context) - (self.order - 1)):]
        key = (ctx, tuple(tokens))
        row = self._rows.get(key)
        if row is None:
            chain = _backoff_chain(self.backoffs, ctx)
            row = np.array([math.log(_lookup(self.probs, chain, self._map(t))) for t in key[1]])
            row.flags.writeable = False
            self._rows[key] = row
        return row

    def sentence_logprob(self, tokens) -> float:
        ctx = [BOS]
        total = 0.0
        for tok in list(tokens) + [EOS]:
            total += self.score(ctx, tok)
            ctx.append(self._map(tok))
        return total

    def perplexity(self, sentences) -> float:
        logp, n = 0.0, 0
        for s in sentences:
            logp += self.sentence_logprob(s)
            n += len(s) + 1
        return math.exp(-logp / n)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{MAGIC}\n")
            f.write(f"order {self.order}\n")
            f.write(f"discount %.17g\n" % self.discount)
            f.write("vocab " + " ".join(self.vocab) + "\n")
            f.write(f"probs {len(self.probs)}\n")
            for (ctx, tok), p in sorted(self.probs.items()):
                f.write("%d %s%s %.17g\n" % (len(ctx), "".join(c + " " for c in ctx), tok, p))
            f.write(f"backoffs {len(self.backoffs)}\n")
            for ctx, w in sorted(self.backoffs.items()):
                f.write("%d %s%.17g\n" % (len(ctx), "".join(c + " " for c in ctx), w))

    @classmethod
    def load(cls, path):
        """Read a model that :meth:`save` wrote. A cut or malformed file
        raises ``ValueError`` that starts with the path."""
        with open_text(path) as f:
            if f.readline().strip() != MAGIC:
                raise ValueError(f"{path}: not a language model file")

            def fields():  # every line save writes ends in a newline
                line = f.readline()
                if not line.endswith("\n"):
                    raise ValueError("the file ends early")
                return line.split()

            try:
                order = int(fields()[1])
                discount = float(fields()[1])
                vocab = fields()[1:]
                probs = {}
                for _ in range(int(fields()[1])):
                    parts = fields()
                    n = int(parts[0])
                    probs[(tuple(parts[1:1 + n]), parts[1 + n])] = float(parts[2 + n])
                backoffs = {}
                for _ in range(int(fields()[1])):
                    parts = fields()
                    n = int(parts[0])
                    backoffs[tuple(parts[1:1 + n])] = float(parts[1 + n])
            except UnicodeDecodeError:
                raise  # open_text names the path
            except (IndexError, ValueError) as e:
                raise ValueError(f"{path}: cut or malformed language model file "
                                 f"({e})") from None
        return cls(order, discount, vocab, probs, backoffs)


def train(corpus, order: int = 5, discount: float = 0.75) -> NgramModel:
    """Count n-grams up to ``order`` and build the interpolated model.

    ``corpus`` is an iterable of token sequences (one per sentence).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must be in (0, 1), got {discount}")
    counts = [Counter() for _ in range(order + 1)]  # counts[k]: k-gram tuples
    n_sentences = 0
    for sent in corpus:
        sent = list(sent)
        n_sentences += 1
        events = sent + [EOS]
        padded = [BOS] * (order - 1) + events
        for i, tok in enumerate(events):
            pos = i + order - 1
            for k in range(1, order + 1):
                gram = tuple(padded[pos - k + 1:pos + 1])
                counts[k][gram] += 1
    if n_sentences == 0:
        raise ValueError("cannot train a language model from an empty corpus")

    vocab = sorted({g[0] for g in counts[1]} | {UNK_TOK, EOS})
    probs = {}
    backoffs = {}

    # Unigrams: discount each seen type, spread the collected mass uniformly
    # over the vocabulary (this is what gives <unk> nonzero probability).
    total = sum(counts[1].values())
    n_types = len(counts[1])
    uniform = 1.0 / len(vocab)
    lam1 = discount * n_types / total
    for tok in vocab:
        c = counts[1].get((tok,), 0)
        probs[((), tok)] = max(c - discount, 0.0) / total + lam1 * uniform

    for k in range(2, order + 1):
        ctx_totals = Counter()
        ctx_types = Counter()
        for gram, c in counts[k].items():
            ctx_totals[gram[:-1]] += c
            ctx_types[gram[:-1]] += 1
        for ctx in ctx_totals:
            backoffs[ctx] = discount * ctx_types[ctx] / ctx_totals[ctx]
        for gram, c in counts[k].items():
            ctx, tok = gram[:-1], gram[-1]
            lower = probs.get((ctx[1:], tok))
            if lower is None:
                # Context padding can make a k-gram whose (k-1)-suffix was
                # never counted as a (k-1)-gram; its lower-order value still
                # exists via recursion over stored entries.
                lower = _lookup(probs, _backoff_chain(backoffs, ctx[1:]), tok)
            probs[gram[:-1], tok] = (c - discount) / ctx_totals[ctx] + backoffs[ctx] * lower
    return NgramModel(order, discount, vocab, probs, backoffs)


def _backoff_chain(backoffs, ctx):
    """``ctx`` and each shorter context down to the empty one, paired with
    the product of the leftover weights that misses at the longer ones
    multiply in, in the order a lookup multiplies them."""
    chain, scale = [(ctx, 1.0)], 1.0
    while ctx:
        scale *= backoffs.get(ctx, 1.0)
        ctx = ctx[1:]
        chain.append((ctx, scale))
    return chain


def _lookup(probs, chain, tok):
    """P(tok | ctx) from the stored entries, over ctx's backoff chain: a
    miss moves one order down, where the chain's weight applies."""
    for ctx, scale in chain:
        p = probs.get((ctx, tok))
        if p is not None:
            return scale * p
    # Unigram entries exist for the whole vocabulary, so only an empty-vocab
    # model could reach this.
    raise KeyError(f"no unigram entry for {tok!r}")
