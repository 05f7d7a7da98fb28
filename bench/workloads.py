"""Seeded benchmark corpora, the files they are written to and the CLI calls on them.

Every workload turns ``--seed`` into head vectors through
``randtree.generate`` (the timed set-up, which is what ``depmetrics
generate`` does), then writes them in one input format with the
benchmark's own writers. The writers, the decorations (forms, lemmas,
morphemes) and the noise come from a separate ``random.Random`` seeded from
the same seed, so the same seed always gives byte-identical files.

Why these three workloads:

* ``ud_conllu_report``: the baseline corpus of the roadmap (equal counts per
  length 2-40) as a UD-like train/dev/test split; parse-heavy, and half of
  the sentences are parsed but fall outside the default 2-20 window.
* ``bunsetsu_cabocha_report``: the paper's Japanese set-up; many short
  sentences, all inside the window, valency classes from a lexicon that
  misses some root lemmas, so the analyses take their largest share here.
* ``noisy_jsonl_metrics``: long sentences with about 10% corrupted lines
  through ``metrics -o``; covers the reject path and the per-sentence write
  path and runs no analyses, so it is the bypass for analysis changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from depmetrics import randtree, treebank

SETUP_REPEATS = 5
OUTPUT_DIR = "out"


@dataclass(frozen=True)
class Tree:
    """One sentence as the benchmark wrote it.

    ``heads`` are the head indices in the file (corrupted when ``valid`` is
    false); ``nodes`` is the sentence's node count, also for a line whose
    JSON was cut.
    """

    id: str
    heads: tuple[int, ...]
    lemmas: tuple[str, ...] | None = None
    valid: bool = True

    @property
    def nodes(self) -> int:
        return len(self.heads)


@dataclass
class Corpus:
    """A written workload: its input files, the CLI arguments and the timed set-ups."""

    directory: Path
    files: dict[str, tuple[str, list[Tree]]]  # file name -> (format, trees in file order)
    argv: list[str]
    output: str  # a file or directory under ``directory`` that the CLI writes
    sl_window: tuple[int, int] | None = None  # report window; None for ``metrics``
    lexicon: dict[str, int] | None = None
    setups: list[tuple[float, float]] = field(default_factory=list)  # (wall seconds, host slowdown)

    @property
    def trees(self) -> list[Tree]:
        return [tree for _, trees in self.files.values() for tree in trees]

    @property
    def nodes(self) -> int:
        return sum(tree.nodes for tree in self.trees)

    @property
    def input_bytes(self) -> int:
        return sum((self.directory / name).stat().st_size for name in self.files)


def _generate(lengths: range, per_length: int, seed: int, serialize: bool):
    """The timed set-up: draw the trees (and their canonical lines)."""
    sentences = []
    lines = []
    for n in lengths:
        config = randtree.GeneratorConfig(n=n, seed=seed, count=per_length)
        for sentence in randtree.generate(config):
            sentences.append(sentence)
            if serialize:
                lines.append(treebank.serialize_canonical(sentence))
    return sentences, lines


def timed_generate(lengths: range, per_length: int, seed: int, serialize: bool = False):
    """Run the set-up ``SETUP_REPEATS`` times.

    Returns the last result, and the wall time of each set-up with the host
    slowdown measured around it.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        (sentences, lines), wall, slowdown = hostspeed.bracketed(
            lambda: _generate(lengths, per_length, seed, serialize)
        )
        setups.append((wall, slowdown))
    return sentences, lines, setups


def _words(rng: random.Random, syllables: list[str], count: int, max_syllables: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(1, max_syllables))))
    return sorted(words)


_LATIN = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_KANA = list("かきくけこさしすせそたちつてとなにぬねのはひふへほまみむめもらりるれろ")
_UPOS = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "AUX", "PROPN", "NUM")


# --- ud_conllu_report ---------------------------------------------------------

UD_LENGTHS = range(2, 41)
UD_PER_LENGTH = 150
UD_SPLIT = (("ud-train.conllu", 0.6), ("ud-dev.conllu", 0.2), ("ud-test.conllu", 0.2))


def _conllu_text(trees: list[Tree], forms: list[list[str]]) -> str:
    out = []
    for tree, words in zip(trees, forms):
        out.append(f"# sent_id = {tree.id}")
        out.append("# text = " + " ".join(words))
        for i, (head, form) in enumerate(zip(tree.heads, words), 1):
            deprel = "root" if head == 0 else "dep"
            upos = _UPOS[(i * 7 + len(form)) % len(_UPOS)]
            out.append(f"{i}\t{form}\t{form.lower()}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
        out.append("")
    return "\n".join(out) + "\n"


def make_ud_conllu_report(directory: Path, seed: int) -> Corpus:
    sentences, _, setups = timed_generate(UD_LENGTHS, UD_PER_LENGTH, seed)
    rng = random.Random(f"bench:ud:{seed}")
    vocab = _words(rng, _LATIN, 3000, 4)
    heads = [s.heads() for s in sentences]
    rng.shuffle(heads)
    files: dict[str, tuple[str, list[Tree]]] = {}
    start = 0
    for index, (name, share) in enumerate(UD_SPLIT):
        end = len(heads) if index == len(UD_SPLIT) - 1 else start + round(share * len(heads))
        split = name.split("-")[1].split(".")[0]
        trees = [Tree(id=f"{split}-{k}", heads=h) for k, h in enumerate(heads[start:end], 1)]
        forms = [[rng.choice(vocab).capitalize() if i == 0 else rng.choice(vocab)
                  for i in range(tree.nodes)] for tree in trees]
        (directory / name).write_text(_conllu_text(trees, forms), encoding="utf-8")
        files[name] = ("conllu", trees)
        start = end
    return Corpus(
        directory=directory,
        files=files,
        argv=["report", *files, "--output-dir", OUTPUT_DIR],
        output=OUTPUT_DIR,
        sl_window=(2, 20),
        setups=setups,
    )


# --- bunsetsu_cabocha_report --------------------------------------------------

CAB_LENGTHS = range(2, 17)
CAB_PER_LENGTH = 600
CAB_FILE = "corpus.cabocha"
CAB_LEXICON = "lexicon.tsv"
CAB_PREDICATES = 80
CAB_LEXICON_MISSING = 16  # predicates deliberately left out of the lexicon
CAB_PARTICLES = ("が", "を", "に", "は", "で", "と", "の", "も")


def _cabocha_text(trees: list[Tree], rng: random.Random, nouns: list[str]) -> str:
    out = []
    for tree in trees:
        for i, (head, lemma) in enumerate(zip(tree.heads, tree.lemmas or ())):
            morphemes = rng.randint(1, 3)
            out.append(f"* {i} {head - 1 if head else -1}D 0/{morphemes - 1} {rng.random() * 3:.6f}")
            pos = "動詞" if head == 0 else "名詞"
            out.append(f"{lemma}\t{pos},一般,*,*,*,*,{lemma},{lemma},{lemma}")
            for _ in range(morphemes - 1):
                surface = rng.choice(CAB_PARTICLES) if rng.random() < 0.7 else rng.choice(nouns)
                out.append(f"{surface}\t助詞,格助詞,*,*,*,*,{surface},{surface},{surface}")
        out.append("EOS")
    return "\n".join(out) + "\n"


def make_bunsetsu_cabocha_report(directory: Path, seed: int) -> Corpus:
    sentences, _, setups = timed_generate(CAB_LENGTHS, CAB_PER_LENGTH, seed)
    rng = random.Random(f"bench:cabocha:{seed}")
    nouns = _words(rng, _KANA, 1500, 3)
    predicates = [word + "る" for word in _words(rng, _KANA, CAB_PREDICATES, 3)]
    missing = set(rng.sample(predicates, CAB_LEXICON_MISSING))
    lexicon = {lemma: rng.randint(1, 4) for lemma in predicates if lemma not in missing}
    heads = [s.heads() for s in sentences]
    rng.shuffle(heads)
    trees = [
        Tree(
            id=f"{CAB_FILE}#{k}",
            heads=h,
            lemmas=tuple(rng.choice(predicates) if head == 0 else rng.choice(nouns) for head in h),
        )
        for k, h in enumerate(heads, 1)
    ]
    (directory / CAB_FILE).write_text(_cabocha_text(trees, rng, nouns), encoding="utf-8")
    (directory / CAB_LEXICON).write_text(
        "# lemma<TAB>valency class\n" + "".join(f"{lemma}\t{cls}\n" for lemma, cls in lexicon.items()),
        encoding="utf-8",
    )
    sl_min, sl_max = CAB_LENGTHS[0], CAB_LENGTHS[-1]
    return Corpus(
        directory=directory,
        files={CAB_FILE: ("cabocha", trees)},
        argv=[
            "report", CAB_FILE,
            "--valency-mode", "lexicon", "--lexicon", CAB_LEXICON,
            "--sl-min", str(sl_min), "--sl-max", str(sl_max), "--dist-sls", "4,8,12,16",
            "--output-dir", OUTPUT_DIR,
        ],
        output=OUTPUT_DIR,
        sl_window=(sl_min, sl_max),
        lexicon=lexicon,
        setups=setups,
    )


# --- noisy_jsonl_metrics ------------------------------------------------------

JSONL_LENGTHS = range(41, 121)
JSONL_PER_LENGTH = 25
JSONL_FILE = "noisy.jsonl"
JSONL_NOISE = 0.1
CORRUPTIONS = ("self_loop", "second_root", "out_of_range", "cycle", "malformed_json")


def corrupt(heads: tuple[int, ...], kind: str, rng: random.Random) -> tuple[int, ...]:
    """Break one tree so that validation must reject it."""
    out = list(heads)
    root = out.index(0) + 1
    non_root = [i for i in range(1, len(out) + 1) if i != root]
    if kind == "cycle":
        # a -> b -> a, with b not the root, keeps exactly one root
        inner = [a for a in non_root if out[a - 1] != root]
        if inner:
            a = rng.choice(inner)
            out[out[a - 1] - 1] = a
            return tuple(out)
        kind = "self_loop"
    node = rng.choice(non_root)
    if kind == "self_loop":
        out[node - 1] = node
    elif kind == "second_root":
        out[node - 1] = 0
    elif kind == "out_of_range":
        out[node - 1] = len(out) + rng.randint(1, 5)
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return tuple(out)


def make_noisy_jsonl_metrics(directory: Path, seed: int) -> Corpus:
    sentences, lines, setups = timed_generate(JSONL_LENGTHS, JSONL_PER_LENGTH, seed, serialize=True)
    rng = random.Random(f"bench:jsonl:{seed}")
    order = list(range(len(sentences)))
    rng.shuffle(order)
    trees = []
    out_lines = []
    for k in order:
        sentence, line = sentences[k], lines[k]
        heads = sentence.heads()
        if rng.random() < JSONL_NOISE:
            kind = rng.choice(CORRUPTIONS)
            if kind == "malformed_json":
                line = line[: len(line) // 2]
            else:
                heads = corrupt(heads, kind, rng)
                nodes = [{"head": h, "index": i} for i, h in enumerate(heads, 1)]
                line = json.dumps({"id": sentence.id, "nodes": nodes}, sort_keys=True)
            trees.append(Tree(id=sentence.id, heads=heads, valid=False))
        else:
            trees.append(Tree(id=sentence.id, heads=heads))
        out_lines.append(line)
    (directory / JSONL_FILE).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    output = f"{OUTPUT_DIR}/metrics.jsonl"
    return Corpus(
        directory=directory,
        files={JSONL_FILE: ("canonical", trees)},
        argv=["metrics", JSONL_FILE, "-o", output],
        output=output,
        setups=setups,
    )


WORKLOADS = {
    "ud_conllu_report": make_ud_conllu_report,
    "bunsetsu_cabocha_report": make_bunsetsu_cabocha_report,
    "noisy_jsonl_metrics": make_noisy_jsonl_metrics,
}
