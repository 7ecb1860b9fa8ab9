"""Seeded synthetic corpora for the benchmark, written as rulesmith input files.

Both tasks are generated. Intent samples are multi-turn dialogues, some
with OCR text; image-scene samples are OCR text, some with a short user
turn. Text mixes ASCII words with CJK words (whose 2- and 3-grams become
keyword tokens) and renders every ASCII word in a case or full-width
variant, so matching only works after NFKC normalisation and case-folding.

Each label owns one planted giveaway token that appears in a fixed share of
that label's samples and nowhere else. Background words are shared by all
labels, with a per-label signature that is more frequent but never
exclusive, so multi-predicate rules carry some signal without covering
everything.

The same seed gives byte-identical files. Sample counts, turn counts and
the two fixed samples at the end of every test set do not depend on the
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ASCII_WORDS = (
    "order refund parcel size colour price coupon invoice address return "
    "exchange broken late missing stock gift member points payment receipt "
    "courier track status cancel deliver package damaged quality fit small "
    "large sleeve cotton screen battery charger cable case lid strap zipper "
    "button pocket label sticker photo link page detail cart discount"
).split()

CJK_WORDS = (
    "订单 退款 物流 快递 发货 收货 地址 颜色 尺码 质量 价格 优惠 客服 售后 "
    "包装 破损 换货 链接 库存 赠品 发票 评价 签收 运费 促销 活动 会员 积分 "
    "支付 截图 页面 商品 详情 图片 金额 退货单 保修期 说明书 充电器 数据线 "
    "外包装 优惠券 购物车 聊天记录 物流单号 售后服务"
).split()

# A planted token is "zq" plus a fixed-width code; no background word
# contains "zq", and equal-width codes cannot contain one another.
PLANT_PREFIX = "zq"

# Two test samples whose content never depends on the seed. They are
# present in every test set; the remote classifier stub answers them with
# a malformed reply on a first attempt (see stub.py).
FIXED_TEST_IDS = ("fixed-000", "fixed-001")


@dataclass(frozen=True)
class CorpusShape:
    intent_labels: int
    scene_labels: int
    train_per_label: int
    test_per_label: int
    plant_share: float


def intent_label(i: int) -> str:
    return f"intent-{i:02d}"


def scene_label(i: int) -> str:
    return f"scene-{i:02d}"


def plant_token(label_index: int) -> str:
    """Normalised planted token of the label with this global index."""
    first, second = divmod(label_index, 26)
    return PLANT_PREFIX + chr(ord("a") + first) + chr(ord("a") + second)


def _variant(word: str, rng: random.Random) -> str:
    if not word.isascii():
        return word
    pick = rng.randrange(5)
    if pick == 1:
        word = word.upper()
    elif pick == 2:
        word = word.capitalize()
    if pick >= 3:  # full-width forms, NFKC-equivalent to ASCII
        word = "".join(chr(ord(c) + 0xFEE0) for c in word)
        if pick == 4:
            word = word.upper()
    return word


class _Writer:
    def __init__(self, seed: int, shape: CorpusShape) -> None:
        self.rng = random.Random(f"corpus|{seed}")
        self.shape = shape
        labels = [intent_label(i) for i in range(shape.intent_labels)] + [
            scene_label(i) for i in range(shape.scene_labels)
        ]
        self.labels = labels
        # Signatures are ASCII only: a CJK word yields several n-gram tokens
        # with one score, which could crowd a planted token out of the top
        # proposals if the word became label-exclusive by chance. They do not
        # depend on the seed, so that seeds vary the samples but not how much
        # the labels overlap, which sets how many rules survive the filter.
        self.signature = {
            label: [ASCII_WORDS[(7 * i + 11 * k) % len(ASCII_WORDS)] for k in range(6)]
            for i, label in enumerate(labels)
        }
        self.pool = ASCII_WORDS + CJK_WORDS

    def words(self, label: str, n: int) -> list[str]:
        out = []
        for _ in range(n):
            source = self.signature[label] if self.rng.random() < 0.3 else self.pool
            out.append(_variant(self.rng.choice(source), self.rng))
        return out

    def plant(self, texts: list[list[str]], label_index: int) -> None:
        target = self.rng.choice([t for t in texts if t] or texts)
        target.insert(self.rng.randrange(len(target) + 1),
                      _variant(plant_token(label_index), self.rng))

    def sample(self, sample_id: str, label_index: int, serial: int, planted: bool) -> dict:
        label = self.labels[label_index]
        if label_index < self.shape.intent_labels:
            task = "intent"
            n_turns = 2 + serial % 3
            turns = [self.words(label, 3 + self.rng.randrange(4)) for _ in range(n_turns)]
            ocr = self.words(label, 2 + self.rng.randrange(4)) if serial % 3 == 0 else []
            speakers = ["user" if k % 2 == 0 else "service_rep" for k in range(n_turns)]
        else:
            task = "image_scene"
            turns = [self.words(label, 2 + self.rng.randrange(3))] if serial % 4 == 0 else []
            ocr = self.words(label, 4 + self.rng.randrange(5))
            speakers = ["user"] * len(turns)
        if planted:
            self.plant(turns + [ocr], label_index)
        return {
            "id": sample_id,
            "task": task,
            "turns": [{"speaker": s, "text": " ".join(t)} for s, t in zip(speakers, turns)],
            "ocr_text": " ".join(ocr),
            "image_ref": f"img/{sample_id}.png" if task == "image_scene" else None,
            "gold_label": label,
        }

    def split(self, prefix: str, per_label: int) -> list[dict]:
        n_planted = round(self.shape.plant_share * per_label)
        records = []
        for index in range(len(self.labels)):
            for i in range(per_label):
                serial = index * per_label + i
                records.append(self.sample(f"{prefix}-{serial:05d}", index, serial, i < n_planted))
        return records


def _fixed_samples() -> list[dict]:
    return [
        {
            "id": FIXED_TEST_IDS[0],
            "task": "intent",
            "turns": [
                {"speaker": "user", "text": "where is my parcel 快递 status"},
                {"speaker": "service_rep", "text": "checking the 物流 now"},
            ],
            "ocr_text": "",
            "image_ref": None,
            "gold_label": intent_label(0),
        },
        {
            "id": FIXED_TEST_IDS[1],
            "task": "image_scene",
            "turns": [],
            "ocr_text": "订单 page detail 金额",
            "image_ref": "img/fixed-001.png",
            "gold_label": scene_label(0),
        },
    ]


@dataclass(frozen=True)
class Corpus:
    labels: dict[str, list[str]]
    train: list[dict]
    test: list[dict]
    planted: dict[str, str]  # label -> normalised planted token


def generate(seed: int, shape: CorpusShape) -> Corpus:
    writer = _Writer(seed, shape)
    labels = {
        "intent": writer.labels[: shape.intent_labels],
        "image_scene": writer.labels[shape.intent_labels :],
    }
    train = writer.split("tr", shape.train_per_label)
    test = writer.split("te", shape.test_per_label) + _fixed_samples()
    planted = {label: plant_token(i) for i, label in enumerate(writer.labels)}
    return Corpus(labels=labels, train=train, test=test, planted=planted)


def write_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_inputs(corpus: Corpus, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "labels.json").write_text(
        json.dumps(corpus.labels, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    write_jsonl(corpus.train, directory / "train.jsonl")
    write_jsonl(corpus.test, directory / "test.jsonl")
