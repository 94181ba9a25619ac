"""Seeded input generator for the benchmark workloads.

Everything here is the benchmark's own: the name vocabularies, the noise
model and the choice of near-miss negatives.  This module imports nothing
from editcrf; the workloads only wrap its rows in editcrf's record and
pair types.  So a change to the library's synthesis or pair generation
cannot alter these inputs or the time it takes to make them.
"""

import random
from typing import List, Tuple

FIRST = (
    "aaron", "abigail", "adam", "adrian", "alan", "albert", "alice", "alicia",
    "amanda", "amber", "amy", "andrea", "andrew", "angela", "anna", "anthony",
    "arthur", "ashley", "barbara", "benjamin", "betty", "beverly", "brandon",
    "brenda", "brian", "bruce", "carl", "carol", "caroline", "catherine",
    "charles", "cheryl", "christian", "christina", "christopher", "cynthia",
    "daniel", "david", "deborah", "denise", "dennis", "diana", "donald",
    "donna", "dorothy", "douglas", "dylan", "edward", "elizabeth", "emily",
    "emma", "eric", "ethan", "eugene", "evelyn", "frances", "frank",
    "gabriel", "gary", "george", "gloria", "grace", "gregory", "hannah",
    "harold", "heather", "helen", "henry", "isabella", "jack", "jacob",
    "jacqueline", "james", "janet", "janice", "jason", "jean", "jeffrey",
    "jennifer", "jeremy", "jerry", "jessica", "joan", "john", "jonathan",
    "jordan", "jose", "joseph", "joshua", "joyce", "juan", "judith", "julia",
    "julie", "justin", "karen", "katherine", "kathleen", "kelly", "kenneth",
    "kevin", "kimberly", "larry", "laura", "lawrence", "linda", "lisa",
    "logan", "louis", "madison", "margaret", "maria", "marie", "marilyn",
    "mark", "martha", "mary", "matthew", "megan", "melissa", "michael",
    "michelle", "nancy", "natalie", "nathan", "nicholas", "nicole", "noah",
    "olivia", "pamela", "patricia", "patrick", "paul", "peter", "philip",
    "rachel", "ralph", "raymond", "rebecca", "richard", "robert", "roger",
    "ronald", "rose", "russell", "ruth", "samantha", "samuel", "sandra",
    "sara", "scott", "sean", "sharon", "shirley", "sophia", "stephanie",
    "stephen", "steven", "susan", "teresa", "terry", "thomas", "timothy",
    "tyler", "victoria", "vincent", "virginia", "walter", "wayne", "william",
    "zachary",
)

LAST = (
    "adams", "allen", "alvarez", "anderson", "bailey", "baker", "barnes",
    "bell", "bennett", "brooks", "brown", "bryant", "butler", "campbell",
    "carter", "castillo", "chavez", "clark", "coleman", "collins", "cook",
    "cooper", "cox", "cruz", "davis", "diaz", "edwards", "evans", "fisher",
    "flores", "ford", "foster", "garcia", "gibson", "gomez", "gonzalez",
    "gordon", "graham", "gray", "green", "griffin", "hall", "hamilton",
    "harris", "hayes", "henderson", "hernandez", "hill", "howard", "hughes",
    "jackson", "james", "jenkins", "jimenez", "johnson", "jones", "jordan",
    "kelly", "kennedy", "kim", "king", "lee", "lewis", "long", "lopez",
    "marshall", "martin", "martinez", "mendoza", "miller", "mitchell",
    "moore", "morales", "morgan", "morris", "murphy", "murray", "myers",
    "nelson", "nguyen", "ortiz", "owens", "parker", "patel", "patterson",
    "perez", "perry", "peterson", "phillips", "powell", "price", "ramirez",
    "ramos", "reed", "reyes", "reynolds", "richardson", "rivera", "roberts",
    "robinson", "rodriguez", "rogers", "ross", "ruiz", "russell", "sanchez",
    "sanders", "scott", "simmons", "smith", "stewart", "sullivan", "taylor",
    "thomas", "thompson", "torres", "turner", "walker", "wallace", "ward",
    "washington", "watson", "west", "white", "williams", "wilson", "wood",
    "wright", "young",
)

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _length_schedule(n: int, stream: str) -> List[int]:
    """Target name lengths, the same for every seed, so that the work in a
    repetition depends little on the seed."""
    rng = random.Random(f"lengths:{stream}")
    return [rng.randint(8, 18) for _ in range(n)]


def _name(rng: random.Random, length: int) -> str:
    """A random name of exactly `length` characters: "first last",
    sometimes with a middle name or initial."""
    while True:
        first, last = rng.choice(FIRST), rng.choice(LAST)
        roll = rng.random()
        if roll < 0.15:
            name = f"{first} {rng.choice(LETTERS)} {last}"
        elif roll < 0.25:
            name = f"{first} {rng.choice(FIRST)} {last}"
        else:
            name = f"{first} {last}"
        if len(name) == length:
            return name


def _near_miss(name: str, rng: random.Random) -> str:
    """A different name that shares all tokens of `name` but one, the
    replacement having the same length as the token it replaces."""
    words = name.split()
    k = rng.choice((0, len(words) - 1))
    vocab = FIRST if k == 0 else LAST
    choices = [w for w in vocab if len(w) == len(words[k]) and w != words[k]]
    if not choices:
        k = len(words) - 1 - k
        vocab = FIRST if k == 0 else LAST
        choices = [w for w in vocab if len(w) == len(words[k]) and w != words[k]]
    words[k] = rng.choice(choices)
    return " ".join(words)


def base_names(rng: random.Random, n: int) -> List[str]:
    """n distinct names with the lengths of the fixed schedule.  Names come
    from small vocabularies on purpose, so many distinct entities share a
    token and make near-miss negatives."""
    out, seen = [], set()
    for length in _length_schedule(n, "records"):
        name = _name(rng, length)
        while name in seen:
            name = _name(rng, length)
        seen.add(name)
        out.append(name)
    return out


def noisy(name: str, rng: random.Random) -> str:
    """One noisy copy: word swap, then character typos, each at random.

    A copy is never empty and never identical to its source, so every
    positive pair needs at least one edit."""
    while True:
        text = name
        words = text.split()
        if len(words) >= 2 and rng.random() < 0.4:
            words[0], words[-1] = words[-1], words[0]
            text = " ".join(words)
        for _ in range(rng.choice((1, 1, 2, 3))):
            kind = rng.random()
            pos = rng.randrange(len(text))
            if kind < 0.35:
                text = text[:pos] + rng.choice(LETTERS) + text[pos:]
            elif kind < 0.65 and len(text) > 3:
                text = text[:pos] + text[pos + 1 :]
            elif kind < 0.85 and pos + 1 < len(text):
                text = text[:pos] + text[pos + 1] + text[pos] + text[pos + 2 :]
            else:
                text = text[:pos] + rng.choice(LETTERS) + text[pos + 1 :]
        text = " ".join(text.split())
        if text and text != name:
            return text


def records(
    seed: int, stream: str, n_entities: int, per_entity: int
) -> List[Tuple[str, str, str]]:
    """(record_id, entity_id, text) rows: each entity's base name plus
    per_entity - 1 noisy copies."""
    rng = random.Random(f"records:{stream}:{seed}")
    rows = []
    for e, name in enumerate(base_names(rng, n_entities)):
        entity = f"e{e:04d}"
        rows.append((f"{entity}-0", entity, name))
        for d in range(1, per_entity):
            rows.append((f"{entity}-{d}", entity, noisy(name, rng)))
    return rows


def labeled_pairs(
    seed: int, stream: str, n_pairs: int, positive_share: float
) -> List[Tuple[str, str, str, int]]:
    """(pair_id, x, y, z) rows, names drawn to the fixed length schedule.

    Positives pair a name with a noisy copy, or two noisy copies.  Half of
    the negatives are near misses: two names that differ in one token,
    each possibly noisy.  The rest pair two unrelated names."""
    rng = random.Random(f"pairs:{stream}:{seed}")
    lengths = _length_schedule(2 * n_pairs, "pairs")
    rows = []
    n_pos = round(n_pairs * positive_share)
    for k in range(n_pairs):
        name = _name(rng, lengths[2 * k])
        if k < n_pos:
            x = name if rng.random() < 0.5 else noisy(name, rng)
            y = noisy(name, rng)
            z = 1
        else:
            other = name
            while other == name:
                if rng.random() < 0.5:
                    other = _near_miss(name, rng)
                else:
                    other = _name(rng, lengths[2 * k + 1])
            x = name if rng.random() < 0.5 else noisy(name, rng)
            y = other if rng.random() < 0.5 else noisy(other, rng)
            z = 0
        if rng.random() < 0.5:
            x, y = y, x
        rows.append((f"{stream}{k:05d}", x, y, z))
    rng.shuffle(rows)
    return rows


def tiny_pairs(seed: int, n: int) -> List[Tuple[str, str]]:
    """Short pairs (length <= 3) over a small alphabet, small enough for
    brute-force enumeration of every alignment."""
    rng = random.Random(f"tiny:{seed}")
    out = []
    while len(out) < n:
        x = "".join(rng.choice("ab1") for _ in range(rng.randint(0, 3)))
        y = "".join(rng.choice("ab1") for _ in range(rng.randint(0, 3)))
        if x or y:
            out.append((x, y))
    return out


def size_of(pairs) -> dict:
    """Pairs and characters in a list of labeled pairs."""
    return {"pairs": len(pairs), "chars": sum(len(p.x) + len(p.y) for p in pairs)}
