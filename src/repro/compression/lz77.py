"""LZ77 string matching (the dictionary stage of the GZIP engine model).

Produces DEFLATE-compatible tokens: literals, and (length, distance)
back-references with length in [3, 258] and distance in [1, 32768].
Matching uses hash chains over 3-byte prefixes, like zlib's deflate.
"""

from __future__ import annotations

from typing import List, NamedTuple, Union

WINDOW_SIZE = 32768
MIN_MATCH = 3
MAX_MATCH = 258


class Literal(NamedTuple):
    """A single uncompressed byte."""

    byte: int


class Match(NamedTuple):
    """A back-reference: copy ``length`` bytes from ``distance`` back."""

    length: int
    distance: int


Token = Union[Literal, Match]


def tokenize(data: bytes, max_chain: int = 64) -> List[Token]:
    """Convert ``data`` into a token stream.

    ``max_chain`` bounds how many previous positions are probed per byte —
    the usual speed/ratio knob of hardware LZ engines.
    """
    if max_chain < 1:
        raise ValueError(f"max_chain must be >= 1, got {max_chain}")
    tokens: List[Token] = []
    n = len(data)
    # hash of 3-byte prefix -> list of positions (most recent last).
    head: dict = {}
    position = 0
    while position < n:
        best_length = 0
        best_distance = 0
        if position + MIN_MATCH <= n:
            key = data[position:position + MIN_MATCH]
            candidates = head.get(key)
            if candidates:
                limit = min(MAX_MATCH, n - position)
                probes = 0
                for candidate in reversed(candidates):
                    if position - candidate > WINDOW_SIZE:
                        break
                    probes += 1
                    if probes > max_chain:
                        break
                    length = _match_length(data, candidate, position, limit)
                    if length > best_length:
                        best_length = length
                        best_distance = position - candidate
                        if length == limit:
                            break
        if best_length >= MIN_MATCH:
            tokens.append(Match(best_length, best_distance))
            # Insert hash entries for every covered position (cheap greedy
            # variant: insert the first few to keep chains useful).
            end = position + best_length
            insert_end = min(end, n - MIN_MATCH + 1)
            for insert_pos in range(position, insert_end):
                head.setdefault(data[insert_pos:insert_pos + MIN_MATCH],
                                []).append(insert_pos)
            position = end
        else:
            tokens.append(Literal(data[position]))
            if position + MIN_MATCH <= n:
                head.setdefault(key, []).append(position)
            position += 1
    return tokens


def _match_length(data: bytes, candidate: int, position: int, limit: int) -> int:
    length = 0
    while (length < limit
           and data[candidate + length] == data[position + length]):
        length += 1
    return length


def detokenize(tokens: List[Token]) -> bytes:
    """Reconstruct the original byte stream from tokens."""
    output = bytearray()
    for token in tokens:
        if isinstance(token, Literal):
            output.append(token.byte)
        else:
            if token.distance < 1 or token.distance > len(output):
                raise ValueError(
                    f"invalid back-reference distance {token.distance} at "
                    f"output length {len(output)}")
            if not MIN_MATCH <= token.length <= MAX_MATCH:
                raise ValueError(f"invalid match length {token.length}")
            start = len(output) - token.distance
            for offset in range(token.length):
                output.append(output[start + offset])
    return bytes(output)
