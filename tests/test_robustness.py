"""Every input, valid or not, ends in a record or in a clean exit 2 or 3
with one message, and never in a traceback."""

import contextlib
import io
import random
import subprocess
import sys
import traceback

import pytest

from linequiv.cli import main

from conftest import checkout_env

# the pieces edge lists, DOT and matrix files are made of, so that many
# strings get past the first line; a few raw bytes break the encoding
TOKENS = (b"a", b"b", b"v1", b"2", b"1", b"0", b"-1", b"1/2", b" ", b" ", b"\n", b"\n",
          b"->", b";", b",", b"{", b"}", b"[", b"]", b"=", b'"x"', b"#", b"//", b"/*",
          b"vertex", b"digraph", b"label", b"subgraph")

COMMANDS = (["invariants"], ["invariants", "--json"], ["diagram"], ["reduce"],
            ["contract"], ["oracle"], ["oracle", "--matrix"])


def _junk(rng: random.Random, wrapped: bool) -> bytes:
    data = b"".join(rng.choice(TOKENS) if rng.random() < 0.98 else bytes([rng.randrange(256)])
                    for _ in range(rng.randrange(24)))
    return b"digraph { " + data + b" }" if wrapped else data


def _matrix_junk(rng: random.Random) -> bytes:
    """A small matrix pair file, one of its tokens replaced half the time."""
    e, v = rng.randrange(4), rng.randrange(4)
    lines = [[str(e), str(v)]] + [[rng.choice(("0", "1", "-1", "2", "1/2")) for _ in range(v)]
                                  for _ in range(2 * e)]
    tokens = [t for line in lines for t in [*line, "\n"]]
    if rng.random() < 0.5:
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS).decode()
    return " ".join(tokens).encode()


def test_random_bytes_end_in_a_record_or_exit_2(tmp_path):
    rng = random.Random(20261019)
    path = tmp_path / "input"
    bad = []
    for i in range(300):
        data = _matrix_junk(rng) if i % 4 == 0 else _junk(rng, wrapped=i % 2 == 1)
        path.write_bytes(data)
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main([*argv, str(path)])
                except Exception:  # any escape is a failure; keep the input with it
                    code = traceback.format_exc()
            if code not in (0, 2):
                bad.append((data, argv, code))
    assert not bad, bad[:5]


def _limit_address_space():
    import resource
    limit = 400 * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS to bound the child's memory")
def test_out_of_memory_exits_3_without_a_traceback():
    # 10^9 vertices cannot fit in 400 MB: the child fails its allocation
    # within a second or two instead of running for hours
    done = subprocess.run(
        [sys.executable, "-m", "linequiv.cli", "fuzz", "--vertices", "1000000000",
         "--count", "1"],
        env=checkout_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert done.returncode == 3
    assert done.stderr == "error: out of memory\n"
    assert done.stdout == ""
