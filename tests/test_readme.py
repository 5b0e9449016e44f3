"""The README's examples, run as written: each command prints its documented line."""

from __future__ import annotations

import io
import shlex
from pathlib import Path

import pytest

from pdisk.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

CONN_JSON = """{"p": 2, "var": "z", "precision": 10, "rank": 2,
 "matrix": [["0", "1"], ["z", "0"]]}
"""

# (command after "$ ", the line it prints; "..." ends a printed prefix)
EXAMPLES = [
    (
        "pdisk pcurv -i conn.json --json",
        '{"ext_degree":1,"matrix":[["z","0"],["1","z"]],"modulus":null,"p":2,"precision":9,'
        '"rank":2,"twist_weight":2,"var":"z"}',
    ),
    (
        "pdisk phitchin -i conn.json --json",
        '{"entries":["0","z"],"ext_degree":1,"modulus":null,"p":2,"precision":5,"rank":2,"var":"z\'"}',
    ),
    (
        """echo '{"var":"z","precision":8,"series":"1 + z"}' | pdisk dlog -i - --p 2 --json""",
        '{"coefficient":"1 + z + z^2 + z^3 + z^4 + z^5 + z^6","ext_degree":1,"modulus":null,'
        '"p":2,"precision":7,"var":"z"}',
    ),
    (
        """echo '{"var":"z'\\''","precision":2,"coefficient":"1"}' | pdisk solve-hp -i - --p 2 --json""",
        '{"coefficient":"z + z^3","ext_degree":1,"modulus":null,"p":2,"precision":4,"var":"z"}',
    ),
    (
        "pdisk verify --suite exactness --p 2,3 --trials 5 --seed 0 --json",
        '{"fail":0,"failure":null,"parameters":{"p":[2,3],"precision":null,"rank":[1,2],'
        '"seed":0,"trials":5},"pass":30,...}',
    ),
]


@pytest.mark.parametrize("command,line", EXAMPLES, ids=[c.split(" | ")[-1] for c, _ in EXAMPLES])
def test_cli_example(command: str, line: str, capsys, monkeypatch, tmp_path) -> None:
    assert f"$ {command}\n{line}\n" in README
    assert f"$ cat conn.json\n{CONN_JSON}" in README
    (tmp_path / "conn.json").write_text(CONN_JSON)
    monkeypatch.chdir(tmp_path)
    words = shlex.split(command)
    if words[0] == "echo":
        monkeypatch.setattr("sys.stdin", io.StringIO(words[1]))
        words = words[3:]
    assert words[0] == "pdisk"
    assert main(words[1:]) == 0
    out = capsys.readouterr().out
    head, dots, _ = line.partition("...")
    assert out.startswith(head) if dots else out == line + "\n"


def test_library_snippet() -> None:
    _, _, rest = README.partition("## Library\n\n```python\n")
    snippet, fence, _ = rest.partition("```")
    assert fence and "solve_harmonic(conn)" in snippet
    exec(compile(snippet, "README.md", "exec"), {})
