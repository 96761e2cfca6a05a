"""The README's code and command block run as printed."""

import json
import re
import shlex
from pathlib import Path

from maxminpass.cli import CONFIG_BLOCKS, EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(heading):
    """The README's text from ``heading`` to the next heading of its level."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def fenced(section, lang):
    """The fenced ``lang`` blocks of a README section, in order."""
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def write_readme_config(tmp_path):
    """The command section's example ``hardy.json``, written to tmp_path."""
    section = readme_section("## Command line")
    config = re.search(r"Example config \(`hardy.json`\):\s*```json\n(.*?)```", section, re.S)
    (tmp_path / "hardy.json").write_text(config.group(1))


def test_library_sketch_routes_agree(capsys, tmp_path):
    [sketch] = fenced(readme_section("## Library sketch"), "python")
    scope = {}
    exec(compile(sketch, "README.md", "exec"), scope)
    curve = scope["curve"]
    c_maxmin, c_mpa = curve.c_maxmin, scope["mpa"].c_mpa
    assert abs(c_maxmin - c_mpa) / abs(c_mpa) <= 1e-9
    assert capsys.readouterr().out.split() == [repr(c_maxmin), repr(c_mpa)]
    # the sketch and the CLI run one max-min pipeline on the example config
    write_readme_config(tmp_path)
    assert main(["maxmin", "--config", str(tmp_path / "hardy.json"), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "maxmin_summary.json").read_text())
    for name in ("c_maxmin", "lambda_star", "lambda_star_star", "lambda_bar"):
        assert summary[name] == getattr(curve, name), name


def test_each_command_writes_the_files_the_readme_lists(tmp_path):
    # Each line of the command block names, after '#', what that command
    # writes; comparison.json follows once both summaries exist.
    write_readme_config(tmp_path)
    [commands] = fenced(readme_section("## Command line"), "sh")
    out = tmp_path / "results"
    files = set()
    for line in commands.splitlines():
        argv, listed = line.split("#")
        _prog, *args = shlex.split(argv)
        args = [str(tmp_path / a) if a in ("hardy.json", "results") else a for a in args]
        assert main(args) == EXIT_OK, line
        expected = {name.strip() for name in listed.split(",")}
        if {"maxmin_summary.json", "mpa_summary.json"} <= files | expected:
            expected.add("comparison.json")
        written = {p.name for p in out.iterdir()} - files
        assert written == expected - files, line
        files |= written
    assert json.loads((out / "comparison.json").read_text())["relative_gap"] <= 1e-9


def test_config_paragraph_names_every_config_key():
    # "A config has the blocks ...": the top-level names outside parentheses,
    # and each block's keys inside the parentheses after its name
    section = " ".join(readme_section("## Command line").split())
    start = section.index("A config has the blocks")
    sentence = re.split(r"\.\s+(?=[A-Z])", section[start:])[0]
    top = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert sorted(top) == sorted(["problem", "output_dir", *CONFIG_BLOCKS])
    for block, keys in CONFIG_BLOCKS.items():
        [listed] = re.findall(rf"`{block}` \(([^)]*)\)", sentence)
        assert re.findall(r"`(\w+)`", listed) == list(keys), block
