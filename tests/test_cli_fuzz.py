"""Fuzz ``cli.main`` over mutated input files and argument vectors.

Each file example takes one file of a small valid run, applies one
mutation to it and runs a command that reads the file. Whatever the
bytes, the command returns 0, 1 or 2 and raises nothing, and on exit 1 it
prints one ``error:`` line. Each argument-vector example makes one edit
to a command's valid arguments; the command returns 0 or 1, the same way.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radstyle.cli as cli
from radstyle.harness import SOURCES
from radstyle.synthetic import make_synthetic_corpus

# the files a command reads; the last four are style-eval's
KINDS = ("dataset", "graphs", "vectors", "embeddings", "baseline", "config",
         "human", "generated", "sets", "answers")
MUTATIONS = ("truncate", "retype", "drop_key", "nul", "bad_utf8",
             "surrogate")
# what "retype" puts in place of a value: one of each JSON type, and
# extremes that a check may miss
VALUES = (None, True, False, 0, -1, 10**30, 1.5, float("nan"), float("inf"),
          "", "x", [], [0], {}, {"k": 1})


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """A valid file of each kind, and the config that names the run's."""
    out = tmp_path_factory.mktemp("fuzz_corpus")
    paths = make_synthetic_corpus(out, n_records=14, n_train=10, seed=1)
    files = {kind: paths[kind] for kind in ("dataset", "graphs", "embeddings",
                                            "baseline", "config")}
    records = [json.loads(line) for line in
               paths["dataset"].read_text(encoding="utf-8").splitlines()]
    files["vectors"] = out / "vectors.json"
    files["vectors"].write_text(json.dumps(
        {r["study_id"]: r["pathology_vector"] for r in records}))
    human = {f"r{i}": [f"rad {i} human report {j}" for j in range(6)]
             for i in range(2)}
    generated = {f"r{i}": [f"rad {i} generated report {j}" for j in range(2)]
                 for i in range(2)}
    for kind, doc in (("human", human), ("generated", generated)):
        files[kind] = out / f"{kind}.json"
        files[kind].write_text(json.dumps(doc))
    files["sets"] = out / "sets.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["style-eval", "assemble", "--human",
                         str(files["human"]), "--generated",
                         str(files["generated"]), "--sets", "4",
                         "--out", str(files["sets"])]) == 0
    files["answers"] = out / "answers.json"
    files["answers"].write_text(json.dumps({"e1": [0, 1, 2, 3],
                                            "e2": [3, 3, 3, 3]}))
    config = yaml.safe_load(paths["config"].read_text(encoding="utf-8"))
    del config["output"]   # each example writes in its own directory
    config["vectors"] = str(files["vectors"])
    config["experiment"]["shots"] = [0, 1]   # two rows keep examples quick
    eval_study = next(r["study_id"] for r in records if r["split"] == "test")
    return files, config, eval_study


def _slots(doc, dicts_only):
    """Every (container, key) pair below ``doc``; with ``dicts_only``,
    only those whose container is an object."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            if isinstance(node, dict) or not dicts_only:
                slots.append((node, key))
            stack.append(child)
    return slots


def mutate(data: bytes, kind: str, mutation: str, where: int, value) -> bytes:
    """``data``, the bytes of a file of ``kind``, with one mutation at the
    place ``where`` picks."""
    if mutation == "truncate":
        return data[:where % (len(data) + 1)]
    if mutation in ("nul", "bad_utf8"):
        at = where % (len(data) + 1)
        return data[:at] + (b"\0" if mutation == "nul" else b"\xff") + data[at:]
    text = data.decode("utf-8")
    if kind == "config":
        doc = yaml.safe_load(text)
    elif kind == "dataset":
        doc = [json.loads(line) for line in text.splitlines()]
    else:
        doc = json.loads(text)
    slots = _slots(doc, dicts_only=mutation == "drop_key")
    if mutation == "surrogate":   # a string value or an object's key
        slots = [(node, key) for node, key in slots
                 if isinstance(node, dict) or isinstance(node[key], str)]
    if slots:
        node, key = slots[where % len(slots)]
        old = node[key]
        if mutation == "drop_key":
            del node[key]
        elif mutation == "surrogate":
            # "\ud800" decodes to a lone surrogate, which UTF-8 cannot
            # encode; json.dumps and yaml.safe_dump write it escaped
            if isinstance(node, dict) and (not isinstance(old, str)
                                           or where // len(slots) % 2):
                node[key + "\ud800"] = node.pop(key)
            else:
                node[key] = old + "\ud800"
        elif type(value) is not type(old):
            node[key] = value
        else:
            node[key] = None if old is not None else "x"
    if kind == "config":   # the output section first: see _run
        return yaml.safe_dump(doc, sort_keys=False).encode("utf-8")
    if kind == "dataset":
        return "".join(json.dumps(d) + "\n" for d in doc).encode("utf-8")
    return json.dumps(doc).encode("utf-8")


def _main(argv, tmp):
    """``cli.main(argv)`` run in ``tmp``; returns the exit code and stderr.
    A run that exits 0 has renamed its spool into place."""
    # Like a terminal's, this stdout refuses text that UTF-8 cannot
    # encode; a terminal's stderr escapes it, as a StringIO keeps it.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)   # a config without output.directory writes here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    if code == 0:
        assert not list(Path(tmp).rglob("*.partial")), argv
    return code, err.getvalue()


def one_error_line(err: str) -> bool:
    """Whether ``err`` is one ``error:`` line, by every line break
    ``str.splitlines`` knows (``\u2028`` too), not just ``\n``."""
    return (err.startswith("error:") and err.endswith("\n")
            and len(err.splitlines()) == 1)


def _run(files, config, eval_study, kind, mutation, where, value, mode,
         other_command):
    """Mutate the ``kind`` file in a scratch directory and run a command
    that reads it; returns the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Output first, so a truncated config that cuts its directory
        # short has lost the dataset too and writes nothing.
        config = {"output": {"directory": str(tmp / "results"),
                             "prefix": "run"}, **config}
        if kind == "config":
            data = yaml.safe_dump(config, sort_keys=False).encode("utf-8")
        else:
            data = files[kind].read_bytes()
        path = tmp / f"{kind}.input"
        path.write_bytes(mutate(data, kind, mutation, where, value))
        config_path = tmp / "config.yaml"
        if kind != "config":
            config_path.write_text(yaml.safe_dump({**config, kind: str(path)}),
                                   encoding="utf-8")
        evaluate = ["evaluate", "--mode", mode, "--config",
                    str(path if kind == "config" else config_path)]
        if kind in ("human", "generated"):
            other = {"human": files["human"],
                     "generated": files["generated"], kind: path}
            argv = ["style-eval", "assemble", "--human", str(other["human"]),
                    "--generated", str(other["generated"]), "--sets", "4",
                    "--out", str(tmp / "sets.json"), "--render"]
        elif kind in ("sets", "answers"):
            other = {"sets": files["sets"], "answers": files["answers"],
                     kind: path}
            argv = ["style-eval", "score", "--sets", str(other["sets"]),
                    "--answers", str(other["answers"])]
        elif kind == "dataset" and other_command:
            argv = ["prompt", "--shots", "1", "--dataset", str(path),
                    "--eval-study", eval_study]
        elif kind == "graphs" and other_command:
            argv = ["serialize", str(path)]
        else:
            argv = evaluate
        return _main(argv, tmp)


@settings(max_examples=300, deadline=None)
# a YAML error's text spans lines: this one printed two
@example(kind="config", mutation="nul", where=0, value=None, mode="ser2rep",
         other_command=False)
# a study id holding a lone surrogate: hashing it for the example draw
# raised UnicodeEncodeError
@example(kind="dataset", mutation="surrogate", where=0, value=None,
         mode="ser2rep", other_command=False)
@given(kind=st.sampled_from(KINDS), mutation=st.sampled_from(MUTATIONS),
       where=st.integers(min_value=0, max_value=2**32),
       value=st.sampled_from(VALUES), mode=st.sampled_from(sorted(SOURCES)),
       other_command=st.booleans())
def test_cli_survives_a_mutated_input_file(run_files, kind, mutation, where,
                                           value, mode, other_command):
    files, config, eval_study = run_files
    code, err = _run(files, config, eval_study, kind, mutation, where, value,
                     mode, other_command)
    assert code in (0, 1, 2)
    if code == 1:
        assert one_error_line(err), err


# what a fuzzed argument vector puts in place of one of its tokens; the
# last two hold a line break, which an error quoting them must escape
JUNK = ("-1", "x", "", "--nope", "a\nb", "a\u2028b")


def _valid_argvs(run_files, tmp):
    """One valid argument vector per command, reading copies of the run's
    files in ``tmp``, so that no vector writes over a fixture file."""
    files, config, eval_study = run_files
    copy = {}
    for kind in ("dataset", "graphs", "human", "generated", "sets",
                 "answers"):
        copy[kind] = str(tmp / files[kind].name)
        Path(copy[kind]).write_bytes(files[kind].read_bytes())
    config_path = tmp / "config.yaml"
    config_path.write_text(yaml.safe_dump(
        {**config, "dataset": copy["dataset"], "graphs": copy["graphs"],
         "output": {"directory": str(tmp / "results"), "prefix": "run"}}),
        encoding="utf-8")
    return {
        "serialize": ["serialize", copy["graphs"]],
        "prompt": ["prompt", "--shots", "1", "--seed", "3", "--dataset",
                   copy["dataset"], "--eval-study", eval_study],
        "evaluate": ["evaluate", "--mode", "ser2rep", "--config",
                     str(config_path)],
        "assemble": ["style-eval", "assemble", "--human", copy["human"],
                     "--generated", copy["generated"], "--sets", "4",
                     "--seed", "1", "--out", str(tmp / "out.json"),
                     "--render"],
        "score": ["style-eval", "score", "--sets", copy["sets"],
                  "--answers", copy["answers"]],
    }


def test_each_valid_argument_vector_exits_zero(run_files, tmp_path):
    for argv in _valid_argvs(run_files, tmp_path).values():
        assert _main(argv, tmp_path) == (0, ""), argv


def mutate_argv(argv: list[str], edit: str, at: int, other: int,
                junk: str) -> list[str]:
    """``argv`` with one token dropped, duplicated, swapped with another
    or replaced by ``junk``."""
    argv = list(argv)
    i, j = at % len(argv), other % len(argv)
    if edit == "drop":
        del argv[i]
    elif edit == "duplicate":
        argv.insert(i, argv[i])
    elif edit == "swap":
        argv[i], argv[j] = argv[j], argv[i]
    else:
        argv[i] = junk
    return argv


@settings(max_examples=200, deadline=None)
# a usage error exited 2 with argparse's two-line usage text
@example(command="evaluate", edit="drop", at=4, other=0, junk="x")
# an error quoting a token that holds a line break printed two lines:
# "cannot read a" then "b: [Errno 2] ...", and "unrecognized arguments: a"
# then "b 3"
@example(command="serialize", edit="junk", at=1, other=0, junk="a\nb")
@example(command="prompt", edit="junk", at=3, other=0, junk="a\nb")
@example(command="serialize", edit="junk", at=1, other=0, junk="a\u2028b")
@given(command=st.sampled_from(("serialize", "prompt", "evaluate",
                                "assemble", "score")),
       edit=st.sampled_from(("drop", "duplicate", "swap", "junk")),
       at=st.integers(min_value=0, max_value=64),
       other=st.integers(min_value=0, max_value=64),
       junk=st.sampled_from(JUNK))
def test_cli_survives_a_mutated_argument_vector(run_files, command, edit, at,
                                                other, junk):
    """Whatever one edit does to a valid argument vector, the command
    returns 0 or 1, and on 1 prints one ``error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = mutate_argv(_valid_argvs(run_files, Path(tmp))[command], edit,
                           at, other, junk)
        code, err = _main(argv, tmp)
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert one_error_line(err), (argv, err)
