"""Byte-identity of the mock run's artifacts.

The hashes pin the text table, the CSV table and ``scores.jsonl`` of a
full ``evaluate`` + ``write_outputs`` run (identity mock plus baseline
row) on a fixed synthetic corpus. A change that only restructures code
must leave them as they are; a change that alters output on purpose
updates them and says why.
"""

import hashlib

import pytest

from radstyle.config import load_config
from radstyle.harness import evaluate, write_outputs
from radstyle.synthetic import make_synthetic_corpus

GOLDEN = {
    "ser2rep": {
        "table_txt": "e8234fea51924ff31615b63fa9d823444f25da22cbcab891534a3d6510fdcb91",
        "table_csv": "2ec7168bc9da2770b197d389a6e9b86627e5636996ebcc36acf9a3f39cb1b4e8",
        "scores": "bff8a571ee64e4f7c3d28209e9d02f3269d0c35bd2297273116e27a03c34ebc7",
    },
    "end2end": {
        "table_txt": "c39bf50973bb36f92be2cdc19fc41a39b4ecc4dd6b5d12273b1f1e9646f1622d",
        "table_csv": "a1e22dc8750c8df46a6a4404864e786f12ab1305ec753bc943473daabaa8f7ea",
        "scores": "8fcccefb6b5bd603dd7a82218940eb75c1eeba50667495d1ce30abe920af3770",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_mock_run_artifacts_are_byte_identical(tmp_path, mode):
    paths = make_synthetic_corpus(tmp_path, n_records=50, n_train=20, seed=0)
    cfg = load_config(paths["config"])
    written = write_outputs(evaluate(cfg, mode), cfg)
    digests = {kind: hashlib.sha256(written[kind].read_bytes()).hexdigest()
               for kind in GOLDEN[mode]}
    assert digests == GOLDEN[mode]
