"""Every ``posetsys reduce`` output of a shipped system is byte-identical to its recorded digest.

``bench/goldens.json`` pins only the block dimensions of these reductions. The
digests below pin the whole file: the compressed matrices depend on the basis
the reduction compresses with, the pivot-1 canonical basis of its subspace.
"""

import hashlib
from importlib import resources

import pytest

from posetsys import cli

REDUCE_SHA256 = {
    ("exLargeEx", "primal"): "537830925036bbf7208148b9b1daaab7efb66aec4d24c96a58ee4c4ae95c208d",
    ("exLargeEx", "dual-tilde"): "e8df25bedbbf611e0a52af15761968ea4b59a8a669c1c582de6db6dd1a626eae",
    ("exLargeEx", "dual-circ"): "e8df25bedbbf611e0a52af15761968ea4b59a8a669c1c582de6db6dd1a626eae",
    ("exObsEx", "primal"): "e8df25bedbbf611e0a52af15761968ea4b59a8a669c1c582de6db6dd1a626eae",
    ("exObsEx", "dual-tilde"): "4f1ce173a722b4af958953fd7774c3918474a916451c87796892daf7e66a55f5",
    ("exObsEx", "dual-circ"): "4f1ce173a722b4af958953fd7774c3918474a916451c87796892daf7e66a55f5",
    ("feedback-obstruction", "primal"): "d3c41242ec76d1cda095d8706494b5c474055e7564b99cfb520549b89a602c52",
    ("feedback-obstruction", "dual-tilde"): "ae66b7d6ec9c55a756e597bd2750300b26383bf87e56e953005a2d826a831bd8",
    ("feedback-obstruction", "dual-circ"): "ae66b7d6ec9c55a756e597bd2750300b26383bf87e56e953005a2d826a831bd8",
    ("kalman-structured-gap", "primal"): "0704886b6d4edc5f170bfd9ff6c034473c7505afdd48168bd55ae464d9cf4f9e",
    ("kalman-structured-gap", "dual-tilde"): "f728a0e4a5716c3b7c2a1c61c4a3483f30349c95157106b2c4736a467800531d",
    ("kalman-structured-gap", "dual-circ"): "f728a0e4a5716c3b7c2a1c61c4a3483f30349c95157106b2c4736a467800531d",
    ("strict-chain-combined", "primal"): "ef1c49553a63584b34de0dfa74f373388c5fe9ed504d474c717e382aa615fca9",
    ("strict-chain-combined", "dual-tilde"): "0b96d1489e8aab2df278c628b1db14488d6dc8c00c4d289888b23d6d1561def7",
    ("strict-chain-combined", "dual-circ"): "0b96d1489e8aab2df278c628b1db14488d6dc8c00c4d289888b23d6d1561def7",
    ("two-node-local-gap", "primal"): "b0a773c37d1e2e86113d22a28c46b4db18a6890312ded9276a1642c68458c20c",
    ("two-node-local-gap", "dual-tilde"): "f20d5343844215be78ca04cf0ab6ae60503e0740c76cf9c04e9b91e7bb932102",
    ("two-node-local-gap", "dual-circ"): "f20d5343844215be78ca04cf0ab6ae60503e0740c76cf9c04e9b91e7bb932102",
}
SHIPPED = {
    entry.name.removesuffix(".json"): entry
    for entry in resources.files("posetsys.data").iterdir()
    if entry.name.endswith(".json")
}


def test_every_shipped_system_and_variant_is_pinned():
    assert {name for name, _ in REDUCE_SHA256} == set(SHIPPED)
    assert {variant for _, variant in REDUCE_SHA256} == set(cli._VARIANT_NAMES)


@pytest.mark.parametrize("name, variant", sorted(REDUCE_SHA256), ids="-".join)
def test_reduce_file_matches_its_digest(name, variant, tmp_path, capsys):
    out = tmp_path / "reduced.json"
    assert cli.main(["reduce", str(SHIPPED[name]), str(out), "--variant", variant]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {variant} reduction to ")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REDUCE_SHA256[(name, variant)]
