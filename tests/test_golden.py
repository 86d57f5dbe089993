"""Golden digests: the SHA-256 of stdout for fixed CLI commands.

Reruns of one build are checked for byte identity elsewhere; these digests
pin the bytes across code changes too.  A digest changes only when the
output does, so a change that is meant to keep the analytic numbers must
keep every digest here.
"""

import hashlib

import pytest

from wedge_cot.cli import main

GOLDEN = {
    "orbits":
        "c7d40c85cc5373c3a89be2c0e74c215b33f46ec0c83640ed0739e58d526726a2",
    "orbits --beta 0.2":
        "d7a44e824134dc860f894feaec9d52f0348bd61a15ed3332988e761015dc96a0",
    "spectrum --format csv":
        "2713425845768a1b98630933b7dcf4bd6ff3dfa415be52248934d41d6205769e",
    "spectrum --format json":
        "f2240478c66ce9d17d3bb804e7c3d7221c89ee3575a524fc2ad9c2b05b61215b",
    "decompose --format csv":
        "2c1a4b35a663e0973e169e178558e2af117257bc2d9b512094cbc1f2b595af0a",
    "decompose --format json":
        "fa8531d9542df8285d3fa8a634f4d6a5f7225f3089592363796c1316819bab51",
    "sweep-rho --format csv":
        "4b7a405014d21ddaece7448294ddc620628b0201b14596f6306f1e804937a6f2",
    "sweep-rho --format json":
        "21fa3963bb81edc4dd6b8ee6f148a1e4051d672d1f7ae912804ed2c0ac7b414d",
    "sweep-beta --format csv":
        "fc993ccdf3a99a5c8b2a4461f99eae00926ff94d41d8aad149cb1b799880ab88",
    "sweep-beta --format json":
        "6cc7d8be7b1500fa5b1a864d3d7b4199c2032e7336c21ae53848183cc65b19cf",
    "polmap --format csv":
        "3f677723313248364a30e2ee7005be1d99d5f7b6c2ca0086ffbb378f56af1dfb",
    "polmap --format json":
        "394666b31847563b49aa191e8b87998d17f7725b7a006258f1addf9946b14ec4",
    "orbits --orbit-source numeric":
        "4c92415dabb1a15788d58dc12e5aee06ab647a5cc5529f45a3ea86e2a0b45df3",
    "sweep-rho --orbit-source numeric --steps 16 --format csv":
        "9c89a69d1885e260b056b87440cef9e661893aba94a3c3219ccc9746a7a43b64",
    # Off pi/N: the numeric catalog is the images in radians.
    "orbits --alpha 1 --orbit-source numeric":
        "96761e162d54950e60f5527120e501386ea9a7b6f9f40b2a7f8426a7bcea5915",
    "decompose --alpha 1 --orbit-source numeric --steps 16 --format csv":
        "ca4856ac735c533776536d42c0578864c96609abe74a64318392576d0e3330ff",
    "sweep-rho --alpha 1 --orbit-source numeric --steps 16 --format csv":
        "190e9ed0dcc9bca469e84f0804b8bab5ab6a9b31f2652891a053f5bb385b1d8e",
    "sweep-beta --alpha 1 --orbit-source numeric --steps 16 --format csv":
        "d8ac5fe3f2619661d38a24b1819189b4012bed1c2ff295cfd1100775d3b766e3",
    "sweep-beta --alpha 1 --orbit-source numeric --steps 16 --format json":
        "53c72976d3f98ee13e444f27f3923caad940a4314cee658729e00a745e9fdb32",
    # Narrow wedges: about 300 and 3,000 images.
    "orbits --alpha 0.02 --beta 0.01 --orbit-source numeric":
        "19c84a15fc79fe2d35d2b35a3242b354165813c2b18fa25799b903381c25e4e3",
    "sweep-beta --alpha 0.02 --orbit-source numeric --steps 64":
        "22db2e633cb49e15a128b2170f4d190b66864b704844f9f486b34d577937f839",
    "sweep-beta --alpha 0.0021 --orbit-source numeric --steps 8":
        "dcd74c5c6189cea28473bbd425802ad080c5e8dece51153dd70a82a210c15bd1",
    # Just below pi/4, where odd images leave the catalog inside the band.
    "sweep-beta --alpha 0.78532 --orbit-source numeric --steps 64 --delta soft "
    "--pol 1.1,0.4":
        "1d44acf30f4f6987a70e5f9aa16f417d01c293b6df7cf73d85208d4528e2472f",
}


def _stdout_digest(argv, capsys) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_digest(command, capsys):
    assert _stdout_digest(command.split(), capsys) == GOLDEN[command]
