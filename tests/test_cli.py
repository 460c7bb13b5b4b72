import numpy as np
import pytest

from qobt.cli import main


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# qobt-csv v1")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert run(["generate", "--which", "illustrative", "--out", ws / "sys"]) == 0
    assert (
        run(["reduce", "--manifest", ws / "sys/system.manifest", "--tol", "1e-8",
             "--out", ws / "rom"]) == 0
    )
    return ws


def test_generate_and_reduce(workspace):
    assert (workspace / "sys/system.manifest").is_file()
    assert (workspace / "rom/system.manifest").is_file()
    hsv = (workspace / "rom/hsv.csv").read_text().splitlines()
    assert hsv[0] == "# qobt-csv v1 hankel"
    kinds = [line.split(",")[0] for line in hsv[2:]]
    assert kinds.count("sigma") == 1
    assert kinds.count("theta") == 2


def test_hsv_command(workspace, tmp_path):
    out = tmp_path / "hsv.csv"
    assert run(["hsv", "--manifest", workspace / "sys/system.manifest", "--out", out]) == 0
    lines = out.read_text().splitlines()
    sigma = [float(l.split(",")[2]) for l in lines[2:] if l.startswith("sigma")]
    assert len(sigma) == 1 and sigma[0] > 1.0


def test_simulate_and_determinism(workspace, tmp_path):
    args = ["simulate", "--manifest", workspace / "sys/system.manifest",
            "--rom", workspace / "rom/system.manifest",
            "--signal", "0.2*exp(-t)", "--horizon", 10, "--step", 0.01,
            "--out", tmp_path / "a.csv"]
    assert run(args) == 0
    args[-1] = tmp_path / "b.csv"
    assert run(args) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header, data = read_csv(tmp_path / "a.csv")
    assert header == ["t", "y1", "yhat1", "abserr"]
    assert data[:, 3].max() <= 1e-12


def test_ablation_flag(workspace, tmp_path):
    assert (
        run(["reduce", "--manifest", workspace / "sys/system.manifest", "--tol", "1e-8",
             "--ablate-mixed", "--out", tmp_path / "rom_ab"]) == 0
    )
    assert run(["simulate", "--manifest", workspace / "sys/system.manifest",
                "--rom", tmp_path / "rom_ab/system.manifest",
                "--signal", "0.2*exp(-t)", "--horizon", 10, "--step", 0.01,
                "--out", tmp_path / "ab.csv"]) == 0
    _, full = read_csv(tmp_path / "ab.csv")
    # dropping the mixed terms visibly breaks the approximation
    assert full[:, 3].max() >= 1e-3


def test_bound_command(workspace, tmp_path):
    out = tmp_path / "report.txt"
    assert run(["bound", "--manifest", workspace / "sys/system.manifest",
                "--rom", workspace / "rom/system.manifest",
                "--signal", "0.2*exp(-t)", "--horizon", 10, "--out", out]) == 0
    entries = dict(
        line.split(" = ") for line in out.read_text().splitlines() if " = " in line
    )
    assert float(entries["bound.total"]) >= 0.0
    assert entries["nu"] == "2"


def test_verify_command(workspace):
    assert run(["verify", "--manifest", workspace / "sys/system.manifest"]) == 0


def test_exit_codes(tmp_path):
    assert run(["hsv", "--manifest", tmp_path / "missing.manifest", "--out", tmp_path / "x"]) == 3
    ws = tmp_path / "s"
    assert run(["generate", "--which", "illustrative", "--out", ws]) == 0
    assert run(["simulate", "--manifest", ws / "system.manifest", "--signal", "tan(t)",
                "--horizon", 1, "--step", 0.1, "--out", tmp_path / "y.csv"]) == 3
    with pytest.raises(SystemExit):
        run(["generate", "--which", "bogus", "--out", ws])  # argparse exits 2


def test_generate_random_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run(["generate", "--which", "random_wcf", "--nf", 3, "--ninf", 2,
                    "--nu", 2, "--seed", 7, "--out", tmp_path / name]) == 0
    assert (tmp_path / "a/E.mtx").read_bytes() == (tmp_path / "b/E.mtx").read_bytes()
    assert (tmp_path / "a/M1.mtx").read_bytes() == (tmp_path / "b/M1.mtx").read_bytes()


def test_generate_msd_small(tmp_path):
    assert run(["generate", "--which", "msd", "--g", 4, "--out", tmp_path / "m"]) == 0
    assert run(["verify", "--manifest", tmp_path / "m/system.manifest"]) == 0


def test_generate_stokes_and_order_flag(tmp_path):
    assert run(["generate", "--which", "stokes", "--k", 4, "--out", tmp_path / "s"]) == 0
    assert run(["verify", "--manifest", tmp_path / "s/system.manifest"]) == 0
    assert run(["reduce", "--manifest", tmp_path / "s/system.manifest", "--order", 3,
                "--out", tmp_path / "r"]) == 0
    from qobt.reduce import load_reduced

    rom = load_reduced(tmp_path / "r/system.manifest")
    assert rom.r_p == 3


@pytest.mark.parametrize(
    "command,flags",
    [
        ("simulate", ["--step", 0]),
        ("simulate", ["--step", -0.1]),
        ("simulate", ["--step", "nan"]),
        ("simulate", ["--horizon", 0]),
        ("simulate", ["--horizon", 0.001]),
        ("bound", ["--horizon", 0]),
        ("bound", ["--horizon", "inf"]),
        ("reduce", ["--order", -1]),
        ("reduce", ["--tol", "nan"]),
        ("reduce", ["--tol=-1e-8"]),
        ("reduce", ["--theta-tol", "nan"]),
    ],
)
def test_bad_numeric_flags_exit_3(workspace, tmp_path, capsys, command, flags):
    manifest = workspace / "sys/system.manifest"
    rom = workspace / "rom/system.manifest"
    base = {
        "simulate": ["--manifest", manifest, "--rom", rom, "--signal", "0.2*exp(-t)",
                     "--horizon", 10, "--step", 0.01, "--out", tmp_path / "y.csv"],
        "bound": ["--manifest", manifest, "--rom", rom, "--signal", "0.2*exp(-t)",
                  "--horizon", 10],
        "reduce": ["--manifest", manifest, "--out", tmp_path / "r"],
    }[command]
    # argparse keeps the last value of a repeated flag
    assert run([command, *base, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "y.csv").exists() and not (tmp_path / "r").exists()
