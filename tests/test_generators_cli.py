import subprocess
import sys

import pytest

import twinplanar as tp
from twinplanar import plane_graph as pg
from twinplanar import seq_bipartite, seq_planar
from twinplanar.cli import main


def test_gen_triangulation_seed_figure():
    g = tp.gen_triangulation(4, 0)
    assert g.n == 4 and g.m == 6
    with pytest.raises(Exception):
        tp.gen_triangulation(3, 0)


def test_gen_quad_2x2_is_c4():
    g = tp.gen_grid(2, 2)
    assert g.n == 4 and g.m == 4
    assert g.face_lengths() == [4, 4]


def test_generated_graphs_pass_invariants():
    for seed in range(8):
        g = tp.gen_triangulation(50, seed)
        assert g.is_simple()
        assert set(g.face_lengths()) == {3}
        q = tp.gen_stacked_quadrangulation(50, seed)
        assert q.is_simple()
        assert set(q.face_lengths()) == {4}
        assert pg.two_coloring(q) is not None


def test_same_seed_byte_identical():
    a = pg.write_plane(tp.gen_triangulation(60, 42))
    b = pg.write_plane(tp.gen_triangulation(60, 42))
    assert a == b
    c = pg.write_plane(tp.gen_triangulation(60, 43))
    assert a != c


# -- CLI -------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_gen_seq_verify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "g.plane"
    spath = tmp_path / "g.seq"
    code, out, _ = run_cli(["gen", "tri", "--n", "40", "--seed", "7",
                            "--out", str(gpath)], capsys)
    assert code == 0
    assert "prng=python-mt19937" in gpath.read_text()
    code, out, _ = run_cli(["seq", str(gpath), "--mode", "planar",
                            "--out", str(spath)], capsys)
    assert code == 0
    w_build = int(out.split()[-1])
    assert w_build <= 8
    code, out, _ = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert code == 0
    assert int(out.split()[-1]) == w_build  # round-trip equality


def test_cli_seq_assert_mode(tmp_path, capsys):
    gpath = tmp_path / "g.plane"
    run_cli(["gen", "quad", "--n", "60", "--seed", "3", "--out", str(gpath)],
            capsys)
    code, out, _ = run_cli(["seq", str(gpath), "--mode", "bipartite",
                            "--assert"], capsys)
    assert code == 0
    assert int(out.split()[-1]) <= 6


def test_cli_verify_width_zero_twin_sequence(tmp_path, capsys):
    g = tp.gen_triangulation(4, 0)  # K4
    gpath = tmp_path / "k4.plane"
    gpath.write_text(pg.write_plane(g))
    seq = tp.ContractionSequence(4, [("k", 0, 1, 4), ("k", 2, 3, 5),
                                     ("k", 4, 5, 6)])
    spath = tmp_path / "k4.seq"
    spath.write_text(tp.write_seq(seq))
    code, out, _ = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert code == 0
    assert out.strip() == "width 0"


def test_cli_exact(tmp_path, capsys):
    p = tmp_path / "p4.edges"
    p.write_text(pg.write_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    code, out, _ = run_cli(["exact", str(p)], capsys)
    assert code == 0
    assert out.strip() == "width 1"


@pytest.mark.parametrize("record", ["e 0 5", "e 0 x"],
                         ids=["endpoint-past-n", "non-integer"])
def test_cli_exact_rejects_bad_edge_record(tmp_path, capsys, record):
    p = tmp_path / "bad.edges"
    p.write_text(f"p edge 3 1\n{record}\n")
    code, _, err = run_cli(["exact", str(p)], capsys)
    assert code == 1
    assert f"line 2: {record!r}" in err


def test_cli_prep_triangulate(tmp_path, capsys):
    p = tmp_path / "c4.plane"
    g = tp.gen_grid(2, 2)
    p.write_text(pg.write_plane(g))
    out_path = tmp_path / "tri.plane"
    code, _, _ = run_cli(["prep", "triangulate", str(p),
                          "--out", str(out_path)], capsys)
    assert code == 0
    g2 = pg.parse_plane(out_path.read_text())
    assert set(g2.face_lengths()) == {3}
    assert "map 0 0" in out_path.read_text()


def test_cli_tree(tmp_path, capsys):
    p = tmp_path / "g.plane"
    p.write_text(pg.write_plane(tp.gen_triangulation(10, 1)))
    code, out, _ = run_cli(["tree", str(p)], capsys)
    assert code == 0
    parents = [int(x) for x in out.split()]
    assert len(parents) == 10 and parents.count(-1) == 1


def test_cli_bench(tmp_path, capsys):
    code, out, _ = run_cli(["bench", "--mode", "planar", "--sizes", "30",
                            "--seeds", "2"], capsys)
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()]
    assert len(rows) == 2
    for n, mode, width, ms in rows:
        assert n == "30" and mode == "planar" and int(width) <= 8
        float(ms)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.plane"
    bad.write_text("p plane x\n")
    code, _, err = run_cli(["seq", str(bad), "--mode", "planar"], capsys)
    assert code == 1
    tri = tmp_path / "c5.edges"
    tri.write_text(pg.write_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4),
                                          (4, 0)]))
    code, _, err = run_cli(["seq", str(tri), "--mode", "bipartite",
                            "--embed"], capsys)
    assert code == 2
    assert "odd cycle" in err


def test_cli_embed_flag_required_for_edge_lists(tmp_path, capsys):
    p = tmp_path / "g.edges"
    p.write_text(pg.write_edge_list(3, [(0, 1), (1, 2)]))
    code, _, err = run_cli(["seq", str(p), "--mode", "planar"], capsys)
    assert code == 1
    code, out, _ = run_cli(["seq", str(p), "--mode", "planar", "--embed"],
                           capsys)
    assert code == 0


def test_console_entrypoint():
    r = subprocess.run([sys.executable, "-m", "twinplanar.cli", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "twinplanar" in r.stdout


@pytest.mark.parametrize("mode", ["planar", "bipartite"])
def test_cli_empty_graph_is_a_typed_error(tmp_path, mode):
    p = tmp_path / "empty.plane"
    p.write_text("p plane 0 0\n")
    r = subprocess.run([sys.executable, "-m", "twinplanar.cli", "seq", str(p),
                        "--mode", mode], capture_output=True, text=True)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "empty graph" in r.stderr


@pytest.mark.parametrize("mode, module, width", [
    ("planar", seq_planar, 9), ("bipartite", seq_bipartite, 7)],
    ids=["planar", "bipartite"])
def test_cli_seq_enforces_width_bound(tmp_path, capsys, monkeypatch, mode,
                                      module, width):
    def over_bound(n, edges, seq):
        return tp.WidthReport(width, [width] * len(seq.steps), True)

    monkeypatch.setattr(module, "verify_sequence", over_bound)
    p = tmp_path / "grid.plane"
    p.write_text(pg.write_plane(tp.gen_grid(3, 3)))
    code, out, err = run_cli(["seq", str(p), "--mode", mode], capsys)
    assert code == 2
    assert f"verified width {width} exceeds the bound" in err
    assert out == ""
