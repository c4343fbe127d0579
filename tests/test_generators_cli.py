import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twinplanar as tp
from twinplanar import plane_graph as pg
from twinplanar import seq_planar
from twinplanar.cli import main


def test_gen_triangulation_seed_figure():
    g = tp.gen_triangulation(4, 0)
    assert g.n == 4 and g.m == 6
    with pytest.raises(Exception):
        tp.gen_triangulation(3, 0)


def test_gen_quad_2x2_is_c4():
    g = tp.gen_grid(2, 2)
    assert g.n == 4 and g.m == 4
    assert [len(w) for w in g.faces] == [4, 4]


def test_generated_graphs_pass_invariants():
    for seed in range(8):
        g = tp.gen_triangulation(50, seed)
        assert g.is_simple()
        assert {len(w) for w in g.faces} == {3}
        q = tp.gen_stacked_quadrangulation(50, seed)
        assert q.is_simple()
        assert {len(w) for w in q.faces} == {4}
        assert pg.find_odd_cycle(q) is None


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


def test_cli_verify_recheck_prints_the_plain_width(tmp_path, capsys):
    # 299 steps, so the rescan runs four times
    gpath = tmp_path / "g.plane"
    spath = tmp_path / "g.seq"
    run_cli(["gen", "tri", "--n", "300", "--seed", "5", "--out", str(gpath)],
            capsys)
    run_cli(["seq", str(gpath), "--mode", "planar", "--out", str(spath)],
            capsys)
    code, plain, _ = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert code == 0 and re.fullmatch(r"width \d\n", plain)
    code, out, err = run_cli(["verify", str(gpath), str(spath),
                              "--recheck", "64"], capsys)
    assert (code, out, err) == (0, plain, "")


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
    seq = tp.ContractionSequence(4, [(0, 1), (2, 3), (4, 5)])
    spath = tmp_path / "k4.seq"
    spath.write_text(tp.write_seq(seq))
    code, out, _ = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert code == 0
    assert out.strip() == "width 0"
    code, out, err = run_cli(["verify", str(gpath), str(spath),
                              "--recheck", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "invariant violation: debug_recheck must be >= 0, got -1\n"


def test_cli_exact(tmp_path, capsys):
    p = tmp_path / "p4.edges"
    p.write_text(pg.write_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    code, out, _ = run_cli(["exact", str(p)], capsys)
    assert code == 0
    assert out.strip() == "width 1"


@pytest.mark.parametrize("text, msg", [
    ("p edge 3 1\ne 0 5\n", "line 2: 'e 0 5'"),
    ("p edge 3 1\ne 0 x\n", "line 2: 'e 0 x'"),
    ("p foo 3 1\ne 0 1\n", "line 1: 'p foo 3 1': expected 'p edge'"),
    ("p edge 3\ne 0 1\n", "line 1: 'p edge 3'"),
    ("p edge 3 5\ne 0 1\ne 1 2\n",
     "line 1: 'p edge 3 5': declared 5 edges, found 2"),
    ("p edge 3 1\ne 0 1\np edge 3 1\n",
     "line 3: 'p edge 3 1': second 'p' header"),
], ids=["endpoint-past-n", "non-integer", "header-kind", "header-without-m",
        "edge-count-differs", "second-header"])
def test_cli_exact_rejects_bad_edge_record(tmp_path, capsys, text, msg):
    p = tmp_path / "bad.edges"
    p.write_text(text)
    code, _, err = run_cli(["exact", str(p)], capsys)
    assert code == 1
    assert msg in err
    assert "Traceback" not in err


def test_cli_verify_rejects_a_sequence_without_a_leading_header(tmp_path,
                                                                capsys):
    gpath = tmp_path / "k2.plane"
    gpath.write_text("p plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\nouter 0 0\n")
    spath = tmp_path / "pre.seq"
    spath.write_text("k 0 1 2\np tww-seq 2 1\n")
    code, out, err = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert code == 1 and out == ""
    assert err == ("error: line 1: 'k 0 1 2': step before the 'p tww-seq' "
                   "header\n")


def test_cli_verify_refuses_a_level_decrease_record(tmp_path, capsys):
    # a sequence is contractions only: `d x` is no record of the format
    gpath = tmp_path / "p3.plane"
    gpath.write_text(pg.write_plane(pg.build(3, [(0, 1), (1, 2)],
                                             [[0], [1, 2], [3]], 0)))
    spath = tmp_path / "d.seq"
    spath.write_text("p tww-seq 3 3\nk 0 1 3\nd 2\nk 3 2 4\n")
    code, out, err = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert code == 1 and out == ""
    assert err == "error: line 3: 'd 2': unknown record 'd'\n"


def test_cli_verify_calls_the_empty_sequence_of_an_empty_graph_full(
        tmp_path, capsys):
    gpath = tmp_path / "empty.plane"
    gpath.write_text("p plane 0 0\n")
    spath = tmp_path / "empty.seq"
    spath.write_text("p tww-seq 0 0\n")
    code, out, err = run_cli(["verify", str(gpath), str(spath)], capsys)
    assert (code, out, err) == (0, "width 0\n", "")


@pytest.mark.parametrize("text, n", [
    ("c converted from a p plane file\np edge 3 2\ne 0 1\ne 1 2\n", 3),
    ("p  plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\nouter 0 0\n", 2),
], ids=["edges-comment-names-plane", "plane-header-two-spaces"])
@pytest.mark.parametrize("cmd", [
    ["seq", "{g}", "--mode", "planar", "--embed"], ["exact", "{g}"],
    ["verify", "{g}", "{s}"], ["tree", "{g}", "--embed"],
    ["prep", "triangulate", "{g}", "--embed"],
], ids=["seq", "exact", "verify", "tree", "prep"])
def test_cli_reads_the_format_its_first_p_record_names(tmp_path, capsys,
                                                       text, n, cmd):
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    spath = tmp_path / "g.seq"  # merge 0 and 1, then the rest one by one
    spath.write_text(tp.write_seq(tp.ContractionSequence(
        n, [(0, 1)] + [(n + i, i + 2) for i in range(n - 2)])))
    code, out, err = run_cli([a.format(g=gpath, s=spath) for a in cmd],
                             capsys)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("mode", ["planar", "bipartite"])
def test_cli_verify_reads_an_edge_list_without_embedding(tmp_path, capsys,
                                                         mode):
    if mode == "planar":
        g = tp.gen_triangulation(60, 3)
        seq, report = tp.planar_sequence(g)
    else:
        g = tp.gen_stacked_quadrangulation(60, 3)
        seq, report = tp.bipartite_sequence(g)
    plane, edges, spath = (tmp_path / f
                           for f in ("g.plane", "g.edges", "g.seq"))
    plane.write_text(pg.write_plane(g))
    edges.write_text(pg.write_edge_list(g.n, g.edges))
    spath.write_text(tp.write_seq(seq))
    for graph in plane, edges:
        assert run_cli(["verify", str(graph), str(spath)], capsys) == (
            0, f"width {report.width}\n", "")


def test_cli_verify_of_an_edge_list_leaves_networkx_unloaded(tmp_path):
    g = tp.gen_triangulation(30, 1)
    edges, spath = tmp_path / "g.edges", tmp_path / "g.seq"
    edges.write_text(pg.write_edge_list(g.n, g.edges))
    spath.write_text(tp.write_seq(tp.planar_sequence(g)[0]))
    code = ("import sys; from twinplanar.cli import main; "
            f"code = main(['verify', {str(edges)!r}, {str(spath)!r}]); "
            "print(code, 'networkx' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("cmd", [["exact", "{g}"], ["verify", "{g}", "{s}"]],
                         ids=["exact", "verify"])
def test_cli_refuses_a_loop_in_an_edge_list(tmp_path, capsys, cmd):
    gpath, spath = tmp_path / "loop.edges", tmp_path / "g.seq"
    gpath.write_text("p edge 3 2\ne 0 0\ne 1 2\n")
    spath.write_text(tp.write_seq(tp.ContractionSequence(3, [(0, 1), (2, 3)])))
    code, out, err = run_cli([a.format(g=gpath, s=spath) for a in cmd],
                             capsys)
    assert (code, out, err) == (2, "", "invariant violation: loop edge at 0\n")


@pytest.mark.parametrize("cmd", [
    ["seq", "{g}", "--mode", "planar", "--out", "-"],
    ["exact", "{g}", "--out", "-"],
], ids=["seq", "exact"])
def test_cli_out_dash_pipes_the_sequence_alone_into_verify(
        tmp_path, capsys, monkeypatch, cmd):
    gpath = tmp_path / "g.plane"
    gpath.write_text(pg.write_plane(tp.gen_triangulation(8, 2)))
    code, out, err = run_cli([a.format(g=gpath) for a in cmd], capsys)
    assert code == 0 and re.fullmatch(r"width \d+\n", err)
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    assert run_cli(["verify", str(gpath), "-"], capsys) == (0, err, "")


@pytest.mark.parametrize("args", [
    ["bench", "--sizes", "30"], ["verify", "{g}", "{g}", "--embed"],
], ids=["bench", "verify-embed"])
def test_cli_retired_commands_and_options_are_usage_errors(tmp_path, capsys,
                                                           args):
    gpath = tmp_path / "g.plane"
    gpath.write_text(pg.write_plane(tp.gen_triangulation(8, 2)))
    with pytest.raises(SystemExit) as exc:
        main([a.format(g=gpath) for a in args])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_prep_triangulate(tmp_path, capsys):
    p = tmp_path / "c4.plane"
    g = tp.gen_grid(2, 2)
    p.write_text(pg.write_plane(g))
    out_path = tmp_path / "tri.plane"
    code, _, _ = run_cli(["prep", "triangulate", str(p),
                          "--out", str(out_path)], capsys)
    assert code == 0
    g2 = pg.parse_plane(out_path.read_text())
    assert {len(w) for w in g2.faces} == {3}
    assert "map 0 0" in out_path.read_text()


@pytest.mark.parametrize("kind", ["triangulate", "quadrangulate"])
def test_cli_prep_maps_only_the_input_ids(tmp_path, capsys, kind):
    # two components: connecting them appends a vertex the input lacks
    p = tmp_path / "two.plane"
    p.write_text(pg.write_plane(pg.build(4, [(0, 1), (2, 3)],
                                         [[0], [1], [2], [3]], 0)))
    out_path = tmp_path / "done.plane"
    code, _, err = run_cli(["prep", kind, str(p), "--out", str(out_path)],
                           capsys)
    assert (code, err) == (0, "")
    text = out_path.read_text()
    maps = [l.split()[2:] for l in text.splitlines() if l.startswith("c map")]
    assert maps == [[str(v), str(v)] for v in range(4)]
    assert pg.parse_plane(text).n > 4


def test_cli_tree(tmp_path, capsys):
    p = tmp_path / "g.plane"
    p.write_text(pg.write_plane(tp.gen_triangulation(10, 1)))
    code, out, _ = run_cli(["tree", str(p)], capsys)
    assert code == 0
    parents = [int(x) for x in out.split()]
    assert len(parents) == 10 and parents.count(-1) == 1


@pytest.mark.parametrize("cmd", [
    ["tree"], ["prep", "triangulate"], ["prep", "quadrangulate"],
    ["seq", "--mode", "planar"], ["seq", "--mode", "bipartite"],
], ids=["tree", "triangulate", "quadrangulate", "seq-planar", "seq-bipartite"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_cli_edgeless_graphs_exit_cleanly(tmp_path, capsys, cmd, n):
    p = tmp_path / "edgeless.plane"
    p.write_text(f"p plane {n} 0\n")
    code, out, err = run_cli(cmd + [str(p)], capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith(("error:", "invariant violation:"))
    if cmd == ["tree"] and n == 1:
        assert out.split() == ["-1"]
    if cmd == ["tree"] and n == 0:
        assert (code, err) == (2, "invariant violation: empty graph\n")


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


@pytest.mark.parametrize("cmd", [
    ["seq", "{bad}", "--mode", "planar"],
    ["verify", "{bad}", "{seq}"],
    ["verify", "{g}", "{bad}"],
    ["exact", "{bad}"],
    ["prep", "triangulate", "{bad}"],
    ["tree", "{bad}"],
], ids=["seq", "verify-graph", "verify-seq", "exact", "prep", "tree"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_input_that_is_not_utf8_is_a_format_error(tmp_path, capsys,
                                                      monkeypatch, cmd,
                                                      source):
    g = tmp_path / "g.plane"
    g.write_text(pg.write_plane(tp.gen_triangulation(6, 0)))
    s = tmp_path / "g.seq"
    assert run_cli(["seq", str(g), "--mode", "planar", "--out", str(s)],
                   capsys)[0] == 0
    bad = tmp_path / "bad.plane"
    bad.write_bytes(b"\xff\xfe")
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(b"\xff\xfe")))
    paths = {"bad": str(bad) if source == "file" else "-", "seq": str(s),
             "g": str(g)}
    code, out, err = run_cli([a.format(**paths) for a in cmd], capsys)
    assert code == 1
    assert err.startswith("error:") and "is not UTF-8 text" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("args, msg", [
    (["gen", "tri", "--n", "3"], "needs n >= 4"),
    (["gen", "quad", "--n", "10", "--grid", "3"], "--grid expects RxC"),
    (["gen", "quad", "--n", "10", "--grid", "axb"], "--grid expects RxC"),
    (["gen", "quad", "--n", "10", "--grid", "1x5"], "at least 2x2"),
    (["gen", "tri", "--n", "10", "--grid", "3x5"], "--grid makes a quadrangulation"),
    (["gen", "quad"], "--n is required without --grid"),
], ids=["tri-n3", "grid-no-x", "grid-not-numbers", "grid-1x5", "tri-grid",
        "quad-no-n"])
def test_cli_bad_generator_argument_is_an_error(capsys, args, msg):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("error:") and msg in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("extra", [[], ["--n", "10"]], ids=["no-n", "n-ignored"])
def test_cli_gen_grid_records_its_shape(capsys, extra):
    code, out, err = run_cli(["gen", "quad", "--grid", "3x5", *extra], capsys)
    assert code == 0 and err == ""
    assert out == pg.write_plane(tp.gen_grid(3, 5), ["gen quad grid=3x5"])


@pytest.mark.parametrize("text, msg", [
    ("p edge 3 2\ne 0 1\ne 0 1\n", "edge 0-1 repeats an earlier edge"),
    ("p edge 3 2\ne 0 1\ne 1 0\n", "edge 1-0 repeats an earlier edge"),
    ("p edge 3 2\ne 0 1\ne 2 2\n", "edge 2-2 is a loop"),
], ids=["repeated", "repeated-reversed", "loop"])
def test_cli_seq_embed_rejects_a_non_simple_edge_list(tmp_path, capsys,
                                                      text, msg):
    p = tmp_path / "multi.edges"
    p.write_text(text)
    code, out, err = run_cli(["seq", str(p), "--mode", "planar", "--embed"],
                             capsys)
    assert code == 2
    assert msg in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("text, msg", [
    ("p plane 2 1\ne 0 0 1\nr 0 0 0\nr 1 0\nouter 0 0\n", "appears twice"),
    ("p plane 1 1\ne 0 0 0\nr 0 0 0\nouter 0 0\n", "loop edge"),
    ("p plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\nouter 3 0\n", "unknown edge 3"),
    ("p plane 1 0\nr 0\nouter 3 9\n", "outer record: unknown edge 3"),
    ("p plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\nr 5 0\nouter 0 0\n",
     "line 5: 'r 5 0': vertex 5 outside 0..1"),
    ("p plane 3 2\ne 0 0 1\ne 1 0 2\nr 0 0\nr 0 0 1\nr 1 0\nr 2 1\n"
     "outer 0 0\n", "line 5: 'r 0 0 1': second rotation record for vertex 0"),
    ("p plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\nouter 0 1\nouter 0 0\n",
     "line 6: 'outer 0 0': second 'outer' record"),
    ("p plane 2 1\ne 0 0 1\np plane 2 1\nr 0 0\nr 1 0\nouter 0 0\n",
     "line 3: 'p plane 2 1': second 'p' header"),
    ("p plane -1 0\n", "line 1: 'p plane -1 0': negative count"),
    ("p plane 2 -3\n", "line 1: 'p plane 2 -3': negative count"),
    ("p plane 2 1\ne 0 0 1\nr 0 -1\nr 1 0\nouter 0 0\n",
     "line 3: 'r 0 -1': rotation at 0: unknown edge -1"),
    ("p plane 2 1\ne 0 0 1\nr 0 0\nr 1 1\nouter 0 0\n",
     "line 4: 'r 1 1': rotation at 1: unknown edge 1"),
    ("p plane 3 2\ne 0 0 1\ne 1 1 2\nr 0 0 1\nr 1 0 1\nr 2\nouter 0 0\n",
     "not a plane graph: dart 3 listed at 0 but leaves 2"),
    ("p plane 2 1\ne 0 0 1\nr 0 0\nr 1\nr 1 0\nouter 0 0\n",
     "line 5: 'r 1 0': second rotation record for vertex 1"),
    ("p plane 3 1\ne 0 0 1\nr 0 0\nr 1 0\nr 2\nouter 0 2\n",
     "outer record not incident to its vertex"),
], ids=["eid-twice-at-a-vertex", "loop-record", "outer-unknown-edge",
        "outer-without-edges",
        "rotation-vertex-out-of-range", "rotation-vertex-twice",
        "outer-twice", "second-header", "negative-n", "negative-m",
        "rotation-edge-negative", "rotation-edge-m",
        "rotation-edge-not-incident", "empty-rotation-then-second",
        "outer-not-incident"])
def test_cli_seq_rejects_a_malformed_plane_file(tmp_path, capsys, text, msg):
    p = tmp_path / "bad.plane"
    p.write_text(text)
    code, out, err = run_cli(["seq", str(p), "--mode", "planar"], capsys)
    assert code == 1
    assert err.startswith("error:") and msg in err
    assert "Traceback" not in err
    assert out == ""


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


def test_importing_the_package_leaves_networkx_unloaded():
    # embed_abstract and platonic_solids import networkx when called; an
    # import at load time would add its 130-200 ms (2-core VM) to every CLI
    # call
    r = subprocess.run([sys.executable, "-c",
                        "import sys, twinplanar, twinplanar.cli; "
                        "print('networkx' in sys.modules)"],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


SUPPORTED_API = {
    "PlaneGraph", "PlaneError", "FormatError", "build", "parse_plane",
    "write_plane", "parse_edge_list", "write_edge_list", "embed_abstract",
    "ContractionSequence", "WidthReport", "SequenceError", "verify_sequence",
    "restrict_sequence", "parse_seq", "write_seq",
    "planar_sequence", "planar_sequence_full",
    "bipartite_sequence", "bipartite_sequence_full",
    "ExactResult", "OracleError", "exact_twinwidth", "reference_verify",
    "gen_triangulation", "gen_quadrangulation", "gen_grid",
    "gen_stacked_quadrangulation", "platonic_solids",
    "InvariantChecker", "InvariantViolation", "BuilderError",
}


def test_package_exports_the_supported_api():
    assert len(tp.__all__) == len(SUPPORTED_API)
    assert set(tp.__all__) == SUPPORTED_API
    for name in tp.__all__:
        getattr(tp, name)
    # the benchmark reads the package through tp.<name>, `from twinplanar
    # import ...` and the ("twinplanar", "<name>") span targets
    used = set()
    for f in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        text = f.read_text()
        used |= set(re.findall(r"\btp\.(\w+)", text))
        for names in re.findall(r"^from twinplanar import (.+)$", text, re.M):
            used |= {x.strip() for x in names.split(",")}
        used |= set(re.findall(r"\(\"twinplanar\", \"(\w+)\"", text))
    assert "parse_plane" in used and "PlaneGraph" in used
    assert used <= SUPPORTED_API, sorted(used - SUPPORTED_API)


@pytest.mark.parametrize("mode", ["planar", "bipartite"])
def test_cli_empty_graph_is_a_typed_error(tmp_path, mode):
    p = tmp_path / "empty.plane"
    p.write_text("p plane 0 0\n")
    r = subprocess.run([sys.executable, "-m", "twinplanar.cli", "seq", str(p),
                        "--mode", mode], capture_output=True, text=True)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "empty graph" in r.stderr


@pytest.mark.parametrize("mode, width", [("planar", 9), ("bipartite", 7)],
                         ids=["planar", "bipartite"])
def test_cli_seq_enforces_width_bound(tmp_path, capsys, monkeypatch, mode,
                                      width):
    def over_bound(n, edges, seq):
        return tp.WidthReport(width, [width] * len(seq.steps), True)

    # both builders verify through the one pipeline driver in seq_planar
    monkeypatch.setattr(seq_planar, "verify_sequence", over_bound)
    p = tmp_path / "grid.plane"
    p.write_text(pg.write_plane(tp.gen_grid(3, 3)))
    code, out, err = run_cli(["seq", str(p), "--mode", mode], capsys)
    assert code == 2
    assert f"verified width {width} exceeds the bound" in err
    assert out == ""
