import subprocess
import sys
import xml.etree.ElementTree as ET
from concurrent.futures.process import BrokenProcessPool

import pytest

from ephemera.cli import main
from ephemera.metrics import write_aggregate_csv
from ephemera.metrics import AggregateRow
from ephemera.plot import PlotSeries, render_plot


def agg_rows(values):
    return [
        AggregateRow(t=i * 100, mean_knowledge=v, min_knowledge=v, max_knowledge=v,
                     mean_captured=float(i), min_captured=i, max_captured=i)
        for i, v in enumerate(values)
    ]


MINI_CFG = """
name=tiny
grid=30,30
targets_per_color=3
robots=4,2,0,0,0,0
memory_duration=50
max_iterations=120
sense_radius=4
comm_radius=8
query_cooldown=5
snapshot_interval=40
trials=2
base_seed=7
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(MINI_CFG)
    return path


# --- list ------------------------------------------------------------------------

def test_list_prints_eleven_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 11
    names = [line.split()[0] for line in out]
    assert names == ["BL", "NL", "T1K", "T2K", "T5K", "T10K", "T20K", "M1", "M2", "M3", "M4"]
    assert "duration=5000" in out[4]
    assert "size=3" in out[9]


# --- run -------------------------------------------------------------------------

def test_run_config_writes_files(tmp_path, tiny_config, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["tiny_aggregate.csv", "tiny_trial00.csv", "tiny_trial01.csv"]
    assert "tiny: 2 trials" in capsys.readouterr().out


def test_run_uses_env_output_dir(tmp_path, tiny_config, monkeypatch, capsys):
    out_dir = tmp_path / "from_env"
    monkeypatch.setenv("EPHEMERA_OUT", str(out_dir))
    assert main(["run", "--config", str(tiny_config)]) == 0
    assert (out_dir / "tiny_aggregate.csv").exists()


def test_run_without_output_dir_is_usage_error(tiny_config, monkeypatch, capsys):
    monkeypatch.delenv("EPHEMERA_OUT", raising=False)
    assert main(["run", "--config", str(tiny_config)]) == 1
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["--out", "EPHEMERA_OUT"])
def test_run_with_empty_output_dir_is_usage_error(tmp_path, tiny_config, monkeypatch, capsys,
                                                  spelling):
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    if spelling == "--out":
        monkeypatch.delenv("EPHEMERA_OUT", raising=False)
        argv = ["run", "--config", str(tiny_config), "--out", ""]
    else:
        monkeypatch.setenv("EPHEMERA_OUT", "")
        argv = ["run", "--config", str(tiny_config)]
    assert main(argv) == 1
    assert "no output directory" in capsys.readouterr().err
    assert list(work.iterdir()) == []


class DeadWorkerPool:
    """Stands in for ProcessPoolExecutor when a worker dies mid-trial."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")


def test_run_dead_worker_is_runtime_error(tmp_path, tiny_config, monkeypatch, capsys):
    from ephemera import experiment

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", DeadWorkerPool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    argv = ["run", "--config", str(tiny_config), "--out", str(tmp_path / "o"), "--jobs", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("ephemera: error: ") and "terminated abruptly" in err[0]
    assert not (tmp_path / "o").exists()


def test_run_unknown_scenario_is_usage_error(tmp_path, capsys):
    assert main(["run", "--scenario", "T3K", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "unknown scenario" in err


def test_run_requires_exactly_one_source(tmp_path, tiny_config, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 1
    assert main([
        "run", "--scenario", "BL", "--config", str(tiny_config), "--out", str(tmp_path),
    ]) == 1


def test_run_trials_override(tmp_path, tiny_config):
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_dir), "--trials", "1"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["tiny_aggregate.csv", "tiny_trial00.csv"]


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-2"), ("--jobs", "0"), ("--jobs", "-1"),
])
def test_run_count_below_one_is_usage_error(tmp_path, tiny_config, capsys, flag, value):
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_dir), flag, value]) == 1
    err = capsys.readouterr().err
    assert flag in err and "must be >= 1" in err
    assert not out_dir.exists()


def test_run_with_one_job(tmp_path, tiny_config):
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_dir), "--jobs", "1"]) == 0
    assert len(list(out_dir.iterdir())) == 3


def test_run_seed_override_changes_results(tmp_path, tiny_config):
    a, b, c = (tmp_path / n for n in "abc")
    main(["run", "--config", str(tiny_config), "--out", str(a), "--seed", "1"])
    main(["run", "--config", str(tiny_config), "--out", str(b), "--seed", "2"])
    main(["run", "--config", str(tiny_config), "--out", str(c), "--seed", "1"])
    read = lambda d: (d / "tiny_trial00.csv").read_bytes()
    assert read(a) != read(b)
    assert read(a) == read(c)


def test_run_bad_config_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("memory_duration=0\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "memory_duration" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["memory_duration", "query_cooldown"])
def test_run_config_past_int64_is_runtime_error(tmp_path, tiny_config, capsys, key):
    lines = MINI_CFG.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key}="))
    lines[lineno - 1] = f"{key}=9223372036854775807"
    tiny_config.write_text("\n".join(lines))
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 2
    assert f"{tiny_config}:{lineno}: max_iterations + {key}" in capsys.readouterr().err


def test_run_undecodable_config_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"name=tiny\ngrid=30,30\ncaf\xe9=1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "offset 24" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--scenario", "BL", "--frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_module_entry_point_runs(tiny_config, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ephemera", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("BL")


def test_optimized_run_writes_the_same_bytes(tiny_config, tmp_path):
    # `python -O` strips assert statements; nothing the run computes may hang on one.
    outputs = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("optimized" if flags else "plain")
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "ephemera", "run", "--config", str(tiny_config),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def test_run_rejects_name_outside_out_dir(tmp_path, capsys):
    config = tmp_path / "escape.cfg"
    config.write_text(MINI_CFG.replace("name=tiny", "name=../escaped"))
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 2
    assert "plain file stem" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.cfg"]


# --- plot ------------------------------------------------------------------------

def test_plot_two_series(tmp_path, capsys):
    a, b = tmp_path / "A.csv", tmp_path / "B.csv"
    write_aggregate_csv(agg_rows([10.0, 20.0, 30.0]), a)
    write_aggregate_csv(agg_rows([15.0, 25.0, 35.0]), b)
    out = tmp_path / "plot.svg"
    assert main(["plot", "--metric", "knowledge", "--out", str(out), str(a), str(b)]) == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert ">A<" in svg and ">B<" in svg  # legend uses file stems
    assert "iteration" in svg


def test_plot_requires_csvs(capsys):
    assert main(["plot", "--metric", "knowledge", "--out", "x.svg"]) == 1


def test_plot_metric_choices(tmp_path, capsys):
    a = tmp_path / "A.csv"
    write_aggregate_csv(agg_rows([1.0]), a)
    assert main(["plot", "--metric", "speed", "--out", str(tmp_path / "p.svg"), str(a)]) == 1


def test_plot_rejects_non_aggregate_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,who,knows\n")
    assert main(["plot", "--out", str(tmp_path / "p.svg"), str(bad)]) == 2
    assert "bad.csv" in capsys.readouterr().err


def test_plot_rejects_undecodable_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,mean_knowledge_pct\xe9\n")
    assert main(["plot", "--out", str(tmp_path / "p.svg"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "offset 20" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", [1, 4], ids=["knowledge", "captured"])
def test_plot_rejects_non_finite_values(tmp_path, capsys, value, column):
    a = tmp_path / "A.csv"
    write_aggregate_csv(agg_rows([10.0, 20.0]), a)
    lines = a.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    a.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.svg"
    assert main(["plot", "--out", str(out), str(a)]) == 2
    err = capsys.readouterr().err
    assert "A.csv" in err and lines[2] in err
    assert not out.exists()


def test_plot_svg_is_well_formed_with_markup_in_names(tmp_path):
    a = tmp_path / "a&b<c_aggregate.csv"
    write_aggregate_csv(agg_rows([10.0, 20.0]), a)
    out = tmp_path / "o.svg"
    assert main(["plot", "--out", str(out), str(a)]) == 0
    texts = [el.text for el in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c_aggregate" in texts


def test_render_plot_escapes_title_and_labels(tmp_path):
    out = tmp_path / "x.svg"
    render_plot([PlotSeries("s>1 & s<2", [0, 1], [0.0, 1.0])], "<t> & 'q'", out,
                x_label="x<y", y_label='"a"&b')
    texts = {el.text for el in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")}
    assert {"s>1 & s<2", "<t> & 'q'", "x<y", '"a"&b'} <= texts


def test_plot_is_deterministic(tmp_path):
    a = tmp_path / "A.csv"
    write_aggregate_csv(agg_rows([10.0, 50.0, 90.0]), a)
    one, two = tmp_path / "one.svg", tmp_path / "two.svg"
    assert main(["plot", "--out", str(one), str(a)]) == 0
    assert main(["plot", "--out", str(two), str(a)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_plot_targets_metric_uses_capture_column(tmp_path):
    a = tmp_path / "A.csv"
    write_aggregate_csv(agg_rows([10.0, 20.0]), a)
    out = tmp_path / "t.svg"
    assert main(["plot", "--metric", "targets", "--out", str(out), str(a)]) == 0
    assert "targets captured" in out.read_text()


# --- render_plot directly -----------------------------------------------------------

def test_constant_hundred_series_sits_on_top_gridline(tmp_path):
    out = tmp_path / "flat.svg"
    render_plot([PlotSeries("BL", [0, 100, 200], [100.0, 100.0, 100.0])], "knowledge", out)
    svg = out.read_text()
    polyline = [l for l in svg.splitlines() if l.startswith("<polyline")][0]
    points = polyline.split('points="')[1].rstrip('"/>').split()
    ys = {p.split(",")[1] for p in points}
    assert len(ys) == 1  # horizontal
    top_gridline_y = ys.pop()
    # The y=100 gridline (top of the range) must carry the polyline.
    assert f'y1="{top_gridline_y}"' in svg
    assert ">100<" in svg


def test_render_plot_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        render_plot([], "t", tmp_path / "x.svg")
    with pytest.raises(ValueError):
        render_plot([PlotSeries("empty", [], [])], "t", tmp_path / "x.svg")


SVG_TEXT = "{http://www.w3.org/2000/svg}text"
NOT_XML = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udfff",
           "\ufffe", "\uffff"]


def svg_texts(path):
    return [el.text for el in ET.parse(path).getroot().iter(SVG_TEXT)]


@pytest.mark.parametrize("char", NOT_XML, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("field", ["series name", "title", "x_label", "y_label"])
def test_render_plot_rejects_text_xml_cannot_carry(tmp_path, char, field):
    text = f"a{char}b"
    name, labels = "s", {"title": "t", "x_label": "x", "y_label": "y"}
    if field == "series name":
        name = text
    else:
        labels[field] = text
    out = tmp_path / "x.svg"
    with pytest.raises(ValueError, match=f"{field} .*U\\+{ord(char):04X}"):
        render_plot([PlotSeries(name, [0, 1], [0.0, 1.0])], labels["title"], out,
                    x_label=labels["x_label"], y_label=labels["y_label"])
    assert not out.exists()


@pytest.mark.parametrize("text", ["tab\there", "line\nbreak", "ret\rurn", "\x7f\x80\x9f",
                                  "\ud7ff\ue000\ufffd", "\U00010000\U0010ffff", "\xe9 \U0001f41d"])
def test_render_plot_accepts_every_character_xml_carries(tmp_path, text):
    out = tmp_path / "x.svg"
    render_plot([PlotSeries(text, [0, 1], [0.0, 1.0])], text, out, x_label=text, y_label=text)
    carried = text.replace("\r", "\n")  # XML parsers normalize line ends
    assert svg_texts(out).count(carried) == 4


def test_plot_rejects_series_name_xml_cannot_carry(tmp_path, capsys):
    a = tmp_path / "a\x01b.csv"
    write_aggregate_csv(agg_rows([10.0, 20.0]), a)
    out = tmp_path / "o.svg"
    assert main(["plot", "--out", str(out), str(a)]) == 2
    assert "series name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("xs, ys", [
    ([0, 1], [float("nan"), 1.0]),
    ([0, float("inf")], [0.0, 1.0]),
    ([0, 1], [0.0, float("-inf")]),
], ids=["nan-y", "inf-x", "-inf-y"])
def test_render_plot_rejects_non_finite_values(tmp_path, xs, ys):
    out = tmp_path / "n.svg"
    series = [PlotSeries("fine", [0, 1], [0.0, 1.0]), PlotSeries("broken", xs, ys)]
    with pytest.raises(ValueError, match="series 'broken'"):
        render_plot(series, "t", out)
    assert not out.exists()
    render_plot(series[:1], "t", out)
    assert "fine" in svg_texts(out)
