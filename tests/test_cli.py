import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nlsqp.cli import (
    ConfigError,
    EXIT_BOX_TOO_LARGE,
    EXIT_CONDITION,
    EXIT_CONFIG,
    EXIT_EXCISED,
    EXIT_NO_CONVERGENCE,
    EXIT_NON_REAL_FREQUENCY,
    EXIT_OFF_CHAR_DIAGONAL,
    EXIT_OK,
    EXIT_STEP_REJECTED,
    EXIT_VERIFY,
    SolutionError,
    config_hash,
    load_config,
    main,
    parse_config,
    read_solution,
    run_command,
    serialize_config,
    write_solution,
)
from nlsqp.lattice import FrequencyVector, linear_solution, make_spec


TP1_CFG = """
[problem]
d = 1
b = 1
p = 1
delta = 0.001
modes = (2):0.7
"""

TP2_CFG = """
[problem]
d = 1
b = 2
p = 1
delta = 0.001
modes = (1):0.6, (2):0.8

[newton]
tol = 1e-11
max_iter = 8
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_minimal_fills_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "a.cfg", TP1_CFG))
    assert cfg.problem.b == 1
    assert cfg.newton.tol == 1e-11
    assert cfg.sweep.seed == 1234
    assert cfg.box().j_radius == 3


def test_config_rejects_zero_mode(tmp_path):
    bad = TP1_CFG.replace("(2):0.7", "(0):0.7")
    with pytest.raises(ConfigError, match="j_k != 0"):
        load_config(write(tmp_path, "b.cfg", bad))


def test_config_rejects_unknown_key(tmp_path):
    bad = TP1_CFG + "\nfoo = 1\n"
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "c.cfg", bad))


def test_config_rejects_duplicate_key(tmp_path):
    bad = TP1_CFG + "\nd = 2\n"
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, "d.cfg", bad))


@pytest.mark.parametrize("modes", ["(a):0.7", "(2):x"])
def test_config_rejects_a_bad_number_in_modes(tmp_path, modes):
    bad = TP1_CFG.replace("(2):0.7", modes)
    with pytest.raises(ConfigError, match=r"line \d+: bad value for problem.modes"):
        load_config(write(tmp_path, "m.cfg", bad))


def test_config_error_carries_line_number(tmp_path):
    bad = TP1_CFG + "\n[newton]\ntol = not_a_number\n"
    with pytest.raises(ConfigError, match=r"line \d+"):
        load_config(write(tmp_path, "e.cfg", bad))


def test_config_roundtrip_idempotent():
    cfg = parse_config(TP2_CFG)
    once = serialize_config(cfg)
    twice = serialize_config(parse_config(once))
    assert once == twice
    assert config_hash(cfg) == config_hash(parse_config(once))


def test_config_roundtrip_d2():
    text = """
[problem]
d = 2
b = 2
p = 2
delta = 0.001
modes = (1,0):0.9, (0,1):0.35
"""
    cfg = parse_config(text)
    assert cfg.problem.j_list == ((1, 0), (0, 1))
    assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)


# Every key of every section set off its default.  These bytes are those
# the per-key serializer wrote before the sections were derived from the
# config dataclasses, so config_hash is unchanged for each of these keys.
# The [newton] key eps_first, the threshold of a determinant gate at the
# seed frequency, has since been removed with that gate, and its line here.
EVERY_KEY_CFG = """[problem]
d = 2
b = 2
p = 2
delta = 0.002
phase_m = 0.25
modes = (1,0):0.9, (0,1):0.35

[truncation]
n_radius = 7
j_radius = 4

[conditions]
m_max = 5
search_radius = 11
graph_n_radius = 3
graph_j_radius = 2

[newton]
tol = 1e-10
max_iter = 9
eps_second = 0.75
kappa = 0.03
gamma = 5.5
dio_radius = 7

[verify]
T = 12.5
dt = 0.005
t_points = 48
x_points = 21

[sweep]
epsilons = 0.2, 0.02
n_samples = 321
seed = 99
"""


def test_serialize_config_of_every_key_is_pinned():
    from nlsqp.cli import (ConditionsCfg, NewtonCfg, RunConfig, SweepCfg, TruncationCfg,
                           VerifyCfg)
    cfg = RunConfig(
        problem=make_spec(d=2, b=2, p=2, delta=0.002, j_list=[(1, 0), (0, 1)],
                          amplitudes=[0.9, 0.35], phase_m=0.25),
        truncation=TruncationCfg(n_radius=7, j_radius=4),
        conditions=ConditionsCfg(m_max=5, search_radius=11, graph_n_radius=3,
                                 graph_j_radius=2),
        newton=NewtonCfg(tol=1e-10, max_iter=9, eps_second=0.75,
                         kappa=0.03, gamma=5.5, dio_radius=7),
        verify=VerifyCfg(T=12.5, dt=0.005, t_points=48, x_points=21),
        sweep=SweepCfg(epsilons=(0.2, 0.02), n_samples=321, seed=99))
    assert serialize_config(cfg) == EVERY_KEY_CFG
    assert parse_config(EVERY_KEY_CFG) == cfg


def test_solution_roundtrip(tp2):
    u0, _ = linear_solution(tp2)
    omega = FrequencyVector((1.25, 4.5))
    text = write_solution(tp2, omega, u0)
    spec2, om2, u2 = read_solution(text)
    assert spec2 == tp2
    assert om2.omega == omega.omega
    assert u2.items() == u0.items()


def test_check_command_tp2(tmp_path, capsys):
    cfg = parse_config(TP2_CFG)
    code = run_command("check", cfg, out_path=str(tmp_path / "rep.txt"))
    assert code == EXIT_OK
    text = (tmp_path / "rep.txt").read_text()
    assert "verdict = pass" in text
    assert "[conditions.non_intersection]" in text
    assert "[conditions.non_spiral]" in text
    assert "[conditions.rank_test]" in text


def test_check_prints_the_condition_i_witness_as_a_site(tmp_path):
    # Three modes on one circle |j|^2 = 8 fail condition (i); the witness is
    # a site, printed in the (n | j) form rather than as bare integers.
    cfg = parse_config("""
[problem]
d = 2
b = 3
p = 1
delta = 0.001
modes = (-2,-2):0.5, (-2,2):0.5, (2,2):0.5
""")
    code = run_command("check", cfg, out_path=str(tmp_path / "rep.txt"))
    assert code == EXIT_CONDITION
    text = (tmp_path / "rep.txt").read_text()
    assert "verdict = fail\nwitness_count = 2\nfirst_witness = (-1 1 -1 | 2 -2)\n" in text


def test_check_names_the_rectangle_of_a_cubic_witness(tmp_path):
    # p = 1: the witness (0 -1 -1 1 | -2 2) is s_2 + s_3 - s_4, so the
    # modes (-1, 3) and (1, -1) meet at a right angle at (2, 0), and (-2, 2)
    # is the fourth vertex; the corners are printed in turn.
    cfg = parse_config(TP1_CFG.replace("d = 1\nb = 1", "d = 2\nb = 4").replace(
        "(2):0.7", "(1,-3):0.5, (-1,3):0.5, (1,-1):0.5, (2,0):0.5"))
    assert run_command("check", cfg, out_path=str(tmp_path / "rep.txt")) == EXIT_CONDITION
    assert ("first_witness = (0 -1 -1 1 | -2 2)\n"
            "first_witness_rectangle = (-1 3) (2 0) (1 -1) (-2 2)\n"
            in (tmp_path / "rep.txt").read_text())


def test_check_reports_kernel_for_b4(tmp_path):
    cfg = parse_config("""
[problem]
d = 1
b = 4
p = 1
delta = 0.001
modes = (1):0.5, (2):0.5, (3):0.5, (4):0.5
""")
    code = run_command("check", cfg, out_path=str(tmp_path / "rep.txt"))
    text = (tmp_path / "rep.txt").read_text()
    assert code == EXIT_OK  # rank inconclusive defers; walk and graph pass
    assert "verdict = inconclusive" in text
    assert "kernel = -1, 3, -3, 1" in text


def test_solve_command_tp1(tmp_path):
    cfg = parse_config(TP1_CFG)
    out = str(tmp_path / "out")
    assert run_command("solve", cfg, out_path=out) == EXIT_OK
    rep = (tmp_path / "out" / "report.txt").read_text()
    assert "omega = 4.00049" in rep
    sol = (tmp_path / "out" / "solution.txt").read_text()
    spec, omega, u = read_solution(sol)
    assert omega.omega[0] == pytest.approx(4.00049)
    # Physical amplitude delta^(1/2) * a.
    from nlsqp.lattice import site
    assert abs(u[site((-1,), (2,))]) == pytest.approx(0.001 ** 0.5 * 0.7)


def test_solve_decides_admissibility_once(tmp_path, monkeypatch):
    # The Newton gate reuses the verdicts of the report's condition
    # sections instead of checking again on another box.
    from nlsqp import cli, conditions, newton
    calls = []
    check_ii = conditions.check_condition_ii

    def counted(*args, **kwargs):
        calls.append(kwargs.get("box"))
        return check_ii(*args, **kwargs)

    for mod in (cli, conditions, newton):
        monkeypatch.setattr(mod, "check_condition_ii", counted)
    cfg = parse_config(TP2_CFG)
    assert run_command("solve", cfg, out_path=str(tmp_path / "out")) == EXIT_OK
    assert calls == [cfg.condition_box()]


def test_a_d1_check_convolves_the_seed_once(tmp_path, monkeypatch):
    # Conditions (i) and (ii), the restricted supports and the 1d check all
    # read the one set of seed symbols that the check builds.
    from nlsqp import characteristics, cli, conditions
    calls = []
    seed_symbols = characteristics.seed_symbols

    def counted(spec):
        calls.append(spec)
        return seed_symbols(spec)

    for mod in (characteristics, cli, conditions):
        monkeypatch.setattr(mod, "seed_symbols", counted)
    cfg = parse_config(TP2_CFG)
    assert run_command("check", cfg, out_path=str(tmp_path / "check.txt")) == EXIT_OK
    assert "[conditions.oned]" in (tmp_path / "check.txt").read_text()
    assert calls == [cfg.problem]


def test_verify_command(tmp_path):
    cfg = parse_config(TP1_CFG + "\n[verify]\nT = 5.0\ndt = 0.001\n")
    out = str(tmp_path / "out")
    run_command("solve", cfg, out_path=out)
    code = run_command("verify", cfg, out_path=str(tmp_path / "v.txt"),
                       solution=os.path.join(out, "solution.txt"))
    assert code == EXIT_OK
    text = (tmp_path / "v.txt").read_text()
    sup = float(re.search(r"sup = (\S+)", text).group(1))
    assert sup < 1e-12


def solve_then_verify(tmp_path, cfg):
    out = str(tmp_path / "out")
    assert run_command("solve", cfg, out_path=out) == EXIT_OK
    return run_command("verify", cfg, out_path=str(tmp_path / "v.txt"),
                       solution=os.path.join(out, "solution.txt"))


def test_exit_verify_grid_too_coarse(tmp_path, capsys):
    cfg = parse_config(TP1_CFG + "\n[verify]\nx_points = 3\n")
    assert solve_then_verify(tmp_path, cfg) == EXIT_VERIFY
    err = capsys.readouterr().err.strip()
    assert err == "verify failure: need at least 5 spatial points per dimension, got 3"


def test_exit_verify_integrator_instability(tmp_path, capsys):
    cfg = parse_config(TP1_CFG + "\n[verify]\nT = 5.0\ndt = 0.9\n")
    assert solve_then_verify(tmp_path, cfg) == EXIT_VERIFY
    err = capsys.readouterr().err.strip()
    assert err.startswith("verify failure: dt too large")
    assert err.endswith("(suggested dt = 0.1)")
    assert "\n" not in err


def test_exit_verify_field_underflow(tmp_path, capsys):
    # tp2's solution scaled by 1e-170: every |u|^2 underflows to 0, so the
    # drift's relative errors would read 0 / 0.  verify refuses it before
    # sampling the field, with one line and no RuntimeWarning.
    import warnings
    cfg = parse_config(TP2_CFG)
    out = str(tmp_path / "out")
    assert run_command("solve", cfg, out_path=out) == EXIT_OK
    spec, omega, u = read_solution((tmp_path / "out" / "solution.txt").read_text())
    sol = write(tmp_path, "tiny.txt", write_solution(spec, omega, u.scale(1e-170)))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command("verify", cfg, out_path=str(tmp_path / "v.txt"), solution=sol)
    assert code == EXIT_VERIFY and not (tmp_path / "v.txt").exists()
    assert capsys.readouterr().err == ("verify failure: the solution's mass sum |u|^2 = 0 "
                                       "underflows; its drift cannot be measured\n")


def test_exit_verify_term_underflow(tmp_path, capsys):
    # tp2's solution scaled by 1e-150: its mass is a normal float, but the
    # |u|^2 of its small modes underflow, and the drift measured without
    # them read a trajectory_error of 0.1465 (1.8e-11 unscaled).  verify
    # refuses the smallest such term.
    cfg = parse_config(TP2_CFG)
    out = str(tmp_path / "out")
    assert run_command("solve", cfg, out_path=out) == EXIT_OK
    spec, omega, u = read_solution((tmp_path / "out" / "solution.txt").read_text())
    sol = write(tmp_path, "small.txt", write_solution(spec, omega, u.scale(1e-150)))
    capsys.readouterr()
    code = run_command("verify", cfg, out_path=str(tmp_path / "v.txt"), solution=sol)
    assert code == EXIT_VERIFY and not (tmp_path / "v.txt").exists()
    err = one_line_err(capsys)
    assert re.fullmatch(r"verify failure: the solution's term at \(-?\d+ -?\d+ \| -?\d+\) has "
                        r"\|u\|\^2 = \S+, which underflows; its drift cannot be measured", err)


def test_exit_verify_rank_above_two(tmp_path, capsys):
    # The collocation residual runs in any d; the split-step validator
    # integrates on the sub-torus of the support's difference lattice and
    # stops at rank 2.  These four seeds in d = 3 differ by a rank-3 lattice.
    spec = make_spec(d=3, b=4, p=1, delta=1e-3,
                     j_list=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                     amplitudes=[0.7, 0.6, 0.5, 0.4])
    u0, _ = linear_solution(spec)
    sol = write(tmp_path, "sol.txt", write_solution(
        spec, spec.omega0(), u0.scale(spec.delta ** 0.5)))
    cfg = parse_config(TP1_CFG + "\n[verify]\nt_points = 16\nx_points = 3\n")
    code = run_command("verify", cfg, out_path=str(tmp_path / "v.txt"),
                       solution=sol)
    assert code == EXIT_VERIFY
    err = capsys.readouterr().err.strip()
    assert err == ("verify failure: split-step validator needs a support of "
                   "rank <= 2, got rank 3")


def test_verify_command_d3_seed_of_rank_one(tmp_path):
    # tp3's modes embedded in d = 3: solve and verify end to end; the
    # support spans a rank-1 lattice, so the drift runs on 64 points.  The
    # solution reaches |j| = 6 on Lambda_5, so the collocation grid needs
    # 13 points per axis.
    cfg = parse_config("""
[problem]
d = 3
b = 2
p = 2
delta = 1e-3
modes = (1,0,0):0.9, (0,1,0):0.35

[truncation]
n_radius = 6
j_radius = 3

[verify]
x_points = 13
""")
    assert run_command("solve", cfg, out_path=str(tmp_path / "solve")) == EXIT_OK
    out = tmp_path / "verify.txt"
    assert run_command("verify", cfg, out_path=str(out),
                       solution=str(tmp_path / "solve" / "solution.txt")) == EXIT_OK
    drift = dict(line.split(" = ") for line in
                 out.read_text().split("[drift]\n")[1].splitlines() if line)
    assert (drift["rank"], drift["grid"]) == ("1", "64")
    assert float(drift["amp_drift"]) <= 1e-9
    assert float(drift["mass_drift"]) <= 1e-10
    assert float(drift["trajectory_error"]) <= 4.9e-9


def test_sweep_command_csv(tmp_path):
    cfg = parse_config(TP1_CFG + """
[sweep]
epsilons = 0.1, 0.01
n_samples = 200
seed = 5
""")
    out = str(tmp_path / "sweep.csv")
    assert run_command("sweep", cfg, out_path=out) == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,")
    assert len(lines) == 3
    fracs = [float(line.split(",")[2]) for line in lines[1:]]
    assert fracs[0] >= fracs[1]


B5_CFG = """
[problem]
d = 1
b = 5
p = 1
delta = 1e-3
modes = (1):0.6, (2):0.8, (4):0.5, (7):0.38, (11):0.27

[sweep]
n_samples = 100
"""


def test_sweep_b5_scans_at_its_default_radius(tmp_path):
    # Five modes: the sweep scans at default_dio_radius(5) = 5 (80 525
    # candidates), not at 10, whose 21^5-point grid is past SITE_CAP; the
    # CSV is the one pinned at [newton] dio_radius = 5.
    out = tmp_path / "sweep.csv"
    assert run_command("sweep", parse_config(B5_CFG), out_path=str(out)) == EXIT_OK
    assert out.read_text() == (
        "epsilon,excised_count,excised_fraction,dio_fail_fraction,n_samples,seed\n"
        "0.1,2,0.02,0.36,100,1234\n"
        "0.01,0,0.0,0.36,100,1234\n"
        "0.001,0,0.0,0.36,100,1234\n")


def test_exit_condition_failure(tmp_path):
    # Three corners of a rectangle in d = 2: the cubic error term pumps the
    # fourth corner resonantly, so the non-intersection condition fails.
    cfg = parse_config("""
[problem]
d = 2
b = 3
p = 1
delta = 0.001
modes = (-2,-2):0.5, (-2,2):0.5, (2,2):0.5
""")
    code = run_command("check", cfg, out_path=str(tmp_path / "r.txt"))
    assert code == EXIT_CONDITION
    assert "verdict = fail" in (tmp_path / "r.txt").read_text()


def test_exit_excised(tmp_path, capsys):
    # Amplitudes parked on a small divisor of the first-step operator: a
    # block of Lambda (+) -Lambda, the u-copy of (-1 2 -2 | 5), reads
    # sigma_min = 1e-5 against the threshold delta^1.5.
    cfg = parse_config("""
[problem]
d = 1
b = 3
p = 1
delta = 1e-3
modes = (1):0.7, (2):0.7, (4):0.5

[truncation]
n_radius = 4
j_radius = 9
""")
    code = run_command("solve", cfg, out_path=str(tmp_path / "out"))
    assert code == EXIT_EXCISED
    assert one_line_err(capsys) == (
        "excised amplitude: block 0 (size 1): sigma_min = 1.000e-05 below threshold "
        "3.162e-05; first member (-1 2 -2 | 5)")


B3_CFG = """
[problem]
d = 1
b = 3
p = 1
delta = 1e-3
modes = (1):0.6, (2):0.8, (4):0.5
"""


# Runs nlsqp.cli.main on its arguments and prints the exit code and the
# peak resident memory of the process in MB.
RSS_PROBE = """
import resource, sys
import nlsqp.cli
code = nlsqp.cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_exit_excised_b3_default_box(tmp_path):
    # Three modes on the 1.46 M-site default box: the gate reads only the
    # 187 sites of Lambda in it, whose 8 blocks off the seed equations all
    # pass (the smallest sigma_min is 4.2e-4), so the solve converges within
    # a few hundred MB.
    import subprocess
    import sys
    from pathlib import Path
    cfg = write(tmp_path, "b3.cfg", B3_CFG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, "solve", cfg, "--out", "out"],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    code, peak_mb = proc.stdout.split()
    assert int(code) == EXIT_OK, proc.stderr
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "min_block_value = 0.00042002" in report
    assert float(peak_mb) < 300


def test_b4_default_box_solves_within_150_mb(tmp_path):
    # Four modes on the 4.7e9-site default box Box(64, 8): the gate reads
    # only the 43 994 sites of Lambda in it, and its solution is Box(4, 8)'s
    # byte for byte.  a_4 = 0.38, not 0.4: with a = (0.6, 0.8, 0.5, 0.4)
    # the first-order shifts resonate exactly (n = (3, -2, 4, -5) has
    # sum n = 0 and n.a^2 = 0), and the Diophantine scan fails.
    import subprocess
    import sys
    from pathlib import Path
    text = """
[problem]
d = 1
b = 4
p = 1
delta = 1e-3
modes = (1):0.6, (2):0.8, (4):0.5, (7):0.38
"""
    cfg = write(tmp_path, "b4.cfg", text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, "solve", cfg, "--out", "out"],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    code, peak_mb = proc.stdout.split()
    assert int(code) == EXIT_OK, proc.stderr
    assert float(peak_mb) < 150
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "diophantine_pass = True" in report
    small = parse_config(text + "\n[truncation]\nn_radius = 4\nj_radius = 8\n")
    assert run_command("solve", small, out_path=str(tmp_path / "small")) == EXIT_OK
    assert (tmp_path / "out" / "solution.txt").read_bytes() == \
        (tmp_path / "small" / "solution.txt").read_bytes()


def test_exit_no_convergence(tmp_path):
    cfg = parse_config(TP2_CFG.replace("tol = 1e-11", "tol = 1e-30")
                       .replace("max_iter = 8", "max_iter = 2"))
    code = run_command("solve", cfg, out_path=str(tmp_path / "out"))
    assert code == EXIT_NO_CONVERGENCE


def test_sweep_byte_determinism(tmp_path):
    cfg = parse_config(TP1_CFG + """
[sweep]
epsilons = 0.01
n_samples = 100
seed = 11
""")
    run_command("sweep", cfg, out_path=str(tmp_path / "a.csv"))
    run_command("sweep", cfg, out_path=str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_main_config_error_exit(tmp_path):
    bad = write(tmp_path, "bad.cfg", "not a config")
    assert main(["check", bad]) == EXIT_CONFIG


def refuses_removed_key(tmp_path, capsys, text, message):
    """`check` on TP2_CFG with text appended exits 4 with one line of
    stderr holding message, and writes nothing."""
    cfg = write(tmp_path, "old.cfg", TP2_CFG + text)
    assert main(["check", cfg, "--out", str(tmp_path / "check.txt")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert message in err
    assert not (tmp_path / "check.txt").exists()


def test_main_refuses_the_removed_second_step_key(tmp_path, capsys):
    refuses_removed_key(tmp_path, capsys, "\n[truncation]\nsecond_step_s = 7.5\n",
                        "unknown key 'second_step_s' in [truncation]")


def test_main_refuses_the_removed_eps_first_key(tmp_path, capsys):
    # The gate has one threshold, delta^(1 + eps_second).
    refuses_removed_key(tmp_path, capsys, "eps_first = 1e-4\n",
                        "unknown key 'eps_first' in [newton]")


def test_report_determinism(tmp_path):
    cfg = parse_config(TP2_CFG)
    p1, p2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    run_command("check", cfg, out_path=p1)
    run_command("check", cfg, out_path=p2)
    strip = lambda t: "\n".join(l for l in t.splitlines()
                                if not l.startswith("generated_at"))
    assert strip((tmp_path / "r1.txt").read_text()) == \
        strip((tmp_path / "r2.txt").read_text())


def test_report_embeds_config_hash(tmp_path):
    cfg = parse_config(TP2_CFG)
    run_command("check", cfg, out_path=str(tmp_path / "r.txt"))
    assert config_hash(cfg) in (tmp_path / "r.txt").read_text()


# -- Exit codes of numerical failures ----------------------------------------


def one_line_err(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    return err


def test_exit_box_too_large(tmp_path, capsys):
    # A box is refused for what is built in it, not for its size: tp2 solves
    # on Box(2000, 3), whose 7 sites of Lambda are all the gate reads.  With
    # j_radius 1 100 000 too, the condition box's (n_1, j) graph grid holds
    # 19 x 2 200 001 sites, and Lambda in the solve box 2 199 999.
    cfg = parse_config(TP2_CFG + "\n[truncation]\nn_radius = 2000\n")
    assert run_command("solve", cfg, out_path=str(tmp_path / "small")) == EXIT_OK
    cfg = parse_config(TP2_CFG + "\n[truncation]\nn_radius = 1100000\nj_radius = 1100000\n")
    code = run_command("solve", cfg, out_path=str(tmp_path / "out"))
    assert code == EXIT_BOX_TOO_LARGE
    assert one_line_err(capsys).startswith("box too large: box holds")


def test_exit_box_too_large_for_the_diophantine_grid(tmp_path, capsys):
    # b = 4 at dio_radius = 100: a scan grid of 201^4 n.
    cfg = parse_config(TP2_CFG.replace("(1):0.6, (2):0.8", "(1):0.6, (2):0.8, (4):0.5, (7):0.38")
                       .replace("b = 2", "b = 4") + "dio_radius = 100\n")
    assert run_command("solve", cfg, out_path=str(tmp_path / "out")) == EXIT_BOX_TOO_LARGE
    assert one_line_err(capsys) == ("box too large: the Diophantine scan of radius 100 needs "
                                    "a grid of 1632240801 n, past the cap of 2000000")


def test_exit_step_rejected(tmp_path, capsys, monkeypatch):
    # No seed config is known to grow the weighted residual in a step.
    from nlsqp import newton

    def rejected(state, *args, **kwargs):
        raise newton.StepRejected("step 2: weighted residual grew 1.0e-12 -> 1.0e-06")

    monkeypatch.setattr(newton, "newton_step", rejected)
    code = run_command("solve", parse_config(TP2_CFG), out_path=str(tmp_path / "out"))
    assert code == EXIT_STEP_REJECTED
    assert one_line_err(capsys) == \
        "step rejected: step 2: weighted residual grew 1.0e-12 -> 1.0e-06"


def test_exit_non_real_frequency(tmp_path, capsys, monkeypatch):
    # Real seed amplitudes give a real Q bracket, so rotate the batched
    # bracket of the sweep off the real axis to reach its guard.
    from nlsqp import newton
    batch = newton._seed_symbols_batch

    def rotated(spec, amps):
        uv_p, uu, vv, bracket = batch(spec, amps)
        return uv_p, uu, vv, bracket * (1 + 1e-3j)

    monkeypatch.setattr(newton, "_seed_symbols_batch", rotated)
    cfg = parse_config(TP1_CFG + "\n[sweep]\nn_samples = 100\n")
    code = run_command("sweep", cfg, out_path=str(tmp_path / "s.csv"))
    assert code == EXIT_NON_REAL_FREQUENCY
    assert one_line_err(capsys).startswith(
        "non-real frequency: Q bracket at mode (2,) has imaginary part")


def test_exit_box_missing_a_seed(tmp_path, capsys):
    # j = -3 lies outside j_radius 2: the gate finds no seed equation to
    # drop there, an input error with a one-line message, not a traceback.
    cfg = parse_config("""
[problem]
d = 1
b = 3
p = 1
delta = 1e-3
modes = (-3):0.6, (-2):0.8, (-1):0.5

[truncation]
n_radius = 13
j_radius = 2
""")
    code = run_command("solve", cfg, out_path=str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert one_line_err(capsys) == "input error: truncation box does not contain the seed modes"
    assert not (tmp_path / "out").exists()


def test_exit_off_char_diagonal(tmp_path, capsys):
    # On Lambda a diagonal off the variety is a nonzero integer n.w0 +
    # |j|^2 plus n.(omega - omega0).  At delta = 0.3 the modulation brings
    # the one at (-5 13 -9 | 2), 2 at omega0, within 0.031 of zero.
    cfg = parse_config("""
[problem]
d = 1
b = 3
p = 1
delta = 0.3
modes = (-3):0.6, (-2):0.8, (-1):0.5

[truncation]
n_radius = 13
j_radius = 3
""")
    code = run_command("solve", cfg, out_path=str(tmp_path / "out"))
    assert code == EXIT_OFF_CHAR_DIAGONAL
    assert one_line_err(capsys) == (
        "certificate failure: off-characteristic diagonal too close to zero at "
        "(-5 13 -9 | 2): 3.100e-02")


# -- Input errors --------------------------------------------------------------


@pytest.mark.parametrize("key", ["d", "b", "p", "delta", "modes"])
def test_config_rejects_empty_required_key(key):
    # An empty value used to reach ProblemSpec as None (a TypeError).
    text = re.sub(rf"^{key} = .*$", f"{key} =", TP1_CFG, flags=re.M)
    with pytest.raises(ConfigError, match=f"missing required key problem.{key}"):
        parse_config(text)


def test_config_rejects_small_sweep(tmp_path, capsys):
    with pytest.raises(ConfigError, match="n_samples must be at least 100"):
        parse_config(TP1_CFG + "\n[sweep]\nn_samples = 50\n")
    bad = write(tmp_path, "s.cfg", TP1_CFG + "\n[sweep]\nn_samples = 50\n")
    assert main(["sweep", bad, "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG
    assert one_line_err(capsys) == "config error: n_samples must be at least 100"


@pytest.mark.parametrize("command, text, message", [
    ("check", "\n[conditions]\nsearch_radius = -1\n", "search_radius must be non-negative"),
    ("solve", "\n[conditions]\nsearch_radius = -1\n", "search_radius must be non-negative"),
    ("solve", "gamma = -1\n", "gamma must be non-negative"),
    ("sweep", "gamma = -1\n", "gamma must be non-negative"),
])
def test_config_refuses_a_negative_search_radius_or_gamma(tmp_path, capsys, command, text,
                                                          message):
    # Both used to end in a bare traceback with exit 1: a ValueError from the
    # j' range, a ZeroDivisionError from 0.0 ** gamma.  TP2_CFG ends in [newton].
    cfg = write(tmp_path, "bad.cfg", TP2_CFG + text)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert one_line_err(capsys) == f"config error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, message", [
    ("solve", "gamma = 237\n", "gamma = 237.0 overflows |n|^gamma at the Diophantine radius 20"),
    ("sweep", "gamma = 400\n", "gamma = 400.0 overflows |n|^gamma at the Diophantine radius 20"),
    ("check", "gamma = 300\ndio_radius = 12\n",
     "gamma = 300.0 overflows |n|^gamma at the Diophantine radius 12"),
])
def test_config_refuses_a_gamma_whose_weights_overflow(tmp_path, capsys, command, text,
                                                       message):
    # |n|^gamma at the largest radius scanned, 20 for tp2 by default, used
    # to end solve and sweep in an OverflowError traceback with exit 1.
    # 20^236 is a float, 20^237 is not; 10^300 is.
    cfg = write(tmp_path, "bad.cfg", TP2_CFG + text)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert one_line_err(capsys) == f"config error: {message}"
    assert not (tmp_path / "out").exists()
    for ok in ("gamma = 236\n", "gamma = 300\ndio_radius = 10\n"):
        parse_config(TP2_CFG + ok)


@pytest.mark.parametrize("command, edit, message", [
    # [problem]: a scalar key, the modes' amplitudes.
    ("check", ("delta = 0.001", "delta = nan"), "line 6: bad value for problem.delta: "
                                                 "nan is not a finite number"),
    ("solve", ("delta = 0.001", "delta = 0.001\nphase_m = -inf"),
     "line 7: bad value for problem.phase_m: -inf is not a finite number"),
    ("check", ("(2):0.7", "(2):inf"), "line 7: bad value for problem.modes: "
                                       "inf is not a finite number"),
    # A float key of a section, written out or overflowing to inf.
    ("verify", "[verify]\nT = inf", "line 10: bad value for verify.T: inf is not a finite number"),
    ("verify", "[verify]\ndt = nan", "line 10: bad value for verify.dt: nan is not a finite number"),
    ("verify", "[verify]\nT = 1e400", "line 10: bad value for verify.T: "
                                      "1e400 is not a finite number"),
    ("solve", "[newton]\nkappa = nan", "line 10: bad value for newton.kappa: "
                                       "nan is not a finite number"),
    # A float list, and the sweep's seed.
    ("sweep", "[sweep]\nepsilons = 0.1, nan", "line 10: bad value for sweep.epsilons: "
                                              "nan is not a finite number"),
    ("sweep", "[sweep]\nseed = -1", "seed must be non-negative"),
])
def test_config_refuses_non_finite_floats_and_a_negative_seed(tmp_path, capsys, command, edit,
                                                              message):
    # T = inf used to end in an OverflowError traceback and dt = nan in a
    # ValueError one (exit 1), seed = -1 in numpy's ValueError, and kappa =
    # nan or epsilons = nan in exit 0 with meaningless verdicts.
    text = TP1_CFG.replace(*edit) if isinstance(edit, tuple) else TP1_CFG + "\n" + edit + "\n"
    cfg = write(tmp_path, "bad.cfg", text)
    extra = ["--solution", str(tmp_path / "solution.txt")] if command == "verify" else []
    assert main([command, cfg, "--out", str(tmp_path / "out"), *extra]) == EXIT_CONFIG
    assert one_line_err(capsys) == f"config error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, message", [
    # round(T / dt) = 0 steps: verify used to integrate nothing and exit 0
    # with zero drifts.
    ("verify", "[verify]\nT = 0.04\ndt = 0.1", "T = 0.04 rounds to no step of dt = 0.1"),
    ("verify", "[verify]\nT = 0.05\ndt = 0.1", "T = 0.05 rounds to no step of dt = 0.1"),
    ("check", "[verify]\nT = 0.001", "T = 0.001 rounds to no step of dt = 0.1"),
    # Block values are >= 0, so an epsilon <= 0 used to count no sample.
    ("sweep", "[sweep]\nepsilons = 0.1, -1", "epsilons must be positive"),
    ("sweep", "[sweep]\nepsilons = 0", "epsilons must be positive"),
])
def test_config_refuses_a_verify_of_no_step_and_a_non_positive_epsilon(tmp_path, capsys,
                                                                        command, text, message):
    cfg = write(tmp_path, "bad.cfg", TP1_CFG + "\n" + text + "\n")
    extra = ["--solution", str(tmp_path / "solution.txt")] if command == "verify" else []
    assert main([command, cfg, "--out", str(tmp_path / "out"), *extra]) == EXIT_CONFIG
    assert one_line_err(capsys) == f"config error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "check"])
def test_config_refuses_a_T_over_dt_past_the_floats(tmp_path, capsys, command):
    # T = 1e300 over dt = 1e-10 overflows to inf: verify used to end in an
    # OverflowError traceback with exit 1.
    cfg = write(tmp_path, "bad.cfg", TP1_CFG + "\n[verify]\nT = 1e300\ndt = 1e-10\n")
    extra = ["--solution", str(tmp_path / "solution.txt")] if command == "verify" else []
    assert main([command, cfg, "--out", str(tmp_path / "out"), *extra]) == EXIT_CONFIG
    assert one_line_err(capsys) == "config error: T = 1e+300 over dt = 1e-10 is no finite step count"
    assert not (tmp_path / "out").exists()


def test_config_takes_a_T_of_one_step_that_is_no_multiple_of_dt():
    # Criterion 8 runs T = 200 pi at dt = 1e-2; 0.06 is one step of 0.1.
    for T, dt in ((0.06, 0.1), (200 * 3.141592653589793, 1e-2)):
        cfg = parse_config(TP1_CFG + f"\n[verify]\nT = {T!r}\ndt = {dt!r}\n")
        assert (cfg.verify.T, cfg.verify.dt) == (T, dt)


def test_exit_garbage_solution(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", TP1_CFG)
    sol = write(tmp_path, "sol.txt", "this is not a solution\n")
    assert main(["verify", cfg, "--solution", sol]) == EXIT_CONFIG
    assert one_line_err(capsys) == "solution error: missing header 'd'"


def test_exit_missing_solution(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", TP1_CFG)
    sol = str(tmp_path / "absent.txt")
    assert main(["verify", cfg, "--solution", sol]) == EXIT_CONFIG
    assert one_line_err(capsys) == \
        f"solution error: cannot read {sol}: No such file or directory"
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe d = 1\n")
    assert main(["verify", cfg, "--solution", str(binary)]) == EXIT_CONFIG
    assert one_line_err(capsys).startswith("solution error: ")


def test_read_solution_rejects_short_table_line(tp2):
    u0, _ = linear_solution(tp2)
    text = write_solution(tp2, FrequencyVector((1.25, 4.5)), u0)
    with pytest.raises(SolutionError, match="has 3 fields, expected 5"):
        read_solution(text.rstrip("\n") + "\n1 2 3\n")
    with pytest.raises(SolutionError, match="omega has 1 entries, expected b=2"):
        read_solution(text.replace("omega = 1.25, 4.5", "omega = 1.25"))


_TP2 = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2], amplitudes=[0.6, 0.8])
_VALID_SOLUTION = write_solution(_TP2, FrequencyVector((1.25, 4.5)),
                                 linear_solution(_TP2)[0])


@pytest.mark.parametrize("table, message", [
    (lambda rows: ["-1 0 1 inf 0.0"] + rows[1:], "has a non-finite amplitude"),
    (lambda rows: ["-1 0 1 0.6 nan"] + rows[1:], "has a non-finite amplitude"),
    (lambda rows: [], r"has no term at the seed site \(-1 0 \| 1\)"),
    (lambda rows: rows[:1], r"has no term at the seed site \(0 -1 \| 2\)"),
])
def test_verify_refuses_a_non_finite_or_seedless_table(tmp_path, capsys, table, message):
    # An inf amplitude made the series' drop cutoff 0 * inf = NaN, which
    # emptied it, and an empty table did the same: verify then exited 0 with
    # sup = 0.0.  A nan amplitude dropped its term.
    head, rows = _VALID_SOLUTION.split("[u]\n")
    assert rows.splitlines() == ["-1 0 1 0.6 0.0", "0 -1 2 0.8 0.0"]
    sol = write(tmp_path, "sol.txt", head + "[u]\n" + "\n".join(table(rows.splitlines())) + "\n")
    assert main(["verify", write(tmp_path, "a.cfg", TP2_CFG), "--solution", sol]) == EXIT_CONFIG
    err = one_line_err(capsys)
    assert err.startswith("solution error: ") and re.search(message, err), err


@st.composite
def mutated_texts(draw, valid: str):
    """Free text, or the lines of a valid file with a few lines deleted,
    replaced, or given a new value after their '='."""
    if draw(st.booleans()):
        return draw(st.text())
    lines = valid.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["delete", "replace", "value"]))
        if how == "delete":
            del lines[i]
            if not lines:
                break
        elif how == "replace":
            lines[i] = draw(st.text(max_size=40))
        else:
            key = lines[i].split("=", 1)[0]
            lines[i] = f"{key}= {draw(st.text(max_size=20))}"
    return "\n".join(lines)


def read_solution_exit(text: str) -> int:
    """The exit code `verify` takes on a solution file holding this text
    before any numerics run: 0 if it parses, 4 if it is refused."""
    try:
        read_solution(text)
    except SolutionError as exc:
        assert "\n" not in str(exc)
        return EXIT_CONFIG
    return EXIT_OK


@settings(max_examples=300, deadline=None)
@given(mutated_texts(_VALID_SOLUTION))
def test_read_solution_fuzz_exits_cleanly(text):
    assert read_solution_exit(text) in (EXIT_OK, EXIT_CONFIG)


@settings(max_examples=300, deadline=None)
@given(mutated_texts(serialize_config(parse_config(TP2_CFG))))
def test_parse_config_fuzz_exits_cleanly(text):
    # Any text parses or is refused with a one-line ConfigError (exit 4).
    try:
        parse_config(text)
    except ConfigError as exc:
        assert "\n" not in str(exc)


# sha256 of each artifact of the tp2 config, generated_at lines removed.  A
# refactor keeps these bytes; a change that alters an artifact on purpose
# updates the digest and says why.  report.txt and solution.txt were
# re-pinned when Newton moved to the conservation lattice: the solution
# gained the sites (2 -3 | 4) and (3 -4 | 5) of Lambda_4 beyond the box's
# j-radius, so omega moved by 7e-14 and the other amplitudes in their last
# digits; the residuals became full
# ones, inverse_norm and decay_beta became those of F' on Lambda_4, and
# residual_full, lattice_radius and lattice_sites are new.
# check.txt and report.txt of both seeds were re-pinned again when the
# default [verify] dt went from 1e-2 to 0.1: their header's config_hash
# covers the whole config, and it is the only line that changed.  They
# were re-pinned once more when the gate kept one statistic: the config
# lost [newton] eps_first, which moves config_hash, and report.txt lost
# its invert_mode line; no other line changed.  report.txt and solution.txt
# of both seeds were re-pinned when Lambda_R came to start at R = 2p, not at
# the box's largest generation: tp2 ends on Lambda_3 (8 sites, was
# Lambda_4), tp3 still on Lambda_5, and the first step keeps its delta^3
# gain on tp3 (step-1 residual 5.0e-7 -> 8.9e-10).  The omega lines and
# check.txt and sweep.csv keep their bytes; the residuals, quad_constant,
# inverse_norm (tp3), decay_beta and the amplitudes moved in their last
# digits or with the smaller Lambda_R.  report.txt of both seeds was
# re-pinned when quad_constant came to leave out Newton steps that land
# within 1e2 of the 1e-13 roundoff floor: the one step of tp2 and of tp3
# lands there (2.8e-13, 1.7e-12), so both now read quad_constant = n/a
# (were 8.55e5 and 2.18e6, roundoff over a small square); no other line
# changed.  report.txt of both seeds was re-pinned when the gate came to
# certify only Lambda (+) -Lambda inside the box: no resonance block of it
# is left off the seed equations on tp2 or tp3, so min_block_value reads
# "n/a (no resonance block of Lambda (+) -Lambda in the box)" (was 3.6e-4
# and 2.5e-4, from blocks off Lambda); no other line changed.  verify.txt,
# of the solve's solution.txt, was pinned as it stood when the walk graph
# moved to integer arrays.
TP2_ARTIFACT_SHA256 = {
    "check.txt": "228c35587e4e94fcb5ff8cf50a8b715ce0ec0ce697742fb467012051dd63fbf6",
    "solve/report.txt": "39167165a1016431a4bf1f0185da6139fff251c9a022b4adf1f0564b1fecc95e",
    "solve/solution.txt": "30712c6aed0ca254d3cecc883e01d9bbd763934afbb791bb8de098673516dea6",
    "sweep.csv": "def176f8d04330e2eef3dc8011d974d47401cb5b138bf214f3681f64ece52705",
    "verify.txt": "4de9239e015ff3c4b2973e6d2477a0ce20cc3cf06ae97d2c41518f9a04f13404",
}


def test_tp2_artifacts_are_byte_identical_to_pinned_digests(tmp_path):
    import hashlib
    cfg = parse_config("""
[problem]
d = 1
b = 2
p = 1
delta = 1e-3
modes = (1):0.6, (2):0.8
""")
    assert run_command("check", cfg, out_path=str(tmp_path / "check.txt")) == EXIT_OK
    assert run_command("solve", cfg, out_path=str(tmp_path / "solve")) == EXIT_OK
    assert run_command("sweep", cfg, out_path=str(tmp_path / "sweep.csv")) == EXIT_OK
    assert run_command("verify", cfg, out_path=str(tmp_path / "verify.txt"),
                       solution=str(tmp_path / "solve" / "solution.txt")) == EXIT_OK
    for name, digest in TP2_ARTIFACT_SHA256.items():
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith("generated_at"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# The same for tp3 (d = 2), the seed whose walk graph scans the j box and
# whose cross-branch steps land on spheres: check, solve, a 100-sample
# sweep and the verify of the solution.
TP3_ARTIFACT_SHA256 = {
    "check.txt": "17a59b53b4f7d6c91a1884b621f3aea37c36685c0fe8cd94c3e8c20f538be2ef",
    "solve/report.txt": "2fd5653c8f8831c3091bd2084b2b88dbe12dcbbf72786c0f5dc196d71a1383c5",
    "solve/solution.txt": "9622b2f782cf6c5b1783b6530e0077321feacd8b1d0415eafad4ae8e0c2ebfce",
    "sweep.csv": "681bd2aea99f89982a98a77678df6ba1652ce94939840d8dd5bb4ce967606e8a",
    "verify.txt": "06b07a1127c8f9ff4bc29a8b6e189544083faf742f457ee6a0098f23f10cdc0d",
}


TP3_CFG = """
[problem]
d = 2
b = 2
p = 2
delta = 1e-3
modes = (1,0):0.9, (0,1):0.35
"""


def test_tp3_artifacts_are_byte_identical_to_pinned_digests(tmp_path):
    import hashlib
    cfg = parse_config(TP3_CFG + "\n[sweep]\nn_samples = 100\n")
    assert run_command("check", cfg, out_path=str(tmp_path / "check.txt")) == EXIT_OK
    assert run_command("solve", cfg, out_path=str(tmp_path / "solve")) == EXIT_OK
    assert run_command("sweep", cfg, out_path=str(tmp_path / "sweep.csv")) == EXIT_OK
    assert run_command("verify", cfg, out_path=str(tmp_path / "verify.txt"),
                       solution=str(tmp_path / "solve" / "solution.txt")) == EXIT_OK
    for name, digest in TP3_ARTIFACT_SHA256.items():
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith("generated_at"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_d4_check_reads_the_j_search_in_blocks(tmp_path):
    # A d = 4 seed: the membership search's default radius of 30 spans
    # 61^4 = 13.8 M j', which a whole-table build held at 988 MB of RSS to
    # keep a few rows.  Read one l1 block at a time, the search stops in the
    # first blocks, and check.txt is as the whole table made it.
    import hashlib
    import tracemalloc
    from nlsqp import characteristics
    from nlsqp.conditions import symbol_supports
    cfg = parse_config("""
[problem]
d = 4
b = 2
p = 1
delta = 1e-3
modes = (1,0,0,0):0.9, (0,1,0,0):0.35
""")
    assert run_command("check", cfg, out_path=str(tmp_path / "check.txt")) == EXIT_OK
    lines = (tmp_path / "check.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("generated_at"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "74176268b928c5ef2ea876f91152f4b97c50d17e7d35fae53d52ded70bf5411e"
    characteristics._built_j_blocks.cache_clear()  # build the blocks again
    tracemalloc.start()
    try:
        symbol_supports(cfg.problem, search_radius=cfg.conditions.search_radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_a_solve_enumerates_each_box_once(tmp_path, monkeypatch):
    # A solve enumerates the sites of no box: the graph check of condition
    # (ii) enumerates the (n_1, j) grid of the condition box once (b - 1 = 1
    # n-axis; its C+ and C- sites come from their branch equations), and the
    # gates enumerate nothing, whatever the box.
    from collections import Counter
    from nlsqp import characteristics
    from nlsqp.lattice import Box
    counts = Counter()
    enumerate_box_sites = characteristics.enumerate_box_sites

    def counted(b, d, box):
        counts[b, box] += 1
        return enumerate_box_sites(b, d, box)

    monkeypatch.setattr(characteristics, "enumerate_box_sites", counted)
    monkeypatch.setattr("nlsqp.linop.enumerate_box_sites", counted)
    smaller = parse_config(TP3_CFG + "\n[conditions]\ngraph_n_radius = 5\n")
    assert run_command("solve", smaller, out_path=str(tmp_path / "a")) == EXIT_OK
    assert counts == {(1, Box(5, 3)): 1}  # the gates read Lambda in the box, not its sites
    counts.clear()
    assert run_command("solve", parse_config(TP3_CFG), out_path=str(tmp_path / "b")) == EXIT_OK
    assert counts == {(1, Box(9, 3)): 1}  # the condition box is the solve box


def test_a_solve_convolves_each_iterate_once_and_links_each_support_once(tmp_path,
                                                                         monkeypatch):
    # One set of products per iterate (the seed's shared by the checks and
    # the first step) and one set of box links per symbol supports: the
    # condition (ii) graph links the box's variety under the seed's.  A gate
    # links only the vertices of Lambda (+) -Lambda, and only when one of
    # them lies off the seed equations: tp3's gates link nothing, and each
    # of b = 3's three gates on Box(4, 9) links its 8 vertices, under the
    # seed's supports, then under each step's.  Each Newton operator on
    # Lambda_R links its own doubled sites once, under the supports its
    # step's gate read; the final inverse reads the last step's frame,
    # which links again only under other supports: tp3's final supports
    # are its second step's, b = 3's are not.  Nothing is held across
    # commands, so a second identical solve in the same process does the
    # same work.
    import sys
    from nlsqp import characteristics, lattice
    calls = {"convolve": 0, "links": []}
    convolve, resonance_links = lattice.convolve, characteristics.resonance_links

    def counted_convolve(*args, **kwargs):
        calls["convolve"] += 1
        return convolve(*args, **kwargs)

    def counted_links(box, vertices, copies, supports, b):
        calls["links"].append((len(vertices), supports))
        return resonance_links(box, vertices, copies, supports, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("nlsqp"):
            for attr, value in list(vars(module).items()):
                if value is convolve:
                    monkeypatch.setattr(module, attr, counted_convolve)
                elif value is resonance_links:
                    monkeypatch.setattr(module, attr, counted_links)
    cfg = parse_config(TP3_CFG)
    counts = []
    for run in ("a", "b"):
        assert run_command("solve", cfg, out_path=str(tmp_path / run)) == EXIT_OK
        counts.append((calls["convolve"], len(calls["links"])))
        graph, *operators = calls["links"]
        assert [n for n, _ in operators] == [20, 24] and graph[0] > 24
        assert operators[0][1] == graph[1]
        calls.update(convolve=0, links=[])
    assert counts[0] == counts[1]
    # Four sets of products (the seed's and three steps'), six convolutions
    # each at p = 2, and ten for the seed's Q Jacobian.
    assert counts[0][0] == 4 * 6 + 10
    cfg = parse_config(B3_CFG + "\n[truncation]\nn_radius = 4\nj_radius = 9\n")
    assert run_command("solve", cfg, out_path=str(tmp_path / "b3")) == EXIT_OK
    graph, *steps = calls["links"]
    gates, operators = steps[0::2], steps[1::2]
    assert len(gates) == 3 and {n for n, _ in gates} == {8} and graph[0] > 8
    assert gates[0][1] == graph[1] and len({sup for _, sup in gates}) == 3
    assert [n for n, _ in operators] == [54, 96, 96]
    assert [sup for _, sup in operators] == [sup for _, sup in gates]


def test_the_names_the_benchmark_reads_exist():
    # bench/tracer.py and bench/run.py reach into the package by name, from
    # outside it; a rename here would break a benchmark run silently.
    import dataclasses
    import importlib
    import inspect
    from nlsqp.characteristics import ResonanceGraph
    from nlsqp.newton import diophantine_check
    from nlsqp.verify import evolve_drift
    assert "vertices" in {f.name for f in dataclasses.fields(ResonanceGraph)}
    assert {"T", "dt"} <= set(inspect.getfullargspec(evolve_drift).args)
    assert {"n_radius", "omega"} <= set(inspect.getfullargspec(diophantine_check).args)
    for name in ("newton.residual_series", "lattice.conjugate_flip", "verify.default_weight",
                 "verify.weighted_norm", "cli.read_solution", "cli.load_config",
                 "cli.run_command",
                 # the traced layers of the benchmark's per-layer metrics
                 "newton.excision_sweep", "newton.newton_step",
                 "newton.q_solve", "newton.first_iteration", "lattice.convolve",
                 "characteristics.resonance_graph", "conditions.check_condition_ii",
                 "conditions.check_condition_i", "conditions.symbol_supports",
                 "conditions.oned_check", "verify.pde_residual", "cli.parse_config",
                 "cli.write_report"):
        module, attr = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"nlsqp.{module}"), attr)), name


B3_CFG = """
[problem]
d = 1
b = 3
p = 1
delta = 1e-3
modes = (1):0.6, (2):0.8, (4):0.5
"""


# Runs nlsqp.cli.main on its arguments (or only imports nlsqp.cli) and prints
# the exit code and the scipy modules the interpreter has loaded.
SCIPY_PROBE = """
import sys
import nlsqp.cli
code = nlsqp.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_modules_after(tmp_path, *argv):
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, *mods = proc.stdout.split()
    return int(code), set(mods)


def test_only_solve_loads_scipy(tmp_path):
    # check, verify and sweep build no sparse matrix and factor nothing, so
    # their processes never import scipy; solve factors nothing either but
    # loads scipy's sparse solvers (see cmd_solve for why).
    cfg = write(tmp_path, "tp2.cfg", TP2_CFG)
    none = (EXIT_OK, set())
    assert scipy_modules_after(tmp_path) == none
    assert scipy_modules_after(tmp_path, "check", cfg, "--out", "check.txt") == none
    code, mods = scipy_modules_after(tmp_path, "solve", cfg, "--out", "solve")
    assert code == EXIT_OK and "scipy.sparse.linalg" in mods
    assert scipy_modules_after(tmp_path, "verify", cfg, "--solution", "solve/solution.txt",
                               "--out", "verify.txt") == none
    assert scipy_modules_after(tmp_path, "sweep", cfg, "--out", "sweep.csv") == none


def test_only_cmd_solve_imports_scipy():
    # The package is numpy only.  cmd_solve's import serves the benchmark's
    # speed probe (see there), and goes once bench/ imports the module
    # itself.
    import ast
    from pathlib import Path
    found = []

    def visit(node, path, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            found.extend((path.name, fn, m) for m in names if m.split(".")[0] == "scipy")
            visit(child, path, fn)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nlsqp").glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert found == [("cli.py", "cmd_solve", "scipy.sparse.linalg")]


def test_no_module_reads_the_environment():
    # Artifacts depend on the config alone: no setting comes from the
    # process environment.
    from pathlib import Path
    package = Path(__file__).resolve().parents[1] / "src" / "nlsqp"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name


def _public_defs_and_uses():
    # The public methods of package classes and the public module-level
    # functions of the package, as (owner, FunctionDef), with a count of
    # every name used in src/ or scripts/ (an import is not a use; neither
    # the tests nor the benchmark are pipeline callers).
    import ast
    from collections import Counter
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "nlsqp").glob("*.py"))
    named, methods, functions = Counter(), [], []
    for path in package + sorted((root / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named += _names_used(tree)
        if path in package:
            methods += [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for fn in _public_functions(cls.body)]
            functions += [(path.stem, fn) for fn in _public_functions(tree.body)]
    return methods, functions, named


def _names_used(tree):
    import ast
    from collections import Counter
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _public_functions(body):
    import ast
    return [fn for fn in body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def _uncalled(defs, named):
    return sorted(f"{owner}.{fn.name}" for owner, fn in defs
                  if named[fn.name] <= _names_used(fn)[fn.name])


def test_every_public_function_has_a_caller():
    # A public module-level function of the package is named somewhere in
    # src/ or scripts/ outside its own def.  The oracles that only the tests
    # call live in tests/oracles.py.
    _, functions, named = _public_defs_and_uses()
    assert {("verify", "evolve_drift"), ("newton", "solve")} <= {
        (owner, fn.name) for owner, fn in functions}
    assert _uncalled(functions, named) == []


def test_every_public_method_has_a_caller():
    # A public method of a package class is named somewhere in src/ or
    # scripts/ outside its own def: a method only the tests or the benchmark
    # call leaves the package.
    methods, _, named = _public_defs_and_uses()
    assert ("SparseSeries", "support") in {(cls, fn.name) for cls, fn in methods}
    assert _uncalled(methods, named) == []


# Dataclass fields of the package that nothing reads as an attribute, each
# kept for a reason outside the pipeline.
UNREAD_KEPT = {
    "ConditionReport.parameters": "the scale a verdict holds at (box, depth bound)",
    "Membership.reason": "why a membership search answered no or unknown",
    "RankCheck.rows": "the integer matrix whose kernel the rank test reports",
    "WalkEdge.kind": "the symbol (diag, uu or vv) of a step of a spiral witness",
}


ROOT = Path(__file__).resolve().parents[1]


def dataclass_fields():
    """(class, field) of every dataclass in the package but the *Cfg config
    sections, which are read through dataclasses.fields."""
    import ast

    def is_dataclass(node):
        return any(isinstance(d, ast.Name) and d.id == "dataclass"
                   or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                   for d in node.decorator_list)

    declared = set()
    for path in sorted((ROOT / "src" / "nlsqp").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.ClassDef) and is_dataclass(node)
                    and not node.name.endswith("Cfg")):
                declared |= {(node.name, stmt.target.id) for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name)}
    return declared


def attributes_read(*folders):
    """Every attribute name read (loaded) in the Python files under the
    folders of the repository."""
    import ast
    return {node.attr for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_has_a_reader():
    # A field of a dataclass in the package is read as an attribute
    # somewhere in src/, scripts/, bench/ or tests/.
    declared = dataclass_fields()
    read = attributes_read("src", "scripts", "bench", "tests")
    assert ("SolveReport", "state") in declared and "ResonanceGraph" in {c for c, _ in declared}
    assert sorted(f"{cls}.{name}" for cls, name in declared if name not in read) == \
        sorted(UNREAD_KEPT)


def test_graph_block_and_modulation_fields_are_read_outside_the_tests():
    # The resonance graph and the first step's report hold only what a
    # command, script or the benchmark reads.
    declared = dataclass_fields()
    read = attributes_read("src", "scripts", "bench")
    kept = {"ResonanceGraph": {"vertices", "tags", "links", "labels", "order", "bounds"},
            "ModulationReport": {"delta_omega", "jac_det", "diophantine", "seed_residual"}}
    for cls, fields in kept.items():
        assert {name for c, name in declared if c == cls} == fields
        assert fields <= read, cls
