"""The contracts of the package's record types: validation and its text,
immutability, hashing and pickling."""
import json
import pickle

import pytest

from dworkzeta import cli
from dworkzeta.cli import main
from dworkzeta.config import Caps, SweepConfig
from dworkzeta.errors import ConfigError, NotPrime
from dworkzeta.ff import PrimePower
from dworkzeta.slope import HodgeData, newton_polygon
from dworkzeta.zeta import IntPoly

_SWEEP_FIELDS = ("n_list", "prime_list", "r_list", "k_max", "lambda_mode",
                 "lambda_list", "tier", "seed", "out_dir", "threads",
                 "zeta_n_max", "caps")


@pytest.mark.parametrize("caps,err", [
    ({"torus_enum_max": True},
     "bad configuration: caps torus_enum_max True is not an integer\n"),
    ({"probe_enum_max": 1, "affine_enum_max": 5},
     "bad configuration: unknown caps key(s): probe_enum_max\n"),
], ids=["bool-value", "unknown-key"])
def test_caps_errors_exit_2_with_their_text(tmp_path, capsys, caps, err):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"caps": caps}))
    for argv in (["count", "--n", "2", "--p", "3", "--method", "charsum"],
                 ["sweep", "--out", str(tmp_path / "o")]):
        assert main(argv + ["--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == err
    with pytest.raises(ConfigError, match="^caps torus_enum_max True is "
                                          "not an integer$"):
        Caps(torus_enum_max=True)


def test_caps_and_sweep_config_defaults():
    caps = Caps()
    assert (caps.field_table_max_q, caps.affine_enum_max,
            caps.torus_enum_max, caps.precision_override) == \
        (1 << 26, 1 << 34, 1 << 30, 0)
    cfg, other = SweepConfig(), SweepConfig()
    assert [getattr(cfg, key) for key in _SWEEP_FIELDS] == [
        [2, 3], [3, 5, 7], [1], 2, "all", [], "ci", 0, "sweep_out", 1, 2,
        caps]
    # list defaults are not shared between configs
    cfg.n_list.append(4)
    assert other.n_list == [2, 3]
    assert SweepConfig(k_max=3, caps=Caps(torus_enum_max=7)).caps == \
        Caps(torus_enum_max=7)
    with pytest.raises(ConfigError, match="^n_list None is not a list of "
                                          "integers$"):
        SweepConfig(n_list=None)


def test_prime_power_contract():
    with pytest.raises(NotPrime):
        PrimePower(4, 1)
    with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
        PrimePower(3, 0)
    pp = PrimePower(3, 2)
    assert pp.q == 9 and (pp.p, pp.r) == (3, 2)
    assert PrimePower(p=3, r=2) == pp and hash(PrimePower(3, 2)) == hash(pp)
    assert PrimePower(3, 1) != pp
    assert repr(pp) == "PrimePower(3^2=9)"


def test_asymmetric_hodge_data_is_refused():
    with pytest.raises(ValueError, match="^Hodge numbers must be symmetric$"):
        HodgeData(d=1, h=((1, 2), (0, 1)))


@pytest.mark.parametrize("record,attr", [
    (Caps(), "torus_enum_max"),
    (PrimePower(5, 1), "q"),
    (newton_polygon(IntPoly([1, -4, 4]), 2, 2), "vertices"),
    (HodgeData(d=1, h=((1, 1), (1, 1))), "d"),
], ids=["Caps", "PrimePower", "NewtonPolygon", "HodgeData"])
def test_frozen_records_refuse_assignment(record, attr):
    with pytest.raises(AttributeError):
        setattr(record, attr, 0)


def test_worker_records_pickle():
    caps = Caps(field_table_max_q=81, precision_override=5)
    assert pickle.loads(pickle.dumps(caps)) == caps
    pp = pickle.loads(pickle.dumps(PrimePower(5, 2)))
    assert pp == PrimePower(5, 2) and hash(pp) == hash(PrimePower(5, 2))
    cfg = SweepConfig(n_list=[2, 4], lambda_mode="zero", seed=3, caps=caps)
    cfg.threads = 2  # `sweep` sets its options on the loaded config
    back = pickle.loads(pickle.dumps(cfg))
    assert type(back) is SweepConfig
    assert [getattr(back, key) for key in _SWEEP_FIELDS] == \
        [getattr(cfg, key) for key in _SWEEP_FIELDS]
