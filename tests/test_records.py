"""What every public record promises: it is frozen, equal fields make equal
records with equal hashes, its repr is ``Name(field=value, ...)``, it takes
keyword arguments, and it rejects invalid input with ValidationError, in a
copy made by ``_replace``, ``_make`` or ``dataclasses.replace`` too."""

import dataclasses
import math
from fractions import Fraction

import pytest

from wedge_cot.constants import EV_PER_HARTREE, PhysicalConstants
from wedge_cot.errors import ValidationError
from wedge_cot.geometry import Approach, IonPosition, RayPath, WedgeGeometry
from wedge_cot.orbits import ClosedOrbit, ExactOrbit, OrbitSearchConfig
from wedge_cot.spectrum import Polarization, ReflectionModel, SpectrumPoint
from wedge_cot.sweeps import Dataset

#: (class, valid keyword arguments in field order, one field set invalid or
#: None when the record takes any value).
RECORDS = [
    (PhysicalConstants,
     dict(b_norm=0.31522, binding_energy_ev=0.754, c_light=137.036,
          ev_per_hartree=EV_PER_HARTREE),
     dict(c_light=-1.0)),
    (WedgeGeometry, dict(opening_angle=math.pi / 5, n_integer=5),
     dict(opening_angle=0.0)),
    (IonPosition, dict(rho=200.0, beta=0.2), dict(rho=-1.0)),
    (Approach,
     dict(reflections=1, signed_miss=0.5, path_length=3.0, direction=(0.6, 0.8)),
     None),
    (RayPath,
     dict(segments=(((0.5, -1.0), (1.0, 0.0)),), reflections=0, total_length=1.25,
          approaches=(), final_direction=(0.6, 0.8), escaped=True),
     None),
    (ClosedOrbit, dict(index=1, phi_out=0.5, phi_ret=1.0, m=1, length=10.0),
     dict(m=0)),
    (ExactOrbit,
     dict(index=1, phi_out_over_pi=Fraction(1, 5), phi_ret_over_pi=Fraction(6, 5),
          m=1, chord_over_pi=Fraction(2, 15)),
     None),
    (OrbitSearchConfig, dict(max_reflections=9), dict(max_reflections=0)),
    (Polarization, dict(theta_L=1.0, phi_L=2.0), dict(theta_L=4.0)),
    (ReflectionModel, dict(delta=math.pi), dict(delta=math.nan)),
    (SpectrumPoint,
     dict(e_photon_ev=1.0, energy=0.01, k=0.1, sigma0=1.0, sigma_osc=0.5,
          sigma=1.5),
     dict(sigma=2.0)),
    (Dataset, dict(columns=("a", "b"), rows=((1.0, 2.0),), meta=(("key", "v"),)),
     dict(rows=((1.0,),))),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, invalid", RECORDS, ids=IDS)
def test_record_takes_keywords_and_keeps_them(cls, fields, invalid):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, invalid", RECORDS, ids=IDS)
def test_record_is_frozen(cls, fields, invalid):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, invalid", RECORDS, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, fields, invalid):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, invalid", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, invalid):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


#: Every checked field of a record, with an invalid value for it.
INVALID = [(cls, fields, invalid) for cls, fields, invalid in RECORDS
           if invalid is not None] + [
    (WedgeGeometry, dict(opening_angle=math.pi / 5, n_integer=5), dict(n_integer=4)),
    (IonPosition, dict(rho=200.0, beta=0.2), dict(beta=math.inf)),
    (ClosedOrbit, dict(index=1, phi_out=0.5, phi_ret=1.0, m=1, length=10.0),
     dict(length=math.inf)),
    (ClosedOrbit, dict(index=1, phi_out=0.5, phi_ret=1.0, m=1, length=10.0),
     dict(phi_ret=2.0 * math.pi)),
    (Dataset, dict(columns=("a", "b"), rows=((1.0, 2.0),), meta=()),
     dict(rows=((1.0, math.nan),))),
]
INVALID_IDS = [f"{cls.__name__}-{next(iter(invalid))}" for cls, _, invalid in INVALID]


@pytest.mark.parametrize("cls, fields, invalid", INVALID, ids=INVALID_IDS)
def test_invalid_input_raises_validation_error(cls, fields, invalid):
    cls(**fields)
    with pytest.raises(ValidationError):
        cls(**{**fields, **invalid})


@pytest.mark.parametrize("cls, fields, invalid", INVALID, ids=INVALID_IDS)
def test_copies_are_checked_like_new_records(cls, fields, invalid):
    # A named tuple's own _replace and _make would skip __new__ and its checks.
    record = cls(**fields)
    changed = {**fields, **invalid}
    for copy_of in (lambda: record._replace(**invalid),
                    lambda: cls._make(changed.values()),
                    lambda: dataclasses.replace(record, **invalid)):
        with pytest.raises(ValidationError):
            copy_of()


@pytest.mark.parametrize("cls, fields, invalid", RECORDS, ids=IDS)
def test_copies_keep_the_other_fields(cls, fields, invalid):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    assert record._replace() == record and type(record._replace()) is cls
    assert cls._make(fields.values()) == record
    assert dataclasses.replace(record, **{name: value}) == record
    assert dataclasses.asdict(record) == fields
    assert [f.name for f in dataclasses.fields(record)] == list(fields)


def test_wedge_fills_n_integer_and_polarization_wraps_phi():
    assert WedgeGeometry(math.pi / 5) == WedgeGeometry(math.pi / 5, 5)
    assert WedgeGeometry(1.0).n_integer is None
    assert Polarization(1.0, 2.0 * math.pi + 1.0).phi_L == pytest.approx(1.0)
    # A copy goes through the same constructor.
    with pytest.raises(ValidationError):
        WedgeGeometry(math.pi / 5)._replace(opening_angle=1.0)
    assert Polarization(1.0, 2.0)._replace(phi_L=2.0 * math.pi + 1.0).phi_L == (
        pytest.approx(1.0))


def test_oracle_records():
    np = pytest.importorskip("numpy")
    from wedge_cot.oracle import ActionSpectrum, QuadratureSpec

    fields = dict(radial_cutoff=30.0, radial_nodes=128, polar_nodes=64,
                  azimuthal_nodes=96)
    spec = QuadratureSpec(**fields)
    assert spec == QuadratureSpec(*fields.values())
    assert hash(spec) == hash(QuadratureSpec(*fields.values()))
    assert repr(spec) == ("QuadratureSpec(radial_cutoff=30.0, radial_nodes=128, "
                          "polar_nodes=64, azimuthal_nodes=96)")
    assert QuadratureSpec(radial_cutoff=30.0).radial_nodes == 256
    with pytest.raises(AttributeError):
        spec.radial_nodes = 512
    for invalid in (dict(radial_nodes=32), dict(radial_cutoff=math.inf)):
        with pytest.raises(ValidationError):
            QuadratureSpec(**{**fields, **invalid})

    # Arrays have no single truth value: an action spectrum equals itself only.
    lengths, magnitudes = np.arange(3.0), np.ones(3)
    spectrum = ActionSpectrum(lengths=lengths, magnitudes=magnitudes, peaks=())
    assert spectrum == spectrum
    assert spectrum != ActionSpectrum(lengths, magnitudes, ())
    assert hash(spectrum) == hash(spectrum)
    assert spectrum.lengths is lengths and spectrum.peaks == ()
    with pytest.raises(AttributeError):
        spectrum.peaks = ((1.0, 1.0),)
