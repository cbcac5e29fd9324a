import pytest

from skewalg.config import Config


@pytest.mark.parametrize("kwargs, message", [
    ({"max_ambient_dimension": 0}, "limits must be positive"),
    ({"max_ambient_dimension": -1}, "limits must be positive"),
    ({"max_generators": 0}, "limits must be positive"),
    ({"max_generators": -5}, "limits must be positive"),
    ({"output_format": "xml"}, "output_format must be 'text' or 'json'"),
    ({"certificate_directory": ""},
     "certificate_directory must name a directory, not be empty"),
])
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError) as e:
        Config(**kwargs)
    assert str(e.value) == message


def test_config_fields_and_defaults():
    assert Config()._asdict() == {
        "max_ambient_dimension": 6000, "max_generators": 2_000_000,
        "output_format": "text", "certificate_directory": None, "random_seed": 271828}
