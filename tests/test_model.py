"""Config types: validation, classification, serialization."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoinet.model import (
    ConfigError,
    HomogeneityClass,
    NetworkConfig,
    QueueDiscipline,
    classify,
    dump_config,
    load_config,
    validate,
)


def cfg(m=1, n=2, rates=None, mus=None, disc="lcfs-s"):
    if rates is None:
        rates = [[1.0] * n for _ in range(m)]
    if mus is None:
        mus = [1.0] * n
    return NetworkConfig(m, n, rates, mus, disc)


def test_valid_config_has_no_violations():
    assert validate(cfg()) == []


def test_rates_are_coerced_to_tuples():
    c = cfg(rates=[[1, 2]], mus=[1, 3])
    assert c.arrival_rates == ((1.0, 2.0),)
    assert c.service_rates == (1.0, 3.0)
    assert c.discipline is QueueDiscipline.LCFS_S


def test_config_is_immutable():
    c = cfg()
    with pytest.raises(AttributeError):
        c.servers = 5


def test_source_total():
    c = cfg(rates=[[0.5, 1.5]])
    assert c.source_total(0) == 2.0


def test_zero_service_rate_rejected():
    problems = validate(cfg(mus=[1.0, 0.0]))
    assert any("service" in p for p in problems)


def test_dimension_mismatch_reported():
    c = NetworkConfig(2, 2, [[1.0, 1.0, 1.0], [1.0]], [1.0, 1.0], "lcfs-s")
    problems = validate(c)
    assert any("arrival_rates[0]" in p for p in problems)
    assert any("arrival_rates[1]" in p for p in problems)


def test_row_count_mismatch_reported():
    c = NetworkConfig(2, 2, [[1.0, 1.0]], [1.0, 1.0], "lcfs-s")
    assert any("rows" in p for p in validate(c))


def test_negative_arrival_rate_rejected():
    assert validate(cfg(rates=[[1.0, -0.5]])) != []


def test_zero_sum_source_rejected():
    # a source that never sends has unbounded age
    assert any("positive sum" in p for p in validate(cfg(rates=[[0.0, 0.0]])))


def test_zero_single_rate_but_positive_sum_ok():
    assert validate(cfg(rates=[[0.0, 1.0]])) == []


def test_non_positive_counts_rejected():
    assert validate(NetworkConfig(0, 2, [], [1.0, 1.0], "lcfs-s")) != []
    assert validate(NetworkConfig(1, 0, [[]], [], "lcfs-s")) != []


def test_classify_single_source_homogeneous():
    assert classify(cfg(rates=[[2.0, 2.0]])) is HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE


def test_classify_multi_source_homogeneous():
    c = cfg(m=2, rates=[[1.0, 1.0], [3.0, 3.0]])
    assert classify(c) is HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE


def test_classify_heterogeneous_single_source():
    c = cfg(rates=[[1.0, 2.0]], mus=[1.0, 3.0])
    assert classify(c) is HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE
    # unequal service rates alone also break exchangeability
    c = cfg(rates=[[1.0, 1.0]], mus=[1.0, 3.0])
    assert classify(c) is HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE


def test_classify_general():
    c = cfg(m=2, rates=[[1.0, 2.0], [1.0, 1.0]])
    assert classify(c) is HomogeneityClass.GENERAL


def test_classify_is_exact_on_floats():
    c = cfg(rates=[[1.0, 1.0 + 1e-12]])
    assert classify(c) is HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE


def test_classify_ignores_server_permutation():
    a = cfg(m=2, rates=[[1.0, 1.0], [2.0, 2.0]], mus=[1.5, 1.5])
    b = cfg(m=2, rates=[[1.0, 1.0], [2.0, 2.0]], mus=[1.5, 1.5])
    assert classify(a) is classify(b) is HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE


@st.composite
def valid_configs(draw):
    """Configs load_config accepts: any finite rates, a positive sum per source."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rate = st.floats(min_value=0.0, allow_infinity=False)
    row = st.lists(rate, min_size=n, max_size=n).filter(lambda r: sum(r) > 0)
    rates = draw(st.lists(row, min_size=m, max_size=m))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    mus = draw(st.lists(positive, min_size=n, max_size=n))
    return cfg(m, n, rates, mus, draw(st.sampled_from(QueueDiscipline)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(valid_configs())
@example(cfg(m=2, n=3, rates=[[1.0, 0.5, 0.25], [2.0, 2.0, 2.0]], mus=[1.0, 2.0, 3.0]))
def test_round_trip_config_to_text_and_back(c):
    assert load_config(dump_config(c)) == c


@settings(derandomize=True, max_examples=200, deadline=None)
@given(valid_configs())
@example(cfg())
def test_round_trip_canonical_document(c):
    # the canonical documents are the texts dump_config writes
    text = dump_config(c)
    assert dump_config(load_config(text)) == text


def test_load_missing_field():
    with pytest.raises(ConfigError, match="missing field"):
        load_config('{"sources": 1, "servers": 1, "arrival_rates": [[1]], "discipline": "fcfs"}')


def test_load_unknown_field():
    doc = dump_config(cfg()).rstrip("\n}").rstrip() + ', "extra": 1}'
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(doc)


def test_load_negative_rate_fails_validation():
    with pytest.raises(ConfigError, match="arrival_rates"):
        load_config(
            '{"sources": 1, "servers": 1, "arrival_rates": [[-1.0]],'
            ' "service_rates": [1.0], "discipline": "lcfs-s"}'
        )


def test_load_parse_error_has_position():
    with pytest.raises(ConfigError, match=r"line \d+ column \d+"):
        load_config('{"sources": 1,\n "servers": }')


def test_load_rejects_non_object():
    with pytest.raises(ConfigError, match="object"):
        load_config("[1, 2]")


def test_load_rejects_bool_counts():
    with pytest.raises(ConfigError, match="integer"):
        load_config(
            '{"sources": true, "servers": 1, "arrival_rates": [[1.0]],'
            ' "service_rates": [1.0], "discipline": "lcfs-s"}'
        )


def test_load_rejects_unknown_discipline():
    with pytest.raises(ConfigError, match="discipline"):
        load_config(
            '{"sources": 1, "servers": 1, "arrival_rates": [[1.0]],'
            ' "service_rates": [1.0], "discipline": "lifo"}'
        )


def test_load_rejects_malformed_rate_matrix():
    with pytest.raises(ConfigError, match="arrival_rates"):
        load_config(
            '{"sources": 1, "servers": 1, "arrival_rates": [1.0],'
            ' "service_rates": [1.0], "discipline": "lcfs-s"}'
        )


def test_discipline_values():
    assert {d.value for d in QueueDiscipline} == {"lcfs-s", "lcfs-w", "fcfs"}
