"""Config types: the construction check, classification, serialization."""
import json
import math
from dataclasses import replace

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
)


def cfg(m=1, n=2, rates=None, mus=None, disc="lcfs-s"):
    if rates is None:
        rates = [[1.0] * n for _ in range(m)]
    if mus is None:
        mus = [1.0] * n
    return NetworkConfig(m, n, rates, mus, disc)


def test_valid_config_has_no_violations():
    # construction is the check: a config that exists is valid
    assert cfg().arrival_rates == ((1.0, 1.0),)


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
    with pytest.raises(ConfigError, match=r"^service_rates entries must be finite and > 0$"):
        cfg(mus=[1.0, 0.0])


def test_dimension_mismatch_reported():
    with pytest.raises(ConfigError) as e:
        NetworkConfig(2, 2, [[1.0, 1.0, 1.0], [1.0]], [1.0, 1.0], "lcfs-s")
    assert str(e.value) == (
        "arrival_rates[0] has 3 entries, expected 2; arrival_rates[1] has 1 entries, expected 2"
    )


def test_row_count_mismatch_reported():
    with pytest.raises(ConfigError, match=r"^arrival_rates has 1 rows, expected 2$"):
        NetworkConfig(2, 2, [[1.0, 1.0]], [1.0, 1.0], "lcfs-s")


def test_negative_arrival_rate_rejected():
    with pytest.raises(ConfigError, match=r"^arrival_rates\[0\] entries must be finite and >= 0$"):
        cfg(rates=[[1.0, -0.5]])


def test_zero_sum_source_rejected():
    # a source that never sends has unbounded age
    with pytest.raises(ConfigError, match=r"^arrival_rates\[0\] must have a positive sum$"):
        cfg(rates=[[0.0, 0.0]])


def test_zero_single_rate_but_positive_sum_ok():
    assert cfg(rates=[[0.0, 1.0]]).source_total(0) == 1.0


def test_non_positive_counts_rejected():
    with pytest.raises(ConfigError, match="^sources must be a positive integer$"):
        NetworkConfig(0, 2, [], [1.0, 1.0], "lcfs-s")
    with pytest.raises(ConfigError, match="^servers must be a positive integer$"):
        NetworkConfig(1, 0, [[]], [], "lcfs-s")


def test_type_errors_use_the_document_field_messages():
    # a Python caller gets the message a JSON document with the same field gets
    with pytest.raises(ConfigError, match="^field 'discipline' must be one of 'lcfs-s'"):
        cfg(disc="lifo")
    with pytest.raises(ConfigError, match="^field 'service_rates' must be a list of numbers$"):
        cfg(mus=(1.0, "2"))
    # rows may be lists or tuples, and both normalize to the same config
    assert NetworkConfig(1, 2, ((1.0, 2.0),), (1.0, 1.0)) == NetworkConfig(1, 2, [[1, 2]], [1, 1])


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


# one corruption per kind; each takes a valid config and returns the changed field
def _row_count(draw, c):
    rows = list(c.arrival_rates)
    rows = rows[:-1] if draw(st.booleans()) else rows + [rows[0]]
    return {"arrival_rates": rows}


def _row_length(draw, c):
    rows = [list(row) for row in c.arrival_rates]
    i = draw(st.integers(0, c.sources - 1))
    rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [1.0]
    return {"arrival_rates": rows}


def _bad_rate(draw, c):
    rows = [list(row) for row in c.arrival_rates]
    i, j = draw(st.integers(0, c.sources - 1)), draw(st.integers(0, c.servers - 1))
    negative = st.floats(max_value=-math.ulp(0.0), allow_infinity=False)
    rows[i][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]) | negative)
    return {"arrival_rates": rows}


def _zero_sum_row(draw, c):
    rows = [list(row) for row in c.arrival_rates]
    rows[draw(st.integers(0, c.sources - 1))] = [0.0] * c.servers
    return {"arrival_rates": rows}


def _bad_service_rate(draw, c):
    mus = list(c.service_rates)
    bad = st.floats(max_value=0.0, allow_infinity=False) | st.sampled_from([math.nan, math.inf])
    mus[draw(st.integers(0, c.servers - 1))] = draw(bad)
    return {"service_rates": mus}


def _bool_count(draw, c):
    return {draw(st.sampled_from(["sources", "servers"])): draw(st.booleans())}


def _bool_rate(draw, c):
    if draw(st.booleans()):
        mus = list(c.service_rates)
        mus[draw(st.integers(0, c.servers - 1))] = True
        return {"service_rates": mus}
    rows = [list(row) for row in c.arrival_rates]
    rows[draw(st.integers(0, c.sources - 1))][draw(st.integers(0, c.servers - 1))] = True
    return {"arrival_rates": rows}


def _non_list_row(draw, c):
    rows = [list(row) for row in c.arrival_rates]
    rows[draw(st.integers(0, c.sources - 1))] = draw(st.sampled_from([1.0, "1.0", None, {}]))
    return {"arrival_rates": rows}


def _unknown_discipline(draw, c):
    names = {d.value for d in QueueDiscipline}
    return {"discipline": draw(st.text(max_size=8).filter(lambda s: s not in names))}


CORRUPTIONS = (
    _row_count, _row_length, _bad_rate, _zero_sum_row, _bad_service_rate,
    _bool_count, _bool_rate, _non_list_row, _unknown_discipline,
)


@st.composite
def corrupted_configs(draw):
    """A valid config and a change to one of its fields that makes it malformed."""
    c = draw(valid_configs())
    return c, draw(st.sampled_from(CORRUPTIONS))(draw, c)


def _message(build) -> str:
    with pytest.raises(ConfigError) as e:
        build()
    return str(e.value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(corrupted_configs())
# configs the exact engines once solved: a NaN rate, a negative rate and a
# short row each gave an age of 2.0, and too few rows an IndexError
@example((cfg(), {"arrival_rates": [[math.nan, 1.0]]}))
@example((cfg(), {"arrival_rates": [[-1.0, 1.0]]}))
@example((cfg(), {"arrival_rates": [[1.0]]}))
@example((cfg(m=2), {"arrival_rates": [[1.0, 1.0]]}))
# a bool count the old check passed, though load_config rejected its dump
@example((cfg(n=1), {"sources": True}))
def test_every_way_to_build_a_config_runs_the_one_check(case):
    c, change = case
    doc = {**json.loads(dump_config(c)), **change}
    messages = {
        _message(lambda: NetworkConfig(**doc)),
        _message(lambda: replace(c, **change)),
        _message(lambda: load_config(json.dumps(doc))),
    }
    assert len(messages) == 1


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
