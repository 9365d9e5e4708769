"""Space-description JSON parsing, diagnostics, and round trips."""

import json
import re

import pytest

from condexp import (
    MeasureFamily,
    OutcomeSpace,
    Partition,
    SpaceBundle,
    SpaceFormatError,
    load_space_file,
    parse_space_data,
    space_file_dict,
    write_space_file,
)

GOOD = {
    "labels": ["00", "01", "10", "11"],
    "measures": [[0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.1, 0.4]],
    "partitions": {"rows": [[0, 1], [2, 3]], "cols": [[0, 2], [1, 3]]},
}


def test_parse_good_document():
    bundle = parse_space_data(GOOD)
    assert bundle.n == 4
    assert bundle.family.m == 2
    assert bundle.partition("rows") == Partition([[0, 1], [2, 3]])


def test_unknown_partition_name():
    bundle = parse_space_data(GOOD)
    with pytest.raises(SpaceFormatError, match="cols"):
        bundle.partition("diag")


def test_overlap_diagnostic_names_index():
    doc = dict(GOOD, partitions={"bad": [[0, 1], [1, 2, 3]]})
    with pytest.raises(SpaceFormatError, match="overlap at index 1"):
        parse_space_data(doc)


def test_coverage_diagnostic_names_index():
    doc = dict(GOOD, partitions={"bad": [[0, 1], [3]]})
    with pytest.raises(SpaceFormatError, match="cover index 2"):
        parse_space_data(doc)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [2, 3.5]],
    [[0, 1], [2, None]],
    [[0, 1], [2, False], [3]],
    [[0, 1], [[2], [3, 4]]],      # ragged nesting
    [[0, 1], 2, [3]],             # a bare index instead of a block
    [[0, 1], [2, 3000000000000]],  # far past the last outcome
])
def test_malformed_partition_indices_name_the_partition(blocks):
    doc = dict(GOOD, partitions={"rows": [[0, 1], [2, 3]], "odd": blocks})
    with pytest.raises(SpaceFormatError, match="bad partition 'odd'"):
        parse_space_data(doc)


def test_partition_size_mismatch():
    doc = dict(GOOD, partitions={"short": [[0, 1]]})
    with pytest.raises(SpaceFormatError, match="covers 2 outcomes"):
        parse_space_data(doc)


def test_bad_measures_rejected():
    doc = dict(GOOD, measures=[[0.5, 0.5, 0.1, 0.0]])
    with pytest.raises(SpaceFormatError, match="measures"):
        parse_space_data(doc)
    doc = dict(GOOD, measures=[[0.5, 0.5]])
    with pytest.raises(SpaceFormatError):
        parse_space_data(doc)


def test_missing_fields_rejected():
    with pytest.raises(SpaceFormatError, match="labels"):
        parse_space_data({"measures": [[1.0]]})
    with pytest.raises(SpaceFormatError, match="measures"):
        parse_space_data({"labels": ["a"]})
    with pytest.raises(SpaceFormatError):
        parse_space_data([1, 2, 3])


def test_wrong_field_types_rejected():
    with pytest.raises(SpaceFormatError, match="'labels' must be a list"):
        parse_space_data(dict(GOOD, labels="abcd"))
    with pytest.raises(SpaceFormatError, match="'partitions' must be an object"):
        parse_space_data(dict(GOOD, partitions=[[0, 1], [2, 3]]))


def test_file_round_trip(tmp_path):
    bundle = parse_space_data(GOOD)
    path = tmp_path / "space.json"
    write_space_file(bundle, path)
    again = load_space_file(path)
    assert again.space == bundle.space
    assert (again.family.weights == bundle.family.weights).all()
    assert again.partitions == bundle.partitions


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(SpaceFormatError, match="JSON"):
        load_space_file(path)


def test_load_refuses_unreadable_files_as_format_errors(tmp_path):
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "missing.json", tmp_path, undecodable):
        with pytest.raises(SpaceFormatError, match=f"^cannot read {re.escape(str(path))}: "):
            load_space_file(path)


def test_dict_form_is_plain_json():
    bundle = SpaceBundle(
        OutcomeSpace.indexed(2),
        MeasureFamily([[0.5, 0.5]]),
        {"all": Partition.trivial(2)},
    )
    text = json.dumps(space_file_dict(bundle))
    assert json.loads(text)["partitions"]["all"] == [[0, 1]]
