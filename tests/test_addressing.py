import pytest

from qnroute.addressing import AddressPlan, QuantumAddress, address_width


@pytest.mark.parametrize("n_e, width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (16, 4), (17, 5)])
def test_plan_addresses_nodes_by_id_at_ceil_log2_width(n_e, width):
    plan = AddressPlan(n_e)
    assert address_width(n_e) == plan.width == width
    assert [a.bits for a in plan.esp_addresses] == [format(v, f"0{width}b") for v in range(n_e)]
    assert [a.index for a in plan.esp_addresses] == list(range(n_e))


def test_single_node_network_gets_minimum_width():
    plan = AddressPlan(1)
    assert plan.width == 1
    assert plan.esp_addresses == (QuantumAddress("0"),)


def test_addresses_order_by_integer_value():
    a = QuantumAddress("0011")
    b = QuantumAddress("0100")
    assert a < b
    assert a.index == 3 and b.index == 4


def test_from_index_writes_fixed_width_bits():
    assert QuantumAddress.from_index(5, 4).bits == "0101"
    for index, width in ((-1, 3), (8, 3)):
        with pytest.raises(ValueError):
            QuantumAddress.from_index(index, width)
